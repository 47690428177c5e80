"""Terms: interned, hash-consed variables and constants.

The paper's queries and dependencies are built from *terms*: variables
(implicitly universally or existentially quantified, depending on position)
and constants.  Every decision procedure in the library bottoms out in
hashing and comparing terms — homomorphism posting lists, chase-cache keys,
canonicalization — so terms are **hash consed**: constructing a
:class:`Variable` or :class:`Constant` returns a canonical per-process
singleton from an intern table, equality of interned terms is (almost
always) a pointer comparison, and the hash is computed once and cached.

Each interned term also carries a small process-unique integer ``uid``,
assigned at intern time; index structures such as
:class:`~repro.core.homomorphism.TargetIndex` key their posting lists on
these ints instead of on the terms themselves.

Interning is an implementation detail, not a semantic change:

* ``__eq__`` keeps the value-based fallback (two ``Variable`` objects with
  the same name are equal even if, through some exotic path, they are not
  the same object), with an identity fast path that interning makes hit
  nearly always;
* pickling round-trips through ``__reduce__``, which re-interns on
  unpickling — terms sent to ``decide_many(..., concurrency=N)`` worker
  processes come back as the parent process's canonical singletons;
* the intern tables hold their terms **weakly** (``WeakValueDictionary``):
  a term stays the canonical singleton for as long as anything references
  it, and is dropped from the table when the last reference dies, so a
  long-lived server chasing adversarial workloads with unbounded fresh
  constant vocabularies does not grow the tables without bound.  A name
  re-interned after its term died gets a **new** ``uid`` — safe, because
  every uid-keyed structure (posting lists, compiled plans) holds strong
  references to the terms whose uids it embeds, so a uid can only be
  observed while its term is alive.

``INTERN_STATS`` counts intern-table hits and misses; the chase drivers
snapshot it around a run and report the delta in their
:class:`~repro.chase.profile.ChaseProfile`.

Two helper functions, :func:`fresh_variable` and
:class:`FreshVariableFactory`, generate names guaranteed not to collide
with a given set of used names; the chase and the associated-test-query
construction (Definition 4.2 of the paper) rely on this.
"""

from __future__ import annotations

import itertools
import weakref
from typing import ClassVar, Hashable, Iterable, Iterator, Union


class HitMissStats:
    """A process-wide hit/miss counter pair.

    Instantiated here as :data:`INTERN_STATS` and in
    :mod:`repro.core.query` as the structural-key memo counters.
    """

    __slots__ = ("hits", "misses")

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0

    def snapshot(self) -> tuple[int, int]:
        """The current ``(hits, misses)`` pair, for delta accounting."""
        return (self.hits, self.misses)


#: Global intern counters, shared by :class:`Variable` and :class:`Constant`.
INTERN_STATS = HitMissStats()

#: Process-wide allocator of term ``uid`` ints (shared across both kinds so a
#: uid identifies a term, not a (kind, uid) pair).
_NEXT_UID = itertools.count()


class Variable:
    """A query / dependency variable, identified by name.

    Interned: ``Variable("X") is Variable("X")`` while at least one strong
    reference to the interned term exists (the table holds it weakly).
    """

    __slots__ = ("name", "uid", "_hash", "__weakref__")

    name: str
    uid: int
    _hash: int

    _intern: ClassVar["weakref.WeakValueDictionary[str, Variable]"] = (
        weakref.WeakValueDictionary()
    )

    def __new__(cls, name: str) -> "Variable":
        table = cls._intern
        self = table.get(name)
        if self is not None:
            INTERN_STATS.hits += 1
            return self
        INTERN_STATS.misses += 1
        self = object.__new__(cls)
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "uid", next(_NEXT_UID))
        # Same formula as the frozen-dataclass representation this replaced,
        # so hashes are stable across the refactor within a process.
        object.__setattr__(self, "_hash", hash((name,)))
        # setdefault, not assignment: if another thread interned the same
        # name between the get above and here, exactly one object wins the
        # table and both constructions return it — no distinct-uid duplicate
        # can escape into uid-keyed index structures.  (WeakValueDictionary's
        # setdefault also treats a dead entry as absent, so a name whose term
        # died is simply re-interned.)
        return table.setdefault(name, self)

    def __setattr__(self, attr: str, value: object) -> None:
        raise AttributeError(f"Variable is immutable; cannot set {attr!r}")

    def __delattr__(self, attr: str) -> None:
        raise AttributeError(f"Variable is immutable; cannot delete {attr!r}")

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if isinstance(other, Variable):
            return self.name == other.name
        return NotImplemented

    def __hash__(self) -> int:
        return self._hash

    # Total order by name (the pre-intern dataclass carried order=True).
    def __lt__(self, other: object) -> bool:
        if isinstance(other, Variable):
            return self.name < other.name
        return NotImplemented

    def __le__(self, other: object) -> bool:
        if isinstance(other, Variable):
            return self.name <= other.name
        return NotImplemented

    def __gt__(self, other: object) -> bool:
        if isinstance(other, Variable):
            return self.name > other.name
        return NotImplemented

    def __ge__(self, other: object) -> bool:
        if isinstance(other, Variable):
            return self.name >= other.name
        return NotImplemented

    def __reduce__(self) -> tuple[type["Variable"], tuple[str]]:
        # Re-intern on unpickling: a term crossing a process boundary (the
        # decide_many multiprocessing pipeline) lands back in the canonical
        # singleton of the receiving process.
        return (Variable, (self.name,))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Variable({self.name!r})"

    def __str__(self) -> str:
        return self.name


class Constant:
    """A constant value appearing in a query, dependency, or database tuple.

    Interned by value: ``Constant(1) is Constant(1)``.  The value must be
    hashable (ints and strings in practice); unhashable values are rejected
    at construction time rather than at first hash, which the intern lookup
    makes unavoidable anyway.

    Like :class:`Variable`, the intern table is weak: ``Constant(1) is
    Constant(1)`` while a strong reference to the interned term exists, and
    a value whose term has died is re-interned (with a fresh ``uid``) on
    next construction.

    Cross-type-equal values (``1`` / ``True`` / ``1.0``) intern to one
    singleton — whichever was constructed first in the process — because
    they always *compared* equal (``Constant(1) == Constant(True)`` held in
    the pre-interning representation too) and index structures key on the
    term's ``uid``, so splitting them by type would wrongly separate equal
    terms in posting lists.  The observable consequence is that ``.value``
    (and therefore rendering) of such a constant reflects the
    first-constructed representative; schemas mixing bools or floats with
    equal ints in the same vocabulary should normalize at the boundary.
    """

    __slots__ = ("value", "uid", "_hash", "__weakref__")

    value: Hashable
    uid: int
    _hash: int

    _intern: ClassVar["weakref.WeakValueDictionary[Hashable, Constant]"] = (
        weakref.WeakValueDictionary()
    )

    def __new__(cls, value: Hashable) -> "Constant":
        table = cls._intern
        self = table.get(value)
        if self is not None:
            INTERN_STATS.hits += 1
            return self
        INTERN_STATS.misses += 1
        self = object.__new__(cls)
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "uid", next(_NEXT_UID))
        object.__setattr__(self, "_hash", hash((value,)))
        # See Variable.__new__: setdefault keeps concurrent constructions
        # from leaking a duplicate with a distinct uid.
        return table.setdefault(value, self)

    def __setattr__(self, attr: str, value: object) -> None:
        raise AttributeError(f"Constant is immutable; cannot set {attr!r}")

    def __delattr__(self, attr: str) -> None:
        raise AttributeError(f"Constant is immutable; cannot delete {attr!r}")

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if isinstance(other, Constant):
            return self.value == other.value
        return NotImplemented

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self) -> tuple[type["Constant"], tuple[Hashable]]:
        return (Constant, (self.value,))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Constant({self.value!r})"

    def __str__(self) -> str:
        return repr(self.value) if isinstance(self.value, str) else str(self.value)


Term = Union[Variable, Constant]


def intern_table_sizes() -> tuple[int, int]:
    """Current ``(variables, constants)`` intern-table sizes (observability).

    The tables are weak, so the sizes count *live* interned terms — terms
    whose last strong reference died no longer appear.
    """
    return (len(Variable._intern), len(Constant._intern))


def is_variable(term: Term) -> bool:
    """Return True if *term* is a :class:`Variable`."""
    return isinstance(term, Variable)


def is_constant(term: Term) -> bool:
    """Return True if *term* is a :class:`Constant`."""
    return isinstance(term, Constant)


def term_from_value(value: object) -> Term:
    """Coerce a raw Python value into a term.

    Strings beginning with an uppercase letter or an underscore are treated
    as variables (the paper's convention: ``X``, ``Y``, ``Z1``); everything
    else becomes a constant.  Existing :class:`Variable` / :class:`Constant`
    objects pass through unchanged.
    """
    if isinstance(value, (Variable, Constant)):
        return value
    if isinstance(value, str) and value and (value[0].isupper() or value[0] == "_"):
        return Variable(value)
    return Constant(value)


class FreshVariableFactory:
    """Produces variables whose names do not collide with a set of used names.

    The factory is deterministic: it numbers variables ``prefix0``,
    ``prefix1`` ... skipping any name already in use, and records every name
    it hands out so repeated calls never collide with each other either.
    """

    def __init__(self, used_names: Iterable[str] = (), prefix: str = "_v"):
        self._used = set(used_names)
        self._prefix = prefix
        self._counter = 0

    def __call__(self, hint: str | None = None) -> Variable:
        """Return a fresh variable.

        If *hint* is given, the fresh name is derived from it (``hint``,
        ``hint_1``, ``hint_2`` ...), which keeps chase outputs readable.
        """
        if hint is not None:
            candidate = hint
            suffix = 0
            while candidate in self._used:
                suffix += 1
                candidate = f"{hint}_{suffix}"
            self._used.add(candidate)
            return Variable(candidate)
        while True:
            candidate = f"{self._prefix}{self._counter}"
            self._counter += 1
            if candidate not in self._used:
                self._used.add(candidate)
                return Variable(candidate)

    def reserve(self, names: Iterable[str]) -> None:
        """Mark *names* as used so they will never be produced."""
        self._used.update(names)


def fresh_variable(used: Iterable[Variable | str], hint: str = "_v") -> Variable:
    """Return a single variable not occurring in *used*.

    Convenience wrapper around :class:`FreshVariableFactory` for call sites
    that need just one fresh name.
    """
    used_names = {u.name if isinstance(u, Variable) else u for u in used}
    factory = FreshVariableFactory(used_names, prefix=hint)
    return factory(hint=hint) if hint != "_v" else factory()


def variables_in(terms: Iterable[Term]) -> Iterator[Variable]:
    """Yield the variables among *terms*, preserving order, with duplicates."""
    for term in terms:
        if isinstance(term, Variable):
            yield term


def constants_in(terms: Iterable[Term]) -> Iterator[Constant]:
    """Yield the constants among *terms*, preserving order, with duplicates."""
    for term in terms:
        if isinstance(term, Constant):
            yield term
