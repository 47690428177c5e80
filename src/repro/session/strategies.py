"""Semantics strategies: the pluggable unit of the Session engine.

A :class:`SemanticsStrategy` bundles everything the engine needs to know
about one query-evaluation semantics:

* the *sound chase* for that semantics (Section 4 of the paper),
* the *dependency-free equivalence test* applied to terminal chase results
  (Theorem 2.2 for set, Theorem 6.1 / 4.2 for bag, Theorem 6.2 for bag-set),
* the *C&B variant* that reformulates queries under that semantics
  (Appendix A / Theorem 6.4 / Theorem K.1).

The three built-in strategies wrap the existing per-semantics machinery; a
third party adds a new semantics by subclassing :class:`SemanticsStrategy`
and registering an instance with a :class:`~repro.session.SemanticsRegistry`
— no core module needs to change.
"""

from __future__ import annotations

import abc
from typing import Sequence

from ..chase.set_chase import DEFAULT_MAX_STEPS, ChaseResult
from ..chase.sound_chase import sound_chase
from ..core.bag_equivalence import (
    is_bag_equivalent_with_set_enforced,
    is_bag_set_equivalent,
)
from ..core.containment import is_set_equivalent
from ..core.query import ConjunctiveQuery
from ..dependencies.base import DependencySet
from ..exceptions import SemanticsError
from ..semantics import Semantics

class SemanticsStrategy(abc.ABC):
    """Everything the engine needs to decide and reformulate under one semantics.

    ``name`` is the canonical semantics name (``"set"``, ``"bag"``, ...);
    ``aliases`` are alternative spellings the registry should accept;
    ``token`` is the value stamped on verdicts and chase results — the
    :class:`~repro.semantics.Semantics` member for built-in strategies, the
    name string for third-party ones.
    """

    #: Canonical lower-case name; must be unique within a registry.
    name: str = ""
    #: Alternative spellings accepted by registry lookup.
    aliases: Sequence[str] = ()

    @property
    def token(self) -> object:
        """The semantics marker carried by verdicts produced via this strategy."""
        return self.name

    def cache_token(self) -> object:
        """Hashable identity of this strategy's *chase behaviour* in cache keys.

        Defaults to the class path, so strategies of different classes bound
        to the same name never share cache entries.  Override when instances
        of the same class chase differently (e.g. carry configuration), so a
        cache shared across sessions keeps their results apart.
        """
        cls = type(self)
        return f"{cls.__module__}.{cls.__qualname__}"

    @abc.abstractmethod
    def chase(
        self,
        query: ConjunctiveQuery,
        dependencies: DependencySet,
        max_steps: int = DEFAULT_MAX_STEPS,
    ) -> ChaseResult:
        """Run the chase that is sound for this semantics."""

    def chase_with_plans(
        self,
        query: ConjunctiveQuery,
        dependencies: DependencySet,
        max_steps: int,
        plan_cache,
    ) -> ChaseResult:
        """Run :meth:`chase`, routing compiled-plan reuse through *plan_cache*.

        The Session calls this hook so its plan cache serves the chase's
        per-dependency match plans.  The default ignores the cache — a
        third-party strategy that predates plan caching (or whose chase has
        no notion of plans) keeps working unchanged; the built-in strategies
        override it to thread the cache into :func:`repro.chase.sound_chase`.
        """
        return self.chase(query, dependencies, max_steps)

    @abc.abstractmethod
    def equivalent_chased(
        self,
        chased1: ConjunctiveQuery,
        chased2: ConjunctiveQuery,
        dependencies: DependencySet,
    ) -> bool:
        """The dependency-free equivalence test on terminal chase results."""

    def reformulate(
        self,
        query: ConjunctiveQuery,
        dependencies: DependencySet,
        max_steps: int = DEFAULT_MAX_STEPS,
        engine=None,
        **kwargs,
    ):
        """Run this semantics' C&B variant.

        ``engine`` is the calling :class:`~repro.session.Session` (if any);
        the driver routes every chase — universal plan and backchase
        candidates alike — through its cache.  Called without an engine, an
        ephemeral Session is built with *this* strategy registered, so the
        method works for third-party strategies whose names the enum-based
        machinery cannot parse.
        """
        # Imported lazily: reformulation's public wrappers delegate back
        # through Session, so a module-level import would be circular.
        from ..reformulation.cb import chase_and_backchase

        if engine is None:
            from .engine import Session

            engine = Session(dependencies=dependencies)
            engine.registry.register(self, replace=True)
            dependencies = engine.dependencies
        return chase_and_backchase(
            query, dependencies, self.token, max_steps, engine=engine, **kwargs
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r}>"


class _BuiltinStrategy(SemanticsStrategy):
    """Shared plumbing for the paper's three semantics."""

    semantics: Semantics

    @property
    def token(self) -> Semantics:
        return self.semantics

    def chase(
        self,
        query: ConjunctiveQuery,
        dependencies: DependencySet,
        max_steps: int = DEFAULT_MAX_STEPS,
    ) -> ChaseResult:
        return sound_chase(query, dependencies, self.semantics, max_steps)

    def chase_with_plans(
        self,
        query: ConjunctiveQuery,
        dependencies: DependencySet,
        max_steps: int,
        plan_cache,
    ) -> ChaseResult:
        return sound_chase(
            query, dependencies, self.semantics, max_steps, plan_cache=plan_cache
        )


class SetStrategy(_BuiltinStrategy):
    """Set semantics: set chase + Theorem 2.2 equivalence + classic C&B."""

    name = "set"
    aliases = ("s",)
    semantics = Semantics.SET

    def equivalent_chased(self, chased1, chased2, dependencies) -> bool:
        return is_set_equivalent(chased1, chased2)


class BagStrategy(_BuiltinStrategy):
    """Bag semantics: sound bag chase + Theorem 6.1 / 4.2 test + Bag-C&B."""

    name = "bag"
    aliases = ("b",)
    semantics = Semantics.BAG

    def equivalent_chased(self, chased1, chased2, dependencies) -> bool:
        return is_bag_equivalent_with_set_enforced(
            chased1, chased2, dependencies.set_valued_predicates
        )


class BagSetStrategy(_BuiltinStrategy):
    """Bag-set semantics: sound bag-set chase + Theorem 6.2 test + Bag-Set-C&B."""

    name = "bag-set"
    aliases = ("bagset", "bag_set", "bs")
    semantics = Semantics.BAG_SET

    def equivalent_chased(self, chased1, chased2, dependencies) -> bool:
        return is_bag_set_equivalent(chased1, chased2)


#: Constructors for the built-in strategies, in Proposition 6.1 order
#: (bag ⇒ bag-set ⇒ set): the strongest semantics first.
BUILTIN_STRATEGIES = (BagStrategy, BagSetStrategy, SetStrategy)


def require_builtin_strategy(strategy: SemanticsStrategy) -> None:
    """Refuse *strategy* for worker-process execution unless it is a stock built-in.

    Worker processes rebuild Sessions with the default registry, so anything
    but a stock built-in strategy instance — a custom strategy, or a subclass
    shadowing a built-in name (hence the exact type check) — would silently
    run different code in the workers than in this process.  Guards
    ``decide_many(..., concurrency=N)`` and ``repro serve --workers N``.
    """
    if type(strategy) not in BUILTIN_STRATEGIES:
        raise SemanticsError(
            f"strategy {strategy!r} is a custom semantics strategy; "
            "custom strategies cannot be shipped to worker processes — "
            "run the batch without concurrency, or serve with --workers 1"
        )
