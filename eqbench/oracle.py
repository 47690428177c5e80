"""Correctness oracle built on the frozen reference engines.

Chases run through :func:`repro.chase.reference.sound_chase_reference` (full
rescans, no indexes, no memoization) and every homomorphism search through
:mod:`repro.core.reference`; the dependency-free tests of the three
semantics are spelled out here on top of them:

* set — containment mappings both ways (Theorem 2.2);
* bag — isomorphism after dropping duplicate subgoals over set-valued
  relations (Theorem 4.2);
* bag-set — isomorphism of the canonical representations (Theorem 2.1).

The oracle never runs inside a timed phase.  It memoizes per distinct input,
so checking every answer of a long run costs one reference computation per
distinct request.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations

from repro import ConjunctiveQuery, Constant, Variable, parse_dependencies, parse_query
from repro.chase.reference import sound_chase_reference
from repro.core.reference import find_homomorphism_reference, iter_homomorphisms_reference

from .inputs import Family


def _head_mapping(source: ConjunctiveQuery, target: ConjunctiveQuery) -> dict | None:
    if len(source.head_terms) != len(target.head_terms):
        return None
    fixed: dict = {}
    for s_term, t_term in zip(source.head_terms, target.head_terms):
        if isinstance(s_term, Constant):
            if s_term != t_term:
                return None
            continue
        if fixed.setdefault(s_term, t_term) != t_term:
            return None
    return fixed


def _contained_in(source: ConjunctiveQuery, target: ConjunctiveQuery) -> bool:
    """A containment mapping from *source* into *target* exists."""
    fixed = _head_mapping(source, target)
    if fixed is None:
        return False
    return find_homomorphism_reference(source.body, target.body, fixed) is not None


def isomorphic(q1: ConjunctiveQuery, q2: ConjunctiveQuery) -> bool:
    """A variable renaming maps q1's head onto q2's and its body onto q2's as bags."""
    if len(q1.body) != len(q2.body):
        return False
    if Counter(a.predicate for a in q1.body) != Counter(a.predicate for a in q2.body):
        return False
    fixed = _head_mapping(q1, q2)
    if fixed is None:
        return False
    variables = sorted({v for atom in q1.body for v in atom.variables()}, key=str)
    target = Counter(q2.body)
    for mapping in iter_homomorphisms_reference(q1.body, q2.body, fixed):
        images = [mapping.get(v, v) for v in variables]
        if any(not isinstance(image, Variable) for image in images):
            continue
        if len(set(images)) != len(images):
            continue
        if Counter(atom.substitute(mapping) for atom in q1.body) == target:
            return True
    return False


def _dedup(query: ConjunctiveQuery, predicates: frozenset[str] | None) -> ConjunctiveQuery:
    """Drop repeated subgoals, only over *predicates* unless it is ``None``."""
    kept, seen = [], set()
    for atom in query.body:
        if predicates is None or atom.predicate in predicates:
            if atom in seen:
                continue
            seen.add(atom)
        kept.append(atom)
    return ConjunctiveQuery(query.head_predicate, query.head_terms, kept)


def equivalent_free(
    q1: ConjunctiveQuery, q2: ConjunctiveQuery, semantics: str, set_valued: frozenset[str]
) -> bool:
    """The semantics' dependency-free equivalence test."""
    if semantics == "set":
        return _contained_in(q1, q2) and _contained_in(q2, q1)
    if semantics == "bag":
        return isomorphic(_dedup(q1, set_valued), _dedup(q2, set_valued))
    if semantics == "bag-set":
        return isomorphic(_dedup(q1, None), _dedup(q2, None))
    raise ValueError(f"unknown semantics {semantics!r}")


def _subqueries(plan: ConjunctiveQuery):
    """Every safe subquery of *plan*: a nonempty body subset keeping the head."""
    head = {t for t in plan.head_terms if isinstance(t, Variable)}
    for size in range(1, len(plan.body) + 1):
        for atoms in combinations(plan.body, size):
            if head <= {v for atom in atoms for v in atom.variables()}:
                yield ConjunctiveQuery(plan.head_predicate, plan.head_terms, atoms)


class Oracle:
    """Reference answers for one run, memoized per distinct question."""

    def __init__(self, families: dict[str, Family]):
        self.families = dict(families)
        self._sigmas: dict = {}
        self._chases: dict = {}
        self._verdicts: dict = {}

    def sigma(self, family: str, extra: tuple[str, ...] = (), set_valued: tuple[str, ...] = ()):
        key = (family, extra, set_valued)
        if key not in self._sigmas:
            base = self.families[family]
            self._sigmas[key] = parse_dependencies(
                list(base.sigma) + list(extra),
                set_valued=sorted(set(base.set_valued) | set(set_valued)),
            )
        return self._sigmas[key]

    def chase(self, query_text: str, semantics: str, family: str, **sigma_edits) -> ConjunctiveQuery:
        """The reference sound chase of *query_text* under the family's Σ."""
        key = (query_text, semantics, family, tuple(sorted(sigma_edits.items())))
        if key not in self._chases:
            sigma = self.sigma(family, **sigma_edits)
            self._chases[key] = sound_chase_reference(
                parse_query(query_text), sigma, semantics
            ).query
        return self._chases[key]

    def set_valued(self, family: str, **sigma_edits) -> frozenset[str]:
        return frozenset(self.sigma(family, **sigma_edits).set_valued_predicates)

    def verdict(self, family: str, left: str, right: str, semantics: str, **sigma_edits) -> bool:
        """Is ``left ≡Σ right`` under *semantics*, by the reference engines?"""
        key = (family, left, right, semantics, tuple(sorted(sigma_edits.items())))
        if key not in self._verdicts:
            self._verdicts[key] = equivalent_free(
                self.chase(left, semantics, family, **sigma_edits),
                self.chase(right, semantics, family, **sigma_edits),
                semantics,
                self.set_valued(family, **sigma_edits),
            )
        return self._verdicts[key]

    def chase_matches(
        self, chased: ConjunctiveQuery, query_text: str, semantics: str, family: str, **sigma_edits
    ) -> bool:
        """Is an engine chase Σ-equivalent to the reference chase of the query?"""
        return equivalent_free(
            chased,
            self.chase(query_text, semantics, family, **sigma_edits),
            semantics,
            self.set_valued(family, **sigma_edits),
        )

    def reformulations(self, family: str, query_text: str, semantics: str) -> list[ConjunctiveQuery]:
        """Reference C&B: subqueries of the universal plan equivalent to it."""
        plan = self.chase(query_text, semantics, family)
        sigma = self.sigma(family)
        set_valued = self.set_valued(family)
        found: list[ConjunctiveQuery] = []
        for candidate in _subqueries(plan):
            chased = sound_chase_reference(candidate, sigma, semantics).query
            if not equivalent_free(chased, plan, semantics, set_valued):
                continue
            if not any(isomorphic(candidate, seen) for seen in found):
                found.append(candidate)
        return found


def same_up_to_isomorphism(left: list[ConjunctiveQuery], right: list[ConjunctiveQuery]) -> bool:
    """Do two lists hold the same queries up to isomorphism (and count)?"""
    if len(left) != len(right):
        return False
    unmatched = list(right)
    for query in left:
        for index, other in enumerate(unmatched):
            if isomorphic(query, other):
                del unmatched[index]
                break
        else:
            return False
    return True
