"""Classification of dependencies: fd-shaped egds, positional keys, key-based tgds.

Definition 5.1 of the paper introduces *key-based* tgds (equivalent to
Deutsch's UWDs): a tgd ``φ(X̄,Ȳ) → ∃Z̄ ψ(Ȳ,Z̄)`` is key based when, for every
conclusion atom, the positions carrying universally quantified terms form a
superkey of the relation and the relation is set valued in every instance.
Every chase step with a key-based tgd is assignment fixing, but the converse
fails (Example 4.8 / 5.1): the paper's assignment-fixing notion is strictly
more general, which is why the sound chase in :mod:`repro.chase` uses the
latter.  This module provides the key-based test so the two notions can be
compared (tests and the E2 benchmark do exactly that).

Key information is extracted from the egds of the dependency set: an egd is
*fd shaped* when its premise consists of two atoms over the same predicate
that share variables on a set of "determinant" positions and its conclusion
equates the two variables at one other position.  Those positional fds feed
the standard attribute-closure computation.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from ..core.atoms import Atom
from ..core.terms import Constant, Variable
from .base import EGD, TGD, Dependency, DependencySet

PositionalFD = tuple[frozenset[int], int]


def egd_as_positional_fd(dependency: Dependency) -> tuple[str, PositionalFD] | None:
    """Recognise an fd-shaped egd and return ``(relation, (determinant, dependent))``.

    Returns None when the egd does not match the functional-dependency shape
    of Appendix B (two premise atoms over one predicate, one equality between
    same-position variables).
    """
    if not isinstance(dependency, EGD):
        return None
    if len(dependency.premise) != 2 or len(dependency.equalities) != 1:
        return None
    first, second = dependency.premise
    if first.predicate != second.predicate or first.arity != second.arity:
        return None
    equality = dependency.equalities[0]
    dependent_position: int | None = None
    determinant: set[int] = set()
    for position, (term1, term2) in enumerate(zip(first.terms, second.terms)):
        if term1 == term2:
            determinant.add(position)
            continue
        pair = {term1, term2}
        if pair == {equality.left, equality.right}:
            if dependent_position is not None:
                return None
            dependent_position = position
        # Positions where the two atoms differ and are not the equated pair
        # are "don't care" positions (the Z̄ / Z̄' of Appendix B).
    if dependent_position is None:
        return None
    return first.predicate, (frozenset(determinant), dependent_position)


def extract_positional_fds(
    dependencies: Iterable[Dependency],
) -> dict[str, list[PositionalFD]]:
    """All fd-shaped egds of *dependencies*, grouped by relation."""
    result: dict[str, list[PositionalFD]] = {}
    for dependency in dependencies:
        recognised = egd_as_positional_fd(dependency)
        if recognised is None:
            continue
        relation, fd = recognised
        result.setdefault(relation, []).append(fd)
    return result


def positions_closure(
    start: Iterable[int], fds: Sequence[PositionalFD]
) -> frozenset[int]:
    """Closure of a set of positions under positional fds."""
    closure = set(start)
    changed = True
    while changed:
        changed = False
        for determinant, dependent in fds:
            if determinant <= closure and dependent not in closure:
                closure.add(dependent)
                changed = True
    return frozenset(closure)


def is_superkey_positions(
    relation: str,
    arity: int,
    positions: Iterable[int],
    dependencies: Iterable[Dependency],
) -> bool:
    """Do *positions* form a superkey of *relation* given the set's fd-shaped egds?"""
    fds = extract_positional_fds(dependencies).get(relation, [])
    closure = positions_closure(positions, fds)
    return set(range(arity)) <= closure


def universal_positions(atom: Atom, universal_variables: Iterable[Variable]) -> set[int]:
    """Positions of *atom* holding universally quantified variables or constants."""
    universal = set(universal_variables)
    positions = set()
    for index, term in enumerate(atom.terms):
        if isinstance(term, Constant) or term in universal:
            positions.add(index)
    return positions


def is_key_based_tgd(tgd: TGD, dependencies: DependencySet) -> bool:
    """Definition 5.1: is *tgd* key based with respect to *dependencies*?

    For every conclusion atom, (i) the positions carrying universal terms
    must be a superkey of the relation under the fd-shaped egds of the set,
    and (ii) the relation must be set valued in every instance (per the
    dependency set's set-valuedness markers).
    """
    universal = set(tgd.universal_variables())
    for atom in tgd.conclusion:
        if not dependencies.is_set_valued(atom.predicate):
            return False
        positions = universal_positions(atom, universal)
        if not is_superkey_positions(
            atom.predicate, atom.arity, positions, dependencies
        ):
            return False
    return True
