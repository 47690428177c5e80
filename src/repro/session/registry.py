"""The semantics registry: name → strategy dispatch for the Session engine.

The paper's machinery comes in three parallel per-semantics families; the
registry replaces that fan-out with a single lookup table.  Built-in
strategies cover the paper's set / bag / bag-set semantics; third parties
register additional :class:`~repro.session.strategies.SemanticsStrategy`
instances (say, a probabilistic or provenance semantics) without touching
any core module — every ``Session.decide`` / ``chase`` / ``reformulate``
call dispatches through here.
"""

from __future__ import annotations

import weakref
from typing import Callable, Iterator

from ..exceptions import SemanticsError, UnknownSemanticsError
from ..semantics import Semantics
from .strategies import BUILTIN_STRATEGIES, SemanticsStrategy


def normalize_semantics_name(semantics: object) -> str:
    """Canonicalize a semantics key: enum member → value, string → slug."""
    if isinstance(semantics, Semantics):
        return semantics.value
    if isinstance(semantics, str):
        return semantics.strip().lower().replace("_", "-")
    raise SemanticsError(
        f"semantics must be a Semantics member or a name, got {semantics!r}"
    )


class SemanticsRegistry:
    """A mutable mapping from semantics names (and aliases) to strategies."""

    def __init__(self, strategies: "tuple[SemanticsStrategy, ...] | list" = ()):
        self._by_key: dict[str, SemanticsStrategy] = {}
        self._canonical: dict[str, SemanticsStrategy] = {}
        # Each listener entry is a zero-arg resolver returning the live
        # callback or None (a WeakMethod, or a strong-holding closure).
        self._shadow_listeners: list[Callable[[], Callable[[], None] | None]] = []
        for strategy in strategies:
            self.register(strategy)

    # ------------------------------------------------------------------ #
    def on_shadow(self, callback: Callable[[], None]) -> None:
        """Call *callback* whenever a registration shadows an existing name.

        Sessions subscribe :meth:`~repro.session.Session.clear_cache` here:
        cache keys carry only the semantics name, so chases and verdicts
        computed by a replaced strategy must never be served as the
        replacement's.  Bound methods are held weakly, so a registry shared
        across many (possibly short-lived) sessions does not keep them alive.
        """
        ref: Callable[[], Callable[[], None] | None]
        try:
            ref = weakref.WeakMethod(callback)
        except TypeError:  # plain function / non-method callable: hold strongly
            ref = lambda _cb=callback: _cb  # noqa: E731
        # Prune dead refs on every subscription too, so a long-lived registry
        # shared by many transient sessions stays bounded even when no
        # shadowing registration ever fires.
        self._shadow_listeners = [r for r in self._shadow_listeners if r() is not None]
        self._shadow_listeners.append(ref)

    def _notify_shadow(self) -> None:
        alive = []
        for ref in self._shadow_listeners:
            callback = ref()
            if callback is not None:
                callback()
                alive.append(ref)
        self._shadow_listeners = alive

    def register(
        self, strategy: SemanticsStrategy, *, replace: bool = False
    ) -> SemanticsStrategy:
        """Register *strategy* under its name and aliases; returns it.

        Registration refuses to overwrite an existing name unless
        ``replace=True``, so a typo cannot silently shadow a built-in.
        Replacing displaces the colliding strategies entirely — their other
        aliases are dropped too, so no stale alias keeps dispatching to (and
        cache-poisoning under) the old strategy.
        """
        if not isinstance(strategy, SemanticsStrategy):
            raise SemanticsError(
                f"expected a SemanticsStrategy instance, got {strategy!r}"
            )
        name = normalize_semantics_name(strategy.name)
        if not name:
            raise SemanticsError(f"strategy {strategy!r} has an empty name")
        keys = [name] + [normalize_semantics_name(alias) for alias in strategy.aliases]
        if not replace:
            for key in keys:
                if key in self._by_key and self._by_key[key] is not strategy:
                    raise SemanticsError(
                        f"semantics {key!r} is already registered; "
                        "pass replace=True to override"
                    )
        displaced = [
            self._by_key[key]
            for key in keys
            if key in self._by_key and self._by_key[key] is not strategy
        ]
        if displaced:
            self._by_key = {
                key: existing
                for key, existing in self._by_key.items()
                if not any(existing is old for old in displaced)
            }
            self._canonical = {
                cname: existing
                for cname, existing in self._canonical.items()
                if not any(existing is old for old in displaced)
            }
        for key in keys:
            self._by_key[key] = strategy
        self._canonical[name] = strategy
        if displaced:
            self._notify_shadow()
        return strategy

    def resolve(self, semantics: object) -> SemanticsStrategy:
        """Return the strategy for *semantics* (name, alias, or enum member)."""
        key = normalize_semantics_name(semantics)
        try:
            return self._by_key[key]
        except KeyError:
            raise UnknownSemanticsError(semantics, self.names()) from None

    # ------------------------------------------------------------------ #
    def names(self) -> tuple[str, ...]:
        """The canonical names of every registered strategy, in registration order."""
        return tuple(self._canonical)

    def __contains__(self, semantics: object) -> bool:
        try:
            key = normalize_semantics_name(semantics)
        except SemanticsError:
            return False
        return key in self._by_key

    def __iter__(self) -> Iterator[SemanticsStrategy]:
        return iter(self._canonical.values())

    def __len__(self) -> int:
        return len(self._canonical)

    def copy(self) -> "SemanticsRegistry":
        """An independent copy (shared strategies, separate tables, no listeners)."""
        clone = SemanticsRegistry()
        clone._by_key = dict(self._by_key)
        clone._canonical = dict(self._canonical)
        return clone

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SemanticsRegistry({', '.join(self.names())})"


def default_registry() -> SemanticsRegistry:
    """A fresh registry holding the paper's three built-in strategies."""
    return SemanticsRegistry([cls() for cls in BUILTIN_STRATEGIES])
