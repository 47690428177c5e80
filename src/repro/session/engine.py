"""The :class:`Session` façade — the unified entry point of the engine.

A Session binds a dependency set Σ (and optionally a schema) once and then
answers every question the library can ask — chase, equivalence, C&B
reformulation — through three shared components:

* a :class:`~repro.session.registry.SemanticsRegistry` dispatching each
  semantics name to the strategy bundling its sound chase, equivalence test,
  and C&B variant (third parties register new semantics without touching
  core modules);
* a :class:`~repro.session.cache.ChaseCache` of terminal chase results keyed
  by canonicalized (query, Σ, semantics, max_steps), so repeated decisions
  over a workload skip the dominant chase cost entirely;
* the batch pipelines of :mod:`repro.session.batch`
  (:meth:`Session.decide_many` / :meth:`Session.reformulate_many`), with
  optional multiprocessing and per-item error capture.

Typical use::

    from repro import Session, parse_dependencies, parse_query

    session = Session(dependencies=parse_dependencies(SIGMA, set_valued=["t"]))
    verdict = session.decide(q1, q2, semantics="bag")
    plans = session.reformulate(q1, semantics="bag-set")
    report = session.decide_many([(q1, q2), (q1, q3)], semantics="bag")
"""

from __future__ import annotations

import time
from typing import Any, Iterable, Mapping, Protocol, Sequence

from ..chase.incremental import (
    ChaseCheckpoint,
    ChaseDelta,
    ResumeOutcome,
    apply_delta_to_query,
    apply_delta_to_sigma,
    chase_with_checkpoint,
    resume_chase,
    sigma_extension_suffix,
    validate_delta,
)
from ..chase.plans import PlanCache, default_plan_cache
from ..chase.profile import ChaseProfile
from ..chase.set_chase import DEFAULT_MAX_STEPS, ChaseResult
from ..chase.sigma_subset import SigmaSubsetResult, scan_sigma_subset
from ..core.aggregate import AggregateQuery
from ..core.query import ConjunctiveQuery
from ..dependencies.base import Dependency, DependencySet
from ..equivalence.decision import EquivalenceVerdict
from ..semantics import Semantics
from ..exceptions import DeltaRejectedError, DependencyError, SchemaError, SemanticsError
from .cache import (
    MISSING,
    CacheStats,
    ChaseCache,
    ChaseKey,
    WeakKeyLRU,
    chase_cache_key,
    sigma_fingerprint,
)
from .registry import SemanticsRegistry, default_registry, normalize_semantics_name
from .strategies import SemanticsStrategy


class ChaseResultStore(Protocol):
    """What a Session needs from a persistent chase-result store.

    The concrete implementation lives a layer up, in
    :class:`repro.serve.store.ChaseStore` (session must not depend on the
    serving subsystem); anything honouring this protocol — get by key or
    ``None``, write-through put, JSON-able stats — can back a session.
    """

    def get(self, key: Any) -> ChaseResult | None: ...

    def put(self, key: Any, result: ChaseResult) -> None: ...

    def stats(self) -> Mapping[str, Any]: ...

    def close(self) -> None: ...


class _SessionDependencySet(DependencySet):
    """A Session-owned Σ that refuses in-place mutation.

    Cache keys memoize Σ's fingerprint, so mutating the session's dependency
    set in place would silently serve stale chases; Σ changes must go
    through :meth:`Session.set_dependencies`, which invalidates the cache.
    The dependency sequence is stored as a tuple so even direct mutation of
    the ``dependencies`` attribute's contents is impossible.
    """

    def __init__(self, dependencies=(), set_valued_predicates=()):
        super().__init__(dependencies, set_valued_predicates)
        self.dependencies = tuple(self.dependencies)

    def add(self, dependency) -> None:
        raise DependencyError(
            "this Session's dependency set is immutable; build a new "
            "DependencySet and call session.set_dependencies(...) so the "
            "chase cache is invalidated"
        )


class Session:
    """A long-lived engine instance owning registries, caches, and pipelines.

    ``dependencies`` may be a :class:`DependencySet` or a plain sequence of
    dependencies; ``schema`` is optional, and when it marks relations as set
    valued those markers are folded into Σ (they drive the Theorem 4.1 / 4.2
    soundness conditions under bag semantics).
    """

    def __init__(
        self,
        schema=None,
        dependencies: DependencySet | Sequence[Dependency] = (),
        *,
        registry: SemanticsRegistry | None = None,
        cache: ChaseCache | None = None,
        cache_size: int = 4096,
        plan_cache: PlanCache | None = None,
        default_semantics: Semantics | str = Semantics.BAG_SET,
        max_steps: int = DEFAULT_MAX_STEPS,
        store: "ChaseResultStore | None" = None,
        precheck: str | None = None,
        chase_resumable: bool = False,
    ):
        if schema is not None and not hasattr(schema, "set_valued_relations"):
            # The natural-looking call Session(sigma) would otherwise bind
            # the dependency set to `schema` and silently decide under an
            # empty Σ.
            raise SchemaError(
                f"Session's first argument is the schema, got {type(schema).__name__}; "
                "pass the dependency set as Session(dependencies=...)"
            )
        self.schema = schema
        self.registry = registry if registry is not None else default_registry()
        self.cache = cache if cache is not None else ChaseCache(cache_size)
        # Compiled per-Σ match plans; by default the process-wide cache, so
        # sessions over the same Σ (and the module-level chase functions)
        # share compilations.  Threaded into every chase this session runs
        # via SemanticsStrategy.chase_with_plans.
        self.plan_cache = plan_cache if plan_cache is not None else default_plan_cache()
        self.default_semantics = default_semantics
        self.max_steps = max_steps
        # Optional persistent second-level store (see ChaseResultStore):
        # consulted on every in-memory miss, written through on every cold
        # chase, so a restarted process starts warm from disk.
        self.store = store
        # Static precheck mode: None/"off" (no analysis), "warn" (analyze Σ,
        # keep the report, seed chase budgets from the termination
        # certificate), or "strict" (additionally refuse an uncertified Σ
        # with a PrecheckFailedError before any chase step runs).
        if precheck not in (None, "off", "warn", "strict"):
            raise DependencyError(
                f"unknown precheck mode {precheck!r}; expected 'off', 'warn', or 'strict'"
            )
        self.precheck = "off" if precheck is None else precheck
        self.precheck_report = None
        self._certificate = None
        self._dependencies = self._coerce_dependencies(dependencies)
        if self.precheck != "off":
            self.precheck_report, self._certificate = self._run_precheck(
                self._dependencies
            )
        self._sigma_key: object | None = None  # computed lazily by _chase_key
        # Assembled cache keys, memoized per live query object (satellite of
        # the hash-consing refactor): repeated decisions on the same query
        # objects — every C&B run, every warm dashboard — reuse the exact
        # ChaseKey instance, whose hash is already computed.  Weak keys keep
        # the memo from pinning queries a caller has dropped; the LRU bound
        # (the chase cache's own policy and size) keeps a caller holding
        # millions of live queries from growing it without limit.
        self._key_memo: WeakKeyLRU = WeakKeyLRU(getattr(self.cache, "maxsize", cache_size))
        # Aggregate of every *cold* chase's profile (cache hits add nothing:
        # the work they saved is exactly what the aggregate measures).
        self._profile = ChaseProfile(runs=0)
        # Incremental chase state.  With ``chase_resumable`` every cold chase
        # of a built-in semantics also captures a ChaseCheckpoint; apply_delta
        # always captures one for the post-delta state.  Checkpoints are
        # keyed *without* Σ or the step budget (a checkpoint carries its own
        # Σ and budget and is caught up to the session's Σ at resume time),
        # and deliberately kept in a cache separate from the chase-result
        # cache: set_dependencies must invalidate stale results but a
        # checkpoint taken under a Σ prefix is exactly what apply_delta
        # resumes from after Σ grows.
        self.chase_resumable = bool(chase_resumable)
        self._checkpoints = ChaseCache(cache_size)
        self._incremental: dict[str, int] = {
            "deltas_applied": 0,
            "deltas_rejected": 0,
            "resumed_runs": 0,
            "cold_runs": 0,
            "steps_replayed": 0,
            "steps_executed": 0,
            "steps_saved": 0,
        }
        # Verdicts of the dependency-free test, keyed by (strategy name,
        # cache token, chased left, chased right): a repeat decide on cached
        # chases skips the test.  The key holds the chased queries, not the
        # chase-cache entry, so a chase cache shared with other sessions
        # cannot make a verdict stale; Σ is not in the key (the bag test
        # reads Σ's set-valued markers), so every Σ change clears it.
        self._verdicts = ChaseCache(cache_size)
        # Any registration that shadows an existing semantics name — through
        # this object or the registry directly — must drop cached chases and
        # the verdicts computed by the replaced strategy.
        self.registry.on_shadow(self.clear_cache)

    # ------------------------------------------------------------------ #
    # Dependencies: Σ is session state; changing it invalidates the cache.
    # ------------------------------------------------------------------ #
    def _coerce_dependencies(
        self, dependencies: DependencySet | Sequence[Dependency]
    ) -> DependencySet:
        if not isinstance(dependencies, DependencySet):
            dependencies = DependencySet(dependencies)
        if self.schema is not None:
            schema_set_valued = getattr(self.schema, "set_valued_relations", None)
            if callable(schema_set_valued):
                marked = schema_set_valued()
                if marked - set(dependencies.set_valued_predicates):
                    dependencies = dependencies.with_set_valued(marked)
        # Own an immutable snapshot: later mutation of the caller's set must
        # not change Σ behind the memoized fingerprint and cache.
        return _SessionDependencySet(
            list(dependencies.dependencies), dependencies.set_valued_predicates
        )

    @property
    def dependencies(self) -> DependencySet:
        """The dependency set Σ every decision in this session is made under."""
        return self._dependencies

    @dependencies.setter
    def dependencies(self, dependencies: DependencySet | Sequence[Dependency]) -> None:
        self.set_dependencies(dependencies)

    def set_dependencies(
        self, dependencies: DependencySet | Sequence[Dependency]
    ) -> None:
        """Replace Σ and invalidate every cached chase result.

        Under a strict precheck a refused Σ leaves the session on its
        previous (certified) dependency set.
        """
        coerced = self._coerce_dependencies(dependencies)
        report = certificate = None
        if self.precheck != "off":
            report, certificate = self._run_precheck(coerced)
        self._dependencies = coerced
        self.precheck_report = report
        self._certificate = certificate
        self._sigma_key = None
        self._key_memo.clear()  # memoized keys embed the old Σ fingerprint
        self.clear_cache()

    def _run_precheck(self, dependencies: DependencySet):
        """Analyze Σ; in strict mode raise on error-severity diagnostics."""
        from ..analysis.static import analyze
        from ..exceptions import PrecheckFailedError

        report = analyze(dependencies)
        if self.precheck == "strict" and not report.ok:
            lines = [diagnostic.render_line() for diagnostic in report.errors]
            raise PrecheckFailedError(
                "strict precheck refused Σ before any chase step:\n"
                + "\n".join(lines),
                report=report,
            )
        return report, report.certificate

    @property
    def certificate(self):
        """The termination certificate of Σ (precheck modes only), or None."""
        return self._certificate

    # ------------------------------------------------------------------ #
    # Registry surface
    # ------------------------------------------------------------------ #
    def register_semantics(
        self, strategy: SemanticsStrategy, *, replace: bool = False
    ) -> SemanticsStrategy:
        """Register a third-party semantics strategy on this session.

        Replacing a strategy whose name (or alias) is already registered
        invalidates the chase cache and the verdict memo (via the registry's
        shadow listener): cache keys carry only the semantics name, so
        results chased or tested by the replaced strategy must not be served
        as the new strategy's.
        """
        return self.registry.register(strategy, replace=replace)

    def strategy_for(self, semantics: object | None = None) -> SemanticsStrategy:
        """Resolve *semantics* (default: the session default) to its strategy."""
        if semantics is None:
            semantics = self.default_semantics
        return self.registry.resolve(semantics)

    def semantics_names(self) -> tuple[str, ...]:
        """Canonical names of the semantics this session can dispatch on."""
        return self.registry.names()

    # ------------------------------------------------------------------ #
    # Chase (cached)
    # ------------------------------------------------------------------ #
    def _chase_key(self, query: ConjunctiveQuery, strategy: SemanticsStrategy, max_steps: int):
        # Σ's fingerprint only changes via set_dependencies (which resets it),
        # so it is computed once per Σ rather than on every lookup.  The key
        # carries the strategy's cache token besides its name: a cache shared
        # between sessions whose registries bind the same name to different
        # strategies (or differently-configured instances) must not serve
        # one strategy's chases as the other's.  Assembled keys are memoized
        # per live query object (keyed by strategy and budget), so a repeat
        # lookup reuses the hash-cached ChaseKey without rebuilding anything.
        strategy_key = (
            normalize_semantics_name(strategy.name),
            strategy.cache_token(),
        )
        per_query = self._key_memo.get(query)
        if per_query is None:
            per_query = {}
            self._key_memo.put(query, per_query)
        memo_key = (strategy_key, max_steps)
        key = per_query.get(memo_key)
        if key is not None:
            self._profile.cache_keys_reused += 1
            return key
        started = time.perf_counter()
        if self._sigma_key is None:
            self._sigma_key = sigma_fingerprint(self._dependencies)
        key = chase_cache_key(
            query, self._dependencies, strategy_key, max_steps,
            sigma_key=self._sigma_key,
        )
        per_query[memo_key] = key
        self._profile.cache_keys_built += 1
        self._profile.key_build_time += time.perf_counter() - started
        return key

    def chase(
        self,
        query: ConjunctiveQuery,
        semantics: object | None = None,
        max_steps: int | None = None,
    ) -> ChaseResult:
        """The terminal sound chase of *query* under Σ, served from cache when warm.

        With an active precheck and a certified Σ, a call without an explicit
        ``max_steps`` draws its budget from the certificate's static
        chase-depth bound instead of the session default — a certified chase
        can never die of budget exhaustion (the bound is astronomically
        loose but sufficient by construction, and the chase stops at its
        terminal result long before).
        """
        strategy = self.strategy_for(semantics)
        if max_steps is None:
            if self._certificate is not None:
                steps = self._certificate.step_budget_for(query)
            else:
                steps = self.max_steps
        else:
            steps = max_steps
        key = self._chase_key(query, strategy, steps)
        cached = self.cache.get(key)
        if cached is not MISSING:
            return cached
        if self.store is not None:
            stored = self.store.get(key)
            if stored is not None:
                # Promote to the in-memory cache so the next hit skips the
                # store's parse as well; no profile merge — a store hit did
                # no chase work, exactly like a memory hit.
                self.cache.put(key, stored)
                return stored
        semantics_token = getattr(strategy, "semantics", None)
        if self.chase_resumable and semantics_token is not None:
            result, checkpoint = chase_with_checkpoint(
                query, self._dependencies, semantics_token, steps,
                plan_cache=self.plan_cache,
            )
            self._checkpoints.put(self._checkpoint_key(query, strategy), checkpoint)
            self._incremental["cold_runs"] += 1
            self._incremental["steps_executed"] += result.step_count
        else:
            result = strategy.chase_with_plans(
                query, self._dependencies, steps, self.plan_cache
            )
        profile = getattr(result, "profile", None)
        if profile is not None:
            self._profile.merge(profile)
        self.cache.put(key, result)
        if self.store is not None and result.terminated:
            self.store.put(key, result)
        return result

    def sigma_subset(
        self,
        query: ConjunctiveQuery,
        semantics: object | None = None,
        max_steps: int | None = None,
    ) -> SigmaSubsetResult:
        """The maximal Σ-subset of Algorithms 1/2 for *query* under this Σ.

        The terminal sound chase is served through :meth:`chase` (so a warm
        session skips it entirely), and the per-dependency soundness scan
        shares this session's :class:`~repro.chase.plans.PlanCache` plus one
        body index and one Definition 4.3 memo across the whole scan (see
        :func:`repro.chase.sigma_subset.scan_sigma_subset`).  The scan's
        profile — binding-level extension probes, trigger dicts avoided,
        per-subset plan reuse — is folded into :meth:`chase_profile` /
        :meth:`stats`, and also returned on the result's ``scan_profile``.
        Only bag and bag-set semantics have a nontrivial subset (under set
        semantics every step is sound, so Σ^max = Σ).
        """
        strategy = self.strategy_for(semantics)
        semantics_token = getattr(strategy, "semantics", None)
        if semantics_token is None:
            raise SemanticsError(
                f"strategy {strategy.name!r} does not expose a core semantics "
                "token; sigma_subset requires one of set / bag / bag-set"
            )
        steps = max_steps if max_steps is not None else self.max_steps
        chased = self.chase(query, semantics, max_steps=steps)
        result = scan_sigma_subset(
            chased, self._dependencies, semantics_token, steps, self.plan_cache
        )
        if result.scan_profile is not None:
            self._profile.merge(result.scan_profile)
        return result

    # ------------------------------------------------------------------ #
    # Incremental chase
    # ------------------------------------------------------------------ #
    def _checkpoint_key(
        self, query: ConjunctiveQuery, strategy: SemanticsStrategy
    ) -> ChaseKey:
        # No Σ fingerprint and no step budget, unlike _chase_key: a
        # checkpoint records its own Σ and budget, and the whole point of
        # keeping it across set_dependencies is resuming after Σ grows.
        strategy_key = (
            normalize_semantics_name(strategy.name),
            strategy.cache_token(),
        )
        return ChaseKey((query.structural_key(), strategy_key))

    def checkpoint_for(
        self, query: ConjunctiveQuery, semantics: object | None = None
    ) -> "ChaseCheckpoint | None":
        """The stored chase checkpoint for *query*, or None.

        Checkpoints exist for queries chased with ``chase_resumable`` set or
        advanced through :meth:`apply_delta`; they may have been taken under
        an earlier (prefix) Σ than the session's current one.
        """
        strategy = self.strategy_for(semantics)
        checkpoint = self._checkpoints.get(self._checkpoint_key(query, strategy))
        return None if checkpoint is MISSING else checkpoint

    def apply_delta(
        self,
        query: ConjunctiveQuery,
        delta: ChaseDelta,
        semantics: object | None = None,
        max_steps: int | None = None,
    ) -> ResumeOutcome:
        """Apply an instance/Σ delta to *query* and chase the new state.

        The delta's dependency edits update the *session's* Σ (through
        :meth:`set_dependencies`, so cached chase results are invalidated and
        an active precheck re-runs — a strict precheck that refuses the new Σ
        leaves the session untouched); its atom edits produce the new query,
        available as ``outcome.checkpoint.base_query``.  When a checkpoint
        for *query* exists and the delta is monotone, the chase is *resumed*
        from the checkpointed fixpoint instead of being recomputed — a
        checkpoint taken under an earlier Σ is caught up by folding the
        missing Σ suffix into the delta.  The outcome's result is also cached
        under the new query, so a following :meth:`chase` of it is warm.

        A resumed terminal result is Σ-equivalent to the cold chase of the
        new state (exactly what every downstream equivalence/C&B test needs),
        but not in general syntactically identical to it.

        Raises :class:`~repro.exceptions.DeltaRejectedError` for structurally
        invalid deltas, with the session state untouched.
        """
        strategy = self.strategy_for(semantics)
        try:
            validate_delta(query, self._dependencies, delta)
        except DeltaRejectedError:
            self._incremental["deltas_rejected"] += 1
            raise
        previous_sigma = self._dependencies
        new_sigma = apply_delta_to_sigma(previous_sigma, delta)
        new_query = apply_delta_to_query(query, delta)
        if (
            delta.added_dependencies
            or delta.removed_dependencies
            or delta.set_valued
        ):
            # May raise PrecheckFailedError under a strict precheck; nothing
            # has been chased or cached yet, so the session stays consistent.
            self.set_dependencies(new_sigma)
        semantics_token = getattr(strategy, "semantics", None)
        if max_steps is None:
            if self._certificate is not None:
                steps = self._certificate.step_budget_for(new_query)
            else:
                steps = self.max_steps
        else:
            steps = max_steps

        outcome: ResumeOutcome | None = None
        if semantics_token is None:
            result = strategy.chase_with_plans(
                new_query, self._dependencies, steps, self.plan_cache
            )
            outcome = ResumeOutcome(
                result=result,
                checkpoint=None,
                resumed=False,
                fallback_reason="unsupported-strategy",
                replayed_steps=0,
                new_steps=result.step_count,
            )
        elif delta.is_monotone:
            checkpoint = self._checkpoints.get(self._checkpoint_key(query, strategy))
            if checkpoint is not MISSING:
                catchup = sigma_extension_suffix(checkpoint.sigma, previous_sigma)
                if catchup is not None:
                    suffix, markers = catchup
                    effective = ChaseDelta(
                        added_atoms=delta.added_atoms,
                        added_dependencies=suffix + delta.added_dependencies,
                        set_valued=markers | delta.set_valued,
                    )
                    outcome = resume_chase(
                        checkpoint, effective,
                        max_steps=steps, plan_cache=self.plan_cache,
                    )
                else:
                    outcome = self._cold_outcome(
                        new_query, semantics_token, steps, "sigma-diverged"
                    )
            else:
                outcome = self._cold_outcome(
                    new_query, semantics_token, steps, "no-checkpoint"
                )
        else:
            outcome = self._cold_outcome(
                new_query, semantics_token, steps, "non-monotone-delta"
            )

        counters = self._incremental
        counters["deltas_applied"] += 1
        if outcome.resumed:
            counters["resumed_runs"] += 1
        else:
            counters["cold_runs"] += 1
        counters["steps_replayed"] += outcome.replayed_steps
        counters["steps_executed"] += outcome.new_steps
        counters["steps_saved"] += outcome.steps_saved
        profile = getattr(outcome.result, "profile", None)
        if profile is not None:
            self._profile.merge(profile)
        key = self._chase_key(new_query, strategy, steps)
        self.cache.put(key, outcome.result)
        if self.store is not None and outcome.result.terminated:
            self.store.put(key, outcome.result)
        if outcome.checkpoint is not None:
            self._checkpoints.put(
                self._checkpoint_key(new_query, strategy), outcome.checkpoint
            )
        return outcome

    def _cold_outcome(
        self,
        query: ConjunctiveQuery,
        semantics: Semantics,
        steps: int,
        reason: str,
    ) -> ResumeOutcome:
        result, checkpoint = chase_with_checkpoint(
            query, self._dependencies, semantics, steps, plan_cache=self.plan_cache
        )
        return ResumeOutcome(
            result=result,
            checkpoint=checkpoint,
            resumed=False,
            fallback_reason=reason,
            replayed_steps=0,
            new_steps=result.step_count,
        )

    # ------------------------------------------------------------------ #
    # Decisions
    # ------------------------------------------------------------------ #
    def decide(
        self,
        q1: ConjunctiveQuery,
        q2: ConjunctiveQuery,
        semantics: object | None = None,
        max_steps: int | None = None,
    ) -> EquivalenceVerdict:
        """Decide ``Q1 ≡Σ,X Q2`` for semantics X, with chases and verdicts cached."""
        strategy = self.strategy_for(semantics)
        chased1 = self.chase(q1, strategy.name, max_steps).query
        chased2 = self.chase(q2, strategy.name, max_steps).query
        key = (strategy.name, strategy.cache_token(), chased1, chased2)
        equivalent = self._verdicts.get(key)
        if equivalent is MISSING:
            equivalent = strategy.equivalent_chased(chased1, chased2, self._dependencies)
            self._verdicts.put(key, equivalent)
        return EquivalenceVerdict(equivalent, strategy.token, chased1, chased2)

    def decide_all(
        self,
        q1: ConjunctiveQuery,
        q2: ConjunctiveQuery,
        max_steps: int | None = None,
    ) -> Mapping[Semantics, EquivalenceVerdict]:
        """Verdicts under bag, bag-set, and set semantics (one chase each).

        Each input is chased at most once per semantics — repeated calls on
        a warm session chase nothing at all — and the Proposition 6.1
        implication chain (bag ⇒ bag-set ⇒ set) is asserted on the verdicts
        before they are returned.
        """
        verdicts = {
            semantics: self.decide(q1, q2, semantics, max_steps)
            for semantics in (Semantics.BAG, Semantics.BAG_SET, Semantics.SET)
        }
        assert_proposition_6_1(verdicts)
        return verdicts

    def reformulate(
        self,
        query: ConjunctiveQuery | AggregateQuery,
        semantics: object | None = None,
        max_steps: int | None = None,
        **kwargs,
    ):
        """Enumerate Σ-equivalent reformulations via the semantics' C&B variant.

        Aggregate queries dispatch to Max-Min-C&B / Sum-Count-C&B on their
        cores (Theorem 6.3) — the semantics is determined by the aggregate
        function, so passing one explicitly is an error rather than being
        silently ignored.  Plain CQ queries run the strategy's C&B with
        every chase — universal plan and backchase candidates — routed
        through this session's cache.
        """
        steps = self.max_steps if max_steps is None else max_steps
        if isinstance(query, AggregateQuery):
            if semantics is not None:
                raise SemanticsError(
                    "aggregate queries choose their semantics from the "
                    "aggregate function (Theorem 6.3: set for max/min, "
                    "bag-set for sum/count); call reformulate() without "
                    "a semantics argument"
                )
            from ..reformulation.aggregate_cb import reformulate_aggregate_query

            return reformulate_aggregate_query(
                query, self._dependencies, steps, engine=self, **kwargs
            )
        strategy = self.strategy_for(semantics)
        return strategy.reformulate(
            query, self._dependencies, steps, engine=self, **kwargs
        )

    # ------------------------------------------------------------------ #
    # Batch pipelines
    # ------------------------------------------------------------------ #
    def decide_many(
        self,
        pairs: Iterable[tuple[ConjunctiveQuery, ConjunctiveQuery]],
        semantics: object | None = None,
        max_steps: int | None = None,
        concurrency: int | None = None,
    ):
        """Decide every (Q1, Q2) pair; see :func:`repro.session.batch.decide_many`."""
        from .batch import decide_many

        return decide_many(
            self, pairs, semantics=semantics, max_steps=max_steps, concurrency=concurrency
        )

    def reformulate_many(
        self,
        queries: Iterable[ConjunctiveQuery],
        semantics: object | None = None,
        max_steps: int | None = None,
        concurrency: int | None = None,
        **kwargs,
    ):
        """Reformulate every query; see :func:`repro.session.batch.reformulate_many`."""
        from .batch import reformulate_many

        return reformulate_many(
            self,
            queries,
            semantics=semantics,
            max_steps=max_steps,
            concurrency=concurrency,
            **kwargs,
        )

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def cache_stats(self) -> CacheStats:
        """Hit/miss/eviction counters of the chase cache."""
        return self.cache.stats

    def plan_cache_stats(self) -> tuple[int, int, int]:
        """``(hits, misses, evictions)`` of the compiled-plan cache.

        By default the plan cache is process-wide (plans, like interned
        terms, are process-level state), so these counters cover every chase
        in the process, not just this session's.
        """
        cache = self.plan_cache
        return (cache.hits, cache.misses, cache.evictions)

    def chase_profile(self) -> ChaseProfile:
        """Aggregated :class:`ChaseProfile` over this session's cold chases.

        Warm (cached) chases contribute nothing — their saved work is the
        point — so reading this alongside :meth:`cache_stats` gives the full
        picture: what the cold path did, and how often the cache skipped it.
        """
        snapshot = ChaseProfile(runs=0)
        snapshot.merge(self._profile)
        return snapshot

    def stats(self) -> dict[str, object]:
        """One unified, JSON-able snapshot of every cache/engine counter.

        This is *the* stats surface: the CLI ``--profile`` output and the
        ``repro serve`` ``stats`` endpoint both read it, so the two can
        never drift apart.  Sections:

        * ``chase_cache`` — the in-memory result cache
          (:meth:`cache_stats`, flattened);
        * ``verdict_cache`` — the memo of dependency-free test verdicts
          that lets a repeat :meth:`decide` skip the test;
        * ``plan_cache`` — the compiled-match-plan cache (process-wide by
          default, see :meth:`plan_cache_stats`);
        * ``intern`` — process-wide term intern-table counters and live
          table sizes;
        * ``profile`` — the aggregate cold-chase profile
          (:meth:`chase_profile`, as a dict);
        * ``incremental`` — resumed-vs-cold run counts, replayed/executed/
          saved step counters, and live checkpoint count of the incremental
          chase layer (:meth:`apply_delta` / ``chase_resumable``);
        * ``store`` — the persistent store's counters, present only when a
          store is attached;
        * ``precheck`` — mode, certification status, and diagnostic counts,
          present only when the session was built with ``precheck=``.
        """
        from ..core.terms import INTERN_STATS, intern_table_sizes

        cache = self.cache.stats
        verdicts = self._verdicts.stats
        plan_hits, plan_misses, plan_evictions = self.plan_cache_stats()
        variables, constants = intern_table_sizes()
        stats: dict[str, object] = {
            "chase_cache": {
                "hits": cache.hits,
                "misses": cache.misses,
                "evictions": cache.evictions,
                "invalidations": cache.invalidations,
                "size": cache.size,
                "maxsize": cache.maxsize,
                "hit_rate": cache.hit_rate,
            },
            "verdict_cache": {
                "hits": verdicts.hits,
                "misses": verdicts.misses,
                "evictions": verdicts.evictions,
                "invalidations": verdicts.invalidations,
                "size": verdicts.size,
            },
            "plan_cache": {
                "hits": plan_hits,
                "misses": plan_misses,
                "evictions": plan_evictions,
            },
            "intern": {
                "hits": INTERN_STATS.hits,
                "misses": INTERN_STATS.misses,
                "variables": variables,
                "constants": constants,
            },
            "profile": self.chase_profile().as_dict(),
            "incremental": {
                **self._incremental,
                "checkpoints": len(self._checkpoints),
                "resumable": self.chase_resumable,
            },
        }
        if self.store is not None:
            stats["store"] = dict(self.store.stats())
        if self.precheck != "off":
            report = self.precheck_report
            stats["precheck"] = {
                "mode": self.precheck,
                "certified": self._certificate is not None,
                "errors": len(report.errors) if report is not None else 0,
                "warnings": len(report.warnings) if report is not None else 0,
                "max_rank": (
                    self._certificate.max_rank
                    if self._certificate is not None
                    else None
                ),
            }
        return stats

    def set_store(self, store: "ChaseResultStore | None") -> None:
        """Attach (or detach, with ``None``) a persistent chase-result store.

        The in-memory cache is left alone — its entries stay valid — but
        every future miss consults the new store and every future cold chase
        writes through to it.
        """
        self.store = store

    def clear_cache(self) -> None:
        """Drop every cached chase result and verdict (Σ stays untouched)."""
        self.cache.invalidate()
        self._verdicts.invalidate()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Session({len(self._dependencies)} dependencies, "
            f"semantics={list(self.semantics_names())}, cache={self.cache!r})"
        )


def merge_stats(snapshots: Sequence[Mapping[str, Any]]) -> dict[str, Any]:
    """Merge several :meth:`Session.stats` snapshots into one combined view.

    This is the cross-worker aggregation of multi-worker serving: each engine
    process reports its own snapshot, and the merged view sums every numeric
    leaf per section (cache hits, chase runs, intern misses ...), ORs the
    booleans, keeps the first occurrence of non-numeric values (paths,
    modes), and recomputes any ``hit_rate`` from the summed hits/misses
    (summing rates would be meaningless).
    """
    merged: dict[str, Any] = {}
    for snapshot in snapshots:
        for section, values in snapshot.items():
            if not isinstance(values, Mapping):
                continue
            bucket = merged.setdefault(section, {})
            for key, value in values.items():
                if isinstance(value, bool):
                    bucket[key] = bool(bucket.get(key, False)) or value
                elif isinstance(value, (int, float)):
                    existing = bucket.get(key, 0)
                    bucket[key] = (existing if isinstance(existing, (int, float)) else 0) + value
                else:
                    bucket.setdefault(key, value)
    for bucket in merged.values():
        if "hit_rate" in bucket:
            hits = bucket.get("hits", 0)
            misses = bucket.get("misses", 0)
            lookups = (hits if isinstance(hits, (int, float)) else 0) + (
                misses if isinstance(misses, (int, float)) else 0
            )
            bucket["hit_rate"] = (hits / lookups) if lookups else 0.0
    return merged


def assert_proposition_6_1(
    verdicts: Mapping[Semantics, EquivalenceVerdict]
) -> None:
    """Assert the Proposition 6.1 implication chain on a verdict triple.

    Bag equivalence implies bag-set equivalence implies set equivalence; a
    violation means a chase or equivalence test is unsound, so it is raised
    as an :class:`AssertionError` rather than returned as data.  The check
    is an explicit raise (not an ``assert`` statement) so it survives
    ``python -O``.
    """
    bag = verdicts.get(Semantics.BAG)
    bag_set = verdicts.get(Semantics.BAG_SET)
    set_ = verdicts.get(Semantics.SET)
    if bag is not None and bag_set is not None:
        if bag.equivalent and not bag_set.equivalent:
            raise AssertionError(
                "Proposition 6.1 violated: equivalent under bag semantics "
                "but not under bag-set semantics"
            )
    if bag_set is not None and set_ is not None:
        if bag_set.equivalent and not set_.equivalent:
            raise AssertionError(
                "Proposition 6.1 violated: equivalent under bag-set semantics "
                "but not under set semantics"
            )
