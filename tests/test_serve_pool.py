"""Tests for the multi-worker engine pool (src/repro/serve/pool.py).

Everything here runs the real server on an event-loop thread with
``workers >= 2`` — real forked engine processes, real pipes — and drives
it over TCP.  The suite pins
the four behaviours the pool exists to provide:

* verdict agreement with a direct in-process :class:`Session` regardless
  of worker count;
* crash containment — killing a busy worker fails only the in-flight
  request (``worker-crashed``), a replacement spawns, and the next
  request succeeds;
* ``overloaded`` backpressure once the bounded in-flight queue is full;
* delta coherence — an ``apply-delta`` is visible to every worker before
  any later request, so concurrent clients never see a stale Σ.

The slow requests use a cyclic dependency set whose chase burns its step
budget (~3 ms per step here); a huge budget holds a worker busy for as
long as the test needs.
"""

from __future__ import annotations

import os
import signal
import threading
import time

import pytest

from repro.datalog import parse_dependencies, parse_query, render_query
from repro.datalog.render import render_dependency
from repro.dependencies.base import DependencySet
from repro.serve import ReproClient, ReproServer, ServerError
from repro.session import Session

#: Cyclic Σ: every chase over ``p`` runs to its step budget.
CYCLIC = "p(X,Y) -> p(Y,Z)"
#: A step budget that holds a worker busy for minutes — killed long before.
FOREVER = 100_000_000

SEMANTICS = ("set", "bag", "bag-set")


def _q(query) -> str:
    return render_query(query)


def _start(session: Session, **kwargs):
    return ReproServer(session, port=0, **kwargs).start_in_thread()


def _wait_until(predicate, timeout: float = 10.0, interval: float = 0.02):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


# --------------------------------------------------------------------------- #
class TestWireAgreement:
    @pytest.mark.parametrize("workers", [1, 4])
    def test_verdicts_match_direct_session(self, ex41, workers):
        """Example 4.1 verdicts over the wire equal direct Session calls,
        with the thread backend and with a real process pool alike."""
        direct = Session(dependencies=ex41.dependencies)
        with _start(
            Session(dependencies=ex41.dependencies), workers=workers
        ) as handle:
            with ReproClient(handle.host, handle.port) as client:
                health = client.health()
                assert health["workers"] == workers
                assert health["backend"] == (
                    "thread" if workers == 1 else "process"
                )
                for left, right in [
                    (ex41.q1, ex41.q4),
                    (ex41.q2, ex41.q3),
                    (ex41.q1, ex41.q2),
                ]:
                    for semantics in SEMANTICS:
                        served = client.decide(_q(left), _q(right), semantics)
                        expected = direct.decide(left, right, semantics)
                        assert served["equivalent"] == expected.equivalent, (
                            semantics,
                            _q(left),
                            _q(right),
                        )

    def test_concurrent_clients_spread_over_workers(self, ex41):
        direct = Session(dependencies=ex41.dependencies)
        expected = direct.decide(ex41.q1, ex41.q4, "set").equivalent
        with _start(Session(dependencies=ex41.dependencies), workers=4) as handle:
            results: list[object] = []
            lock = threading.Lock()

            def _client_run() -> None:
                with ReproClient(handle.host, handle.port) as client:
                    for _ in range(3):
                        got = client.decide(_q(ex41.q1), _q(ex41.q4), "set")
                        with lock:
                            results.append(got["equivalent"])

            threads = [threading.Thread(target=_client_run) for _ in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert results == [expected] * 18

            with ReproClient(handle.host, handle.port) as client:
                stats = client.stats()
            pool = stats["pool"]
            assert pool["workers"] == 4
            assert pool["requests_dispatched"] >= 18
            assert pool["crashes"] == 0
            # Per-worker snapshots merged plus listed individually.
            assert len(stats["workers"]) == 4
            assert sum(
                w["requests"] for w in stats["workers"] if "stats" in w
            ) >= 18

    def test_custom_semantics_rejected_for_process_pool(self, ex41):
        from repro.exceptions import SemanticsError
        from repro.session.strategies import SetStrategy

        class MySet(SetStrategy):
            name = "my-set"
            aliases = ()

        session = Session(dependencies=ex41.dependencies)
        session.register_semantics(MySet())
        with pytest.raises(SemanticsError, match="custom strateg"):
            ReproServer(session, port=0, workers=2)


# --------------------------------------------------------------------------- #
class TestCrashRespawn:
    def test_crash_mid_request_fails_only_that_request(self):
        """SIGKILL a busy worker: the in-flight request gets
        ``worker-crashed``, a replacement spawns, the next request works."""
        session = Session(
            dependencies=parse_dependencies(CYCLIC), max_steps=FOREVER
        )
        with _start(session, workers=2, timeout=120.0) as handle:
            backend = handle.server.backend
            before = set(backend.worker_pids())
            assert len(before) == 2

            errors: list[ServerError] = []

            def _slow_decide() -> None:
                with ReproClient(handle.host, handle.port, timeout=120.0) as c:
                    try:
                        c.decide("Q1(X) :- p(X,Y)", "Q2(X) :- p(X,Y), p(Y,Z)")
                    except ServerError as exc:
                        errors.append(exc)

            thread = threading.Thread(target=_slow_decide)
            thread.start()
            assert _wait_until(
                lambda: any(w.busy for w in backend._workers)
            ), "worker never became busy"
            busy_pids = [w.pid for w in backend._workers if w.busy]
            assert busy_pids
            os.kill(busy_pids[0], signal.SIGKILL)

            thread.join(timeout=30)
            assert not thread.is_alive()
            assert [exc.code for exc in errors] == ["worker-crashed"]

            # A replacement is (or is being) spawned; the pool heals to 2.
            assert _wait_until(lambda: len(backend.worker_pids()) == 2)
            after = set(backend.worker_pids())
            assert busy_pids[0] not in after
            assert backend.crashes == 1
            assert backend.respawns == 1

            # The daemon survives: the next request succeeds (r/1 is
            # untouched by the cyclic Σ, so no chase step is needed).
            with ReproClient(handle.host, handle.port) as client:
                verdict = client.decide("Q(X) :- r(X)", "Q(X) :- r(X)", "set")
                assert verdict["equivalent"] is True


# --------------------------------------------------------------------------- #
class TestOverloaded:
    def test_saturated_queue_rejects_with_overloaded(self):
        session = Session(
            dependencies=parse_dependencies(CYCLIC), max_steps=FOREVER
        )
        with _start(
            session, workers=2, max_inflight=2, timeout=120.0
        ) as handle:
            backend = handle.server.backend

            def _slow_decide() -> None:
                with ReproClient(handle.host, handle.port, timeout=120.0) as c:
                    try:
                        c.decide("Q1(X) :- p(X,Y)", "Q2(X) :- p(X,Y), p(Y,Z)")
                    except (ServerError, Exception):
                        pass  # killed at teardown; outcome is irrelevant

            threads = [threading.Thread(target=_slow_decide) for _ in range(2)]
            for thread in threads:
                thread.start()
            assert _wait_until(lambda: backend._inflight >= 2), (
                "both slow requests should be in flight"
            )

            with ReproClient(handle.host, handle.port) as client:
                with pytest.raises(ServerError) as excinfo:
                    client.decide("Q(X) :- r(X)", "Q(X) :- r(X)")
            assert excinfo.value.code == "overloaded"
            assert backend.overloaded_rejections >= 1

            # Teardown kills the busy workers; the client threads see their
            # connections drop, which is fine — join them after stop().
            handle.stop()
            for thread in threads:
                thread.join(timeout=10)


# --------------------------------------------------------------------------- #
class TestDeltaCoherence:
    def test_apply_delta_visible_to_all_workers(self, ex41):
        """Start on a Σ-prefix where Q1 ≢set Q4, apply the missing
        dependencies over the wire, then hammer the pool from concurrent
        clients: every worker must answer with the post-delta Σ."""
        full = ex41.dependencies
        deps = list(full.dependencies)
        prefix = DependencySet(deps[:3], ())
        direct_full = Session(dependencies=full)

        with _start(Session(dependencies=prefix), workers=4) as handle:
            with ReproClient(handle.host, handle.port) as client:
                assert client.decide(_q(ex41.q1), _q(ex41.q4), "set")[
                    "equivalent"
                ] is False  # prefix Σ: the paper's equivalence is not yet derivable

                result = client.apply_delta(
                    _q(ex41.q1),
                    add_dependencies="\n".join(
                        render_dependency(dep) for dep in deps[3:]
                    ),
                    set_valued=sorted(full.set_valued_predicates),
                    semantics="set",
                )
                assert result["sigma_version"] == 1
                assert result["workers_applied"] == 4

            outcomes: list[tuple[str, object]] = []
            lock = threading.Lock()

            def _client_run() -> None:
                with ReproClient(handle.host, handle.port) as client:
                    for semantics in SEMANTICS:
                        got = client.decide(
                            _q(ex41.q1), _q(ex41.q4), semantics
                        )
                        with lock:
                            outcomes.append((semantics, got["equivalent"]))

            threads = [threading.Thread(target=_client_run) for _ in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)

            assert len(outcomes) == 18
            for semantics, equivalent in outcomes:
                expected = direct_full.decide(ex41.q1, ex41.q4, semantics)
                assert equivalent == expected.equivalent, semantics

            with ReproClient(handle.host, handle.port) as client:
                stats = client.stats()
            versions = [
                w["sigma_version"] for w in stats["workers"] if "stats" in w
            ]
            assert versions == [1, 1, 1, 1]
            assert stats["pool"]["sigma_version"] == 1


# --------------------------------------------------------------------------- #
class TestMergeStats:
    def test_numeric_leaves_sum_and_bools_or(self):
        from repro.session.engine import merge_stats

        merged = merge_stats(
            [
                {"cache": {"hits": 2, "misses": 3, "resumable": False}},
                {"cache": {"hits": 5, "misses": 1, "resumable": True}},
            ]
        )
        assert merged["cache"]["hits"] == 7
        assert merged["cache"]["misses"] == 4
        assert merged["cache"]["resumable"] is True

    def test_hit_rate_recomputed_from_summed_counts(self):
        from repro.session.engine import merge_stats

        merged = merge_stats(
            [
                {"cache": {"hits": 1, "misses": 3, "hit_rate": 0.25}},
                {"cache": {"hits": 3, "misses": 1, "hit_rate": 0.75}},
            ]
        )
        assert merged["cache"]["hit_rate"] == pytest.approx(0.5)

    def test_non_numeric_values_keep_first(self):
        from repro.session.engine import merge_stats

        merged = merge_stats(
            [
                {"session": {"default_semantics": "bag-set", "ops": 1}},
                {"session": {"default_semantics": "set", "ops": 2}},
            ]
        )
        assert merged["session"]["default_semantics"] == "bag-set"
        assert merged["session"]["ops"] == 3

    def test_empty_input_merges_to_empty(self):
        from repro.session.engine import merge_stats

        assert merge_stats([]) == {}


# --------------------------------------------------------------------------- #
class TestStoreWarmWorkers:
    def test_workers_warm_from_shared_store(self, ex41, tmp_path):
        """Every worker opens its own handle on the store path; chases run
        before the pool existed are disk hits inside the workers."""
        from repro.serve import ChaseStore

        store_path = tmp_path / "chase.store"
        warm = Session(dependencies=ex41.dependencies)
        warm.set_store(ChaseStore(store_path))
        for semantics in SEMANTICS:
            warm.decide(ex41.q1, ex41.q4, semantics)
        warm.store.close()

        session = Session(dependencies=ex41.dependencies)
        with _start(
            session, workers=2, store=ChaseStore(store_path)
        ) as handle:
            with ReproClient(handle.host, handle.port) as client:
                for semantics in SEMANTICS:
                    got = client.decide(_q(ex41.q1), _q(ex41.q4), semantics)
                    direct = Session(dependencies=ex41.dependencies).decide(
                        ex41.q1, ex41.q4, semantics
                    )
                    assert got["equivalent"] == direct.equivalent
                stats = client.stats()
        store_hits = sum(
            w["stats"].get("store", {}).get("hits", 0)
            for w in stats["workers"]
            if "stats" in w
        )
        assert store_hits > 0, "workers should warm from the shared store"
