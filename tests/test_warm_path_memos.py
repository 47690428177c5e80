"""Tests for the warm-path memos of a repeat decide.

Three bounded memos let a repeat ``decide`` skip every step after the chase
lookup: the text → query memo and the render memo at the
:mod:`repro.serve.ops` boundary, and the Session's verdict memo of the
dependency-free test.  The suite pins that a repeat does no parsing and no
verdict test, that its wire answer is byte-identical, that no Σ change,
strategy replacement or cache clear ever serves a stale verdict, that parse
errors are never memoized, and that every memo stays within its bound.
"""

from __future__ import annotations

import json
import socket

import pytest

from repro.chase.incremental import ChaseDelta
from repro.datalog import parse_query, render_query
from repro.dependencies.base import DependencySet
from repro.serve import ReproClient, ReproServer, ServerError, ops
from repro.serve.protocol import ProtocolError
from repro.session import BagStrategy, Session
from repro.session.engine import merge_stats


def _q(query) -> str:
    return render_query(query)


@pytest.fixture(autouse=True)
def _empty_memos():
    """Start each test from empty module-level memos (they are process-wide)."""
    ops._parse_memo.cache_clear()
    ops._render_memo.cache_clear()
    yield
    ops._parse_memo.cache_clear()
    ops._render_memo.cache_clear()


class _Spy:
    """Counts calls to a wrapped callable."""

    def __init__(self, function):
        self.function = function
        self.calls = 0

    def __call__(self, *args, **kwargs):
        self.calls += 1
        return self.function(*args, **kwargs)


def _decide_params(ex41, semantics="bag"):
    return {"query": _q(ex41.q3), "other": _q(ex41.q4), "semantics": semantics}


# --------------------------------------------------------------------------- #
class TestRepeatDecideSkipsWork:
    def test_second_decide_neither_parses_nor_tests(self, ex41, monkeypatch):
        session = Session(dependencies=ex41.dependencies)
        strategy = session.strategy_for("bag")
        verdict_spy = _Spy(strategy.equivalent_chased)
        parse_spy = _Spy(ops.parse_query)
        render_spy = _Spy(ops.render_query)
        monkeypatch.setattr(strategy, "equivalent_chased", verdict_spy)
        monkeypatch.setattr(ops, "parse_query", parse_spy)
        monkeypatch.setattr(ops, "render_query", render_spy)

        first = ops.execute_op(session, "decide", _decide_params(ex41))
        assert (verdict_spy.calls, parse_spy.calls, render_spy.calls) == (1, 2, 2)
        second = ops.execute_op(session, "decide", _decide_params(ex41))
        assert (verdict_spy.calls, parse_spy.calls, render_spy.calls) == (1, 2, 2)
        assert second == first
        assert first["equivalent"] is True

    def test_repeat_batch_neither_parses_nor_tests(self, ex41, monkeypatch):
        session = Session(dependencies=ex41.dependencies)
        strategy = session.strategy_for("bag")
        verdict_spy = _Spy(strategy.equivalent_chased)
        parse_spy = _Spy(ops.parse_query)
        monkeypatch.setattr(strategy, "equivalent_chased", verdict_spy)
        monkeypatch.setattr(ops, "parse_query", parse_spy)
        params = {
            "pairs": [[_q(ex41.q3), _q(ex41.q4)], [_q(ex41.q1), _q(ex41.q4)]],
            "semantics": "bag",
        }
        first = ops.execute_op(session, "batch", params)
        assert (verdict_spy.calls, parse_spy.calls) == (2, 3)
        assert ops.execute_op(session, "batch", params) == first
        assert (verdict_spy.calls, parse_spy.calls) == (2, 3)

    def test_session_decide_reuses_verdict(self, ex41, monkeypatch):
        session = Session(dependencies=ex41.dependencies)
        strategy = session.strategy_for("bag-set")
        spy = _Spy(strategy.equivalent_chased)
        monkeypatch.setattr(strategy, "equivalent_chased", spy)
        first = session.decide(ex41.q2, ex41.q4, "bag-set")
        second = session.decide(ex41.q2, ex41.q4, "bag-set")
        assert spy.calls == 1
        assert bool(first) is bool(second) is True
        verdicts = session.stats()["verdict_cache"]
        assert (verdicts["hits"], verdicts["misses"], verdicts["size"]) == (1, 1, 1)

    def test_wire_answers_are_byte_identical(self, ex41):
        line = (
            json.dumps({"id": 7, "op": "decide", "params": _decide_params(ex41)})
            + "\n"
        ).encode()
        server = ReproServer(Session(dependencies=ex41.dependencies), port=0)
        with server.start_in_thread() as handle:
            with socket.create_connection((handle.host, handle.port), timeout=10) as sock:
                stream = sock.makefile("rwb")
                answers = []
                for _ in range(3):
                    stream.write(line)
                    stream.flush()
                    answers.append(stream.readline())
        assert answers[0] == answers[1] == answers[2]
        assert json.loads(answers[0])["result"]["equivalent"] is True


# --------------------------------------------------------------------------- #
class TestNoStaleVerdict:
    """Example 4.1: Q3 ≡bag Q4 under Σ, but not under an empty Σ."""

    def _bag(self, session, ex41) -> bool:
        return bool(session.decide(ex41.q3, ex41.q4, "bag"))

    def test_set_dependencies_flips_verdict(self, ex41):
        session = Session(dependencies=ex41.dependencies)
        assert self._bag(session, ex41) is True
        session.set_dependencies(DependencySet())
        assert self._bag(session, ex41) is False
        session.set_dependencies(ex41.dependencies)
        assert self._bag(session, ex41) is True

    def test_marker_only_sigma_change_flips_verdict(self):
        # Same chased queries before and after (no dependencies to chase
        # with), so only clearing the memo on a Σ change keeps this right:
        # the bag test reads Σ's set-valued markers (Theorem 4.2).
        doubled = parse_query("Q(X) :- t(X,Y), t(X,Y)")
        single = parse_query("Q(X) :- t(X,Y)")
        session = Session()
        assert bool(session.decide(doubled, single, "bag")) is False
        session.set_dependencies(DependencySet([], set_valued_predicates=["t"]))
        assert bool(session.decide(doubled, single, "bag")) is True
        session.set_dependencies(DependencySet())
        assert bool(session.decide(doubled, single, "bag")) is False

    def test_apply_delta_flips_verdict(self, ex41):
        session = Session()
        assert self._bag(session, ex41) is False
        session.apply_delta(
            ex41.q3,
            ChaseDelta(
                added_dependencies=tuple(ex41.dependencies),
                set_valued=frozenset(ex41.dependencies.set_valued_predicates),
            ),
            "bag",
        )
        assert self._bag(session, ex41) is True
        session.apply_delta(
            ex41.q3,
            ChaseDelta(removed_dependencies=tuple(session.dependencies)),
            "bag",
        )
        assert self._bag(session, ex41) is False

    def test_replacing_strategy_flips_verdict(self, ex41):
        class Contrary(BagStrategy):
            """Same name and cache token as the built-in, opposite verdict."""

            def cache_token(self):
                return BagStrategy().cache_token()

            def equivalent_chased(self, chased1, chased2, dependencies):
                return not super().equivalent_chased(chased1, chased2, dependencies)

        session = Session(dependencies=ex41.dependencies)
        assert self._bag(session, ex41) is True
        session.register_semantics(Contrary(), replace=True)
        assert self._bag(session, ex41) is False

    def test_clear_cache_flips_verdict(self, ex41, monkeypatch):
        session = Session(dependencies=ex41.dependencies)
        assert self._bag(session, ex41) is True
        strategy = session.strategy_for("bag")
        monkeypatch.setattr(strategy, "equivalent_chased", lambda *args: False)
        assert self._bag(session, ex41) is True  # memoized
        session.clear_cache()
        assert self._bag(session, ex41) is False
        assert session.stats()["verdict_cache"]["invalidations"] == 1


# --------------------------------------------------------------------------- #
class TestParseErrorsAndBounds:
    def test_malformed_text_is_never_memoized(self, ex41):
        session = Session(dependencies=ex41.dependencies)
        params = {"query": "Q(X) :- p(X,", "other": _q(ex41.q4)}
        for _ in range(3):
            with pytest.raises(ProtocolError) as caught:
                ops.execute_op(session, "decide", params)
            assert caught.value.code == "parse-error"
        assert ops._parse_memo.cache_info().currsize == 0

    def test_malformed_text_over_the_wire(self, ex41):
        server = ReproServer(Session(dependencies=ex41.dependencies), port=0)
        with server.start_in_thread() as handle:
            with ReproClient(handle.host, handle.port) as client:
                for _ in range(3):
                    with pytest.raises(ServerError) as caught:
                        client.decide("Q(X) :- p(X,", _q(ex41.q4))
                    assert caught.value.code == "parse-error"

    def test_text_and_render_memos_stay_bounded(self):
        bound = ops.MEMO_SIZE
        for index in range(bound + 50):
            query = ops._parse_memo(f"Q(X) :- p{index}(X)")
            ops._render_memo(query)
        for memo in (ops._parse_memo, ops._render_memo):
            info = memo.cache_info()
            assert info.maxsize == bound
            assert info.currsize == bound

    def test_verdict_memo_stays_bounded(self):
        session = Session(cache_size=2)
        queries = [parse_query(f"Q(X) :- p{index}(X)") for index in range(5)]
        for left in queries:
            for right in queries:
                session.decide(left, right, "set")
        verdicts = session.stats()["verdict_cache"]
        assert verdicts["size"] == 2
        assert verdicts["evictions"] == verdicts["misses"] - 2


# --------------------------------------------------------------------------- #
class TestStats:
    def test_serve_stats_report_memo_counters(self, ex41):
        server = ReproServer(Session(dependencies=ex41.dependencies), port=0)
        with server.start_in_thread() as handle:
            with ReproClient(handle.host, handle.port) as client:
                for _ in range(3):
                    client.decide(_q(ex41.q3), _q(ex41.q4), "bag")
                stats = client.stats()
        assert stats["serve_memos"] == {
            "parse_hits": 4,
            "parse_misses": 2,
            "parse_size": 2,
            "render_hits": 4,
            "render_misses": 2,
            "render_size": 2,
        }
        verdicts = stats["verdict_cache"]
        assert (verdicts["hits"], verdicts["misses"], verdicts["size"]) == (2, 1, 1)

    def test_merge_sums_memo_sections(self, ex41):
        session = Session(dependencies=ex41.dependencies)
        for _ in range(2):
            ops.execute_op(session, "decide", _decide_params(ex41))
        snapshot = ops.stats_snapshot(session)
        merged = merge_stats([snapshot, snapshot])
        for section in ("verdict_cache", "serve_memos"):
            for key, value in snapshot[section].items():
                assert merged[section][key] == 2 * value
