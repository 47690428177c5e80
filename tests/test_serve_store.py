"""Tests for the disk-backed chase-result store (src/repro/serve/store.py)
and the warm-state plumbing it rides on: ``Session.stats()`` and the
``Session(store=...)`` read-through/write-through path.
"""

from __future__ import annotations

import json

from repro.serve import ChaseStore, ReproClient, ReproServer, key_digest
from repro.session import Session


def _key(session: Session, query, semantics: str = "bag"):
    strategy = session.registry.resolve(semantics)
    return session._chase_key(query, strategy, session.max_steps)


# --------------------------------------------------------------------------- #
class TestKeyDigest:
    def test_digest_is_stable_and_alpha_invariant(self, ex41):
        session = Session(dependencies=ex41.dependencies)
        key = _key(session, ex41.q1)
        assert key_digest(key) == key_digest(key)
        # An alpha-renamed copy of Q1 canonicalizes to the same ChaseKey,
        # hence the same digest — the on-disk entry is shared.
        renamed, _ = ex41.q1.freshen()
        assert key_digest(_key(session, renamed)) == key_digest(key)

    def test_digest_distinguishes_semantics_and_queries(self, ex41):
        session = Session(dependencies=ex41.dependencies)
        digests = {
            key_digest(_key(session, query, semantics))
            for query in (ex41.q1, ex41.q4)
            for semantics in ("set", "bag")
        }
        assert len(digests) == 4

    def test_digest_survives_process_boundary(self, ex41):
        """The digest must not depend on PYTHONHASHSEED or intern uids.

        Simulated here by recomputing through a fresh Session (fresh
        canonicalization) rather than a fresh interpreter; the subprocess
        variant is covered by the CI smoke job's restart-warm assertion.
        """
        first = key_digest(_key(Session(dependencies=ex41.dependencies), ex41.q1))
        second = key_digest(_key(Session(dependencies=ex41.dependencies), ex41.q1))
        assert first == second


# --------------------------------------------------------------------------- #
class TestChaseStore:
    def test_round_trip(self, tmp_path, ex41):
        path = tmp_path / "store.jsonl"
        writer = Session(dependencies=ex41.dependencies, store=ChaseStore(path))
        writer.decide(ex41.q1, ex41.q4, "bag")
        writer.store.close()
        assert writer.store.stats()["writes"] >= 2

        reader = ChaseStore(path)
        assert len(reader) >= 2
        key = _key(Session(dependencies=ex41.dependencies), ex41.q1)
        restored = reader.get(key)
        assert restored is not None
        assert restored.terminated is True
        assert reader.stats()["hits"] == 1
        reader.close()

    def test_restart_serves_warm(self, tmp_path, ex41):
        """The acceptance criterion: after restart, request one is a store
        hit, not a cold chase (profile runs stay at zero)."""
        path = tmp_path / "store.jsonl"
        cold = Session(dependencies=ex41.dependencies, store=ChaseStore(path))
        verdict = cold.decide(ex41.q1, ex41.q4, "bag")
        cold_runs = cold.chase_profile().runs
        assert cold_runs >= 2
        cold.store.close()

        warm = Session(dependencies=ex41.dependencies, store=ChaseStore(path))
        assert warm.decide(ex41.q1, ex41.q4, "bag").equivalent == verdict.equivalent
        assert warm.chase_profile().runs == 0  # every chase came off disk
        assert warm.store.stats()["hits"] >= 2
        warm.store.close()

    def test_corrupted_lines_are_skipped(self, tmp_path, ex41):
        path = tmp_path / "store.jsonl"
        session = Session(dependencies=ex41.dependencies, store=ChaseStore(path))
        session.decide(ex41.q1, ex41.q4, "bag")
        session.store.close()

        good_lines = path.read_text().splitlines()
        path.write_text(
            "not json at all\n"
            + good_lines[0]
            + "\n"
            + json.dumps({"v": 999, "k": "deadbeef"})
            + "\n"
            + "\n".join(good_lines[1:])
            + "\n"
        )
        store = ChaseStore(path)
        assert store.corrupt_entries == 2
        assert len(store) == len(good_lines)
        store.close()

    def test_totally_corrupt_store_falls_back_to_cold(self, tmp_path, ex41):
        path = tmp_path / "store.jsonl"
        path.write_text("garbage\x00garbage\nmore garbage\n")
        session = Session(dependencies=ex41.dependencies, store=ChaseStore(path))
        assert session.store.corrupt_entries >= 1
        assert len(session.store) == 0
        # Decisions still work; they just chase cold and repopulate the file.
        assert session.decide(ex41.q1, ex41.q4, "set").equivalent is True
        assert session.store.stats()["writes"] >= 2
        session.store.close()

    def test_last_record_wins(self, tmp_path, ex41):
        path = tmp_path / "store.jsonl"
        session = Session(dependencies=ex41.dependencies, store=ChaseStore(path))
        session.decide(ex41.q1, ex41.q1, "set")
        session.store.close()
        lines = path.read_text().splitlines()
        # Duplicate every record; the store must load each key once.
        path.write_text("\n".join(lines + lines) + "\n")
        store = ChaseStore(path)
        assert len(store) == len({json.loads(line)["k"] for line in lines})
        store.close()


# --------------------------------------------------------------------------- #
class TestServedStore:
    def test_serve_shutdown_restart_warm(self, tmp_path, ex41):
        """End-to-end through the daemon: serve, stop, restart on the same
        store file — the restarted daemon's first decide is warm."""
        from repro.datalog import render_query

        path = tmp_path / "store.jsonl"
        q1, q4 = render_query(ex41.q1), render_query(ex41.q4)

        first = ReproServer(
            Session(dependencies=ex41.dependencies), port=0, store=ChaseStore(path)
        )
        with first.start_in_thread() as handle:
            with ReproClient(handle.host, handle.port) as client:
                client.decide(q1, q4, "bag")
                stats = client.stats()
                assert stats["store"]["writes"] >= 2
                assert stats["profile"]["runs"] >= 2  # cold chases happened

        second = ReproServer(
            Session(dependencies=ex41.dependencies), port=0, store=ChaseStore(path)
        )
        with second.start_in_thread() as handle:
            with ReproClient(handle.host, handle.port) as client:
                served = client.decide(q1, q4, "bag")
                assert served["equivalent"] is False
                stats = client.stats()
                assert stats["store"]["hits"] >= 2  # served from disk...
                assert stats["profile"]["runs"] == 0  # ...not re-chased
                assert client.health()["store"] is True


# --------------------------------------------------------------------------- #
class TestSessionStats:
    def test_sections_and_counters(self, ex41):
        session = Session(dependencies=ex41.dependencies)
        session.decide(ex41.q1, ex41.q4, "bag")
        session.decide(ex41.q1, ex41.q4, "bag")
        stats = session.stats()
        assert stats["chase_cache"]["hits"] >= 2
        assert stats["chase_cache"]["misses"] >= 2
        assert 0.0 <= stats["chase_cache"]["hit_rate"] <= 1.0
        assert stats["profile"]["runs"] == 2
        assert stats["intern"]["variables"] > 0
        assert "store" not in stats  # no store attached

    def test_store_section_present_when_attached(self, tmp_path, ex41):
        session = Session(
            dependencies=ex41.dependencies, store=ChaseStore(tmp_path / "s.jsonl")
        )
        stats = session.stats()
        assert stats["store"]["entries"] == 0
        session.store.close()

    def test_profile_as_dict_derivations(self, ex41):
        session = Session(dependencies=ex41.dependencies)
        session.decide(ex41.q1, ex41.q4, "bag")
        profile = session.chase_profile().as_dict()
        assert profile["steps"] == profile["tgd_steps"] + profile["egd_steps"]
        assert 0.0 <= profile["index_hit_rate"] <= 1.0
