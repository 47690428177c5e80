"""Engine backends for the serve daemon: one thread, or N worker processes.

The acceptor (:class:`~repro.serve.server.ReproServer`) never chases; it
hands every CPU-bound op to an **engine backend**:

* :class:`ThreadEngineBackend` — the classic single-process shape: one
  worker thread serializes all engine work through one shared
  :class:`~repro.session.Session` (hot caches, no locks).
* :class:`ProcessEngineBackend` — ``--workers N``: a pool of long-lived
  engine *processes*, each owning a full Session, spoken to over
  ``multiprocessing`` pipes.  One slow chase no longer serializes every
  other client.

Both backends expose the same tiny surface (``start`` / ``dispatch`` /
``stats_snapshot`` / ``aclose``) and both execute ops through
:func:`repro.serve.ops.execute_op`, so a request is answered identically no
matter which backend served it.

The process pool's design points:

* **Warm starts.**  Each worker opens its own handle on the digest-keyed
  disk :class:`~repro.serve.store.ChaseStore`, so a fresh worker's first
  request is a store hit, not a cold chase.
* **Backpressure.**  Client requests beyond ``max_inflight`` are refused
  immediately with a structured ``overloaded`` error instead of queueing
  without bound.
* **Crash containment.**  A worker dying mid-request fails *that* request
  with ``worker-crashed``, and a replacement is spawned in its slot; the
  daemon survives.
* **Delta coherence.**  ``apply-delta`` is a monotonically versioned
  broadcast: the delta is sent to every worker, the pool waits for all
  acks before answering, and the versioned delta log is replayed into
  every respawned worker — so a decide following a delta sees the new Σ
  on whichever worker serves it (pipes are FIFO, so a request sent after
  the delta cannot overtake it).
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import contextlib
import itertools
import multiprocessing
import multiprocessing.connection
import os
import signal
import sys
import threading
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Protocol

from ..dependencies.base import DependencySet
from ..exceptions import ReproError
from ..session import Session
from ..session.engine import merge_stats
from .ops import error_payload_for, execute_op, stats_snapshot
from .protocol import ERROR_CODES, ProtocolError

__all__ = [
    "EngineBackend",
    "ProcessEngineBackend",
    "RemoteEngineError",
    "ThreadEngineBackend",
    "WorkerSpec",
]

#: Default in-flight bound per worker when ``max_inflight`` is not given:
#: enough to keep every worker busy with a short queue behind it, small
#: enough that a stall surfaces as ``overloaded`` instead of unbounded RAM.
DEFAULT_QUEUE_DEPTH = 32

#: Join budget (seconds) granted to a worker at shutdown before escalating
#: from the cooperative stop message to SIGTERM and then SIGKILL.
_STOP_JOIN_TIMEOUT = 2.0


class RemoteEngineError(ReproError):
    """A structured error produced by (or about) an engine worker process.

    Carries a stable protocol ``code`` plus optional ``detail`` keys, exactly
    what :func:`repro.serve.protocol.error_response` needs; the acceptor's
    response path turns it straight into the wire error.
    """

    def __init__(self, code: str, message: str, detail: dict[str, Any] | None = None):
        if code not in ERROR_CODES:  # pragma: no cover - developer error
            raise ValueError(f"unknown protocol error code {code!r}")
        super().__init__(message)
        self.code = code
        self.detail = dict(detail or {})


class EngineBackend(Protocol):
    """What the acceptor needs from an engine backend."""

    kind: str

    async def start(self) -> None: ...

    async def dispatch(self, op: str, params: dict[str, Any]) -> dict[str, Any]: ...

    async def stats_snapshot(self) -> dict[str, Any]: ...

    async def aclose(self) -> None: ...

    @property
    def dependency_count(self) -> int: ...


# --------------------------------------------------------------------------- #
# Single-thread backend
# --------------------------------------------------------------------------- #
class ThreadEngineBackend:
    """Engine ops on one worker thread over one shared Session.

    One worker, deliberately: all engine work is serialized, so the shared
    Session (and the process-wide intern tables underneath it) needs no
    locking, and concurrent clients share the hot chase/plan caches at
    request granularity.
    """

    kind = "thread"

    def __init__(self, session: Session):
        self.session = session
        self._executor = concurrent.futures.ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-serve-engine"
        )

    async def start(self) -> None:  # nothing to spawn
        return None

    async def dispatch(self, op: str, params: dict[str, Any]) -> dict[str, Any]:
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(
            self._executor, execute_op, self.session, op, params
        )

    async def stats_snapshot(self) -> dict[str, Any]:
        return stats_snapshot(self.session)

    @property
    def dependency_count(self) -> int:
        return len(self.session.dependencies)

    async def aclose(self) -> None:
        self._executor.shutdown(wait=True, cancel_futures=True)


# --------------------------------------------------------------------------- #
# Worker process side
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class WorkerSpec:
    """Everything a worker process needs to build its Session (picklable)."""

    dependencies: DependencySet
    max_steps: int
    default_semantics: Any
    precheck: str | None = None
    store_path: str | None = None
    cache_size: int = 4096


def _worker_main(
    conn: "multiprocessing.connection.Connection", spec: WorkerSpec
) -> None:
    """The engine worker loop: recv op, execute, send result; forever.

    Messages in: ``("req", rid, op, params, version)`` and ``("stop",)``.
    Messages out: ``("ready", pid)``, ``("ok", rid, result)``,
    ``("err", rid, code, message, detail)``.
    """
    # The parent's asyncio signal handlers were inherited across the fork;
    # restore defaults so terminate() actually terminates a worker stuck in
    # a long chase, and Ctrl-C is handled by the parent alone.
    with contextlib.suppress(Exception):
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        signal.set_wakeup_fd(-1)

    store = None
    if spec.store_path is not None:
        from .store import ChaseStore

        store = ChaseStore(spec.store_path)
    session = Session(
        dependencies=spec.dependencies,
        default_semantics=spec.default_semantics,
        max_steps=spec.max_steps,
        cache_size=spec.cache_size,
        store=store,
        precheck=spec.precheck,
        chase_resumable=True,
    )
    requests = 0
    sigma_version = 0
    try:
        conn.send(("ready", os.getpid()))
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                break
            if message[0] == "stop":
                break
            _, rid, op, params, version = message
            if op == "stats":
                snapshot = stats_snapshot(session)
                snapshot["worker"] = {
                    "pid": os.getpid(),
                    "requests": requests,
                    "sigma_version": sigma_version,
                }
                conn.send(("ok", rid, snapshot))
                continue
            try:
                result = execute_op(session, op, params)
            except Exception as exc:
                payload = error_payload_for(exc)
                if payload is None:
                    payload = ("internal", f"{type(exc).__name__}: {exc}", {})
                    print(
                        f"repro serve worker: internal error on op {op!r}: "
                        f"{type(exc).__name__}: {exc}",
                        file=sys.stderr,
                    )
                code, message_text, detail = payload
                conn.send(("err", rid, code, message_text, detail))
            else:
                requests += 1
                if op == "apply-delta" and version is not None:
                    sigma_version = version
                conn.send(("ok", rid, result))
    except (BrokenPipeError, OSError):  # parent vanished; nothing to tell it
        pass
    finally:
        if store is not None:
            store.close()
        with contextlib.suppress(Exception):
            conn.close()


# --------------------------------------------------------------------------- #
# Parent (acceptor) side
# --------------------------------------------------------------------------- #
@dataclass
class _Worker:
    """Parent-side bookkeeping for one engine process."""

    slot: int
    process: Any
    conn: "multiprocessing.connection.Connection"
    pid: int | None = None
    ready: bool = False
    closing: bool = False
    requests_sent: int = 0
    #: Version of the last delta *sent* down this worker's pipe.  Invariant
    #: (all mutation happens on the event loop): every worker's pipe has
    #: seen every logged delta, in order.
    sent_version: int = 0
    #: rid -> (op, future) of requests awaiting this worker's answer.
    outstanding: dict[int, tuple[str, "asyncio.Future[Any]"]] = field(
        default_factory=dict
    )
    thread: threading.Thread | None = None

    @property
    def busy(self) -> bool:
        """Is an engine op (anything but a stats probe) outstanding?"""
        return any(op != "stats" for op, _ in self.outstanding.values())


class ProcessEngineBackend:
    """N long-lived engine processes behind one asyncio acceptor.

    All state below is mutated only on the event loop: the per-worker reader
    threads do nothing but ``conn.recv()`` and repost messages via
    ``call_soon_threadsafe``.
    """

    kind = "process"

    def __init__(
        self,
        spec: WorkerSpec,
        workers: int,
        *,
        max_inflight: int | None = None,
    ):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.spec = spec
        self.workers_target = workers
        self.max_inflight = (
            max_inflight if max_inflight and max_inflight > 0
            else workers * DEFAULT_QUEUE_DEPTH
        )
        self._workers: list[_Worker] = []
        self._pending: deque[tuple[str, dict[str, Any], "asyncio.Future[Any]"]] = deque()
        self._rids = itertools.count(1)
        self._loop: asyncio.AbstractEventLoop | None = None
        self._delta_lock: asyncio.Lock | None = None
        self._closing = False
        self._inflight = 0
        self._sigma_version = 0
        self._delta_log: list[dict[str, Any]] = []
        self.dependency_count = len(spec.dependencies)
        # Observability counters (surfaced on the stats op as the "pool"
        # section).
        self.crashes = 0
        self.respawns = 0
        self.overloaded_rejections = 0
        self.deltas_broadcast = 0
        self.requests_dispatched = 0

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    async def start(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._delta_lock = asyncio.Lock()
        for slot in range(self.workers_target):
            self._workers.append(self._spawn_worker(slot))

    async def aclose(self) -> None:
        self._closing = True
        for worker in self._workers:
            worker.closing = True
            with contextlib.suppress(Exception):
                worker.conn.send(("stop",))
        for worker in self._workers:
            worker.process.join(timeout=_STOP_JOIN_TIMEOUT)
            if worker.process.is_alive():
                with contextlib.suppress(Exception):
                    worker.process.terminate()
                worker.process.join(timeout=1.0)
            if worker.process.is_alive():  # stuck mid-chase with inherited handlers
                with contextlib.suppress(Exception):
                    worker.process.kill()
                worker.process.join(timeout=1.0)
            with contextlib.suppress(Exception):
                worker.conn.close()
            for _, future in worker.outstanding.values():
                if not future.done():
                    future.cancel()
            worker.outstanding.clear()
        self._workers.clear()
        while self._pending:
            _, _, future = self._pending.popleft()
            if not future.done():
                future.cancel()

    def _spawn_worker(self, slot: int) -> _Worker:
        assert self._loop is not None
        parent_conn, child_conn = multiprocessing.Pipe()
        process = multiprocessing.Process(
            target=_worker_main,
            args=(child_conn, self.spec),
            name=f"repro-serve-worker-{slot}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        worker = _Worker(slot=slot, process=process, conn=parent_conn, pid=process.pid)
        # Catch a fresh (or respawned) worker up to the pool's Σ before it
        # can serve anything: replay the whole versioned delta log down its
        # pipe.  FIFO ordering makes any request sent afterwards see the
        # post-delta state.
        for version, params in enumerate(self._delta_log, start=1):
            self._send_internal(worker, "apply-delta", params, version)
        worker.sent_version = self._sigma_version
        thread = threading.Thread(
            target=self._read_loop,
            args=(worker,),
            name=f"repro-serve-reader-{slot}",
            daemon=True,
        )
        worker.thread = thread
        thread.start()
        return worker

    # ------------------------------------------------------------------ #
    # Reader threads → event loop
    # ------------------------------------------------------------------ #
    def _read_loop(self, worker: _Worker) -> None:
        assert self._loop is not None
        while True:
            try:
                message = worker.conn.recv()
            except (EOFError, OSError):
                break
            try:
                self._loop.call_soon_threadsafe(self._on_message, worker, message)
            except RuntimeError:  # loop already closed (shutdown race)
                return
        with contextlib.suppress(RuntimeError):
            self._loop.call_soon_threadsafe(self._on_death, worker)

    def _on_message(self, worker: _Worker, message: tuple[Any, ...]) -> None:
        kind = message[0]
        if kind == "ready":
            worker.ready = True
            worker.pid = message[1]
            self._pump()
            return
        rid = message[1]
        entry = worker.outstanding.pop(rid, None)
        if entry is None:
            return  # late answer to a request whose future was cancelled
        _, future = entry
        if not future.done():
            if kind == "ok":
                future.set_result(message[2])
            else:
                _, _, code, message_text, detail = message
                future.set_exception(RemoteEngineError(code, message_text, detail))
        self._pump()

    def _on_death(self, worker: _Worker) -> None:
        """A worker's pipe hit EOF: crash it out and respawn, unless closing."""
        if self._closing or worker.closing or worker not in self._workers:
            return
        self.crashes += 1
        error = RemoteEngineError(
            "worker-crashed",
            f"engine worker (pid {worker.pid}) died mid-request; "
            "a replacement has been spawned",
        )
        for _, future in worker.outstanding.values():
            if not future.done():
                future.set_exception(error)
        worker.outstanding.clear()
        self._replace_worker(worker, already_dead=True)
        self._pump()

    def _replace_worker(self, worker: _Worker, *, already_dead: bool = False) -> None:
        """Remove *worker* and spawn a fresh process in its slot."""
        if worker not in self._workers:
            return
        worker.closing = True  # the reader-thread death callback must no-op
        self._workers.remove(worker)
        with contextlib.suppress(Exception):
            worker.conn.close()
        if not already_dead:
            with contextlib.suppress(Exception):
                worker.process.terminate()
        error = RemoteEngineError(
            "worker-crashed",
            f"engine worker (pid {worker.pid}) was replaced mid-request",
        )
        for _, future in worker.outstanding.values():
            if not future.done():
                future.set_exception(error)
        worker.outstanding.clear()
        self._workers.append(self._spawn_worker(worker.slot))
        self._workers.sort(key=lambda w: w.slot)
        self.respawns += 1

    # ------------------------------------------------------------------ #
    # Dispatch
    # ------------------------------------------------------------------ #
    async def dispatch(self, op: str, params: dict[str, Any]) -> dict[str, Any]:
        assert self._loop is not None
        if op == "apply-delta":
            # Shielded: a client timeout must not abandon a half-broadcast
            # delta (some workers applied it, some did not) — the broadcast
            # runs to completion and settles the log either way.
            task = self._loop.create_task(self._broadcast_delta(params))
            task.add_done_callback(_retrieve_exception)
            return await asyncio.shield(task)
        if self._inflight >= self.max_inflight:
            self.overloaded_rejections += 1
            raise ProtocolError(
                "overloaded",
                f"engine pool is saturated ({self._inflight} requests in "
                f"flight, limit {self.max_inflight}); retry later",
            )
        future: "asyncio.Future[Any]" = self._loop.create_future()
        self._inflight += 1
        self.requests_dispatched += 1
        future.add_done_callback(self._release_inflight)
        self._pending.append((op, params, future))
        self._pump()
        return await future

    def _release_inflight(self, _future: "asyncio.Future[Any]") -> None:
        self._inflight = max(0, self._inflight - 1)

    def _pump(self) -> None:
        """Assign queued requests to idle, ready workers (loop thread only)."""
        if not self._pending:
            return
        for worker in self._workers:
            if not self._pending:
                return
            if not worker.ready or worker.closing or worker.busy:
                continue
            op, params, future = self._pending.popleft()
            if future.done():  # cancelled while queued (e.g. request timeout)
                continue
            self._send_request(worker, op, params, None, future)

    def _send_request(
        self,
        worker: _Worker,
        op: str,
        params: dict[str, Any],
        version: int | None,
        future: "asyncio.Future[Any]",
    ) -> None:
        rid = next(self._rids)
        worker.outstanding[rid] = (op, future)
        worker.requests_sent += 1
        try:
            worker.conn.send(("req", rid, op, params, version))
        except (OSError, ValueError):
            # Dead pipe: the reader thread will schedule _on_death too, but
            # fail this request immediately rather than waiting for it.
            worker.outstanding.pop(rid, None)
            if not future.done():
                future.set_exception(
                    RemoteEngineError(
                        "worker-crashed",
                        f"engine worker (pid {worker.pid}) is gone; "
                        "a replacement is being spawned",
                    )
                )

    def _send_internal(
        self, worker: _Worker, op: str, params: dict[str, Any], version: int | None
    ) -> None:
        """Send a pool-internal request (delta replay/coverage) to *worker*."""
        assert self._loop is not None
        future: "asyncio.Future[Any]" = self._loop.create_future()
        future.add_done_callback(_log_internal_failure)
        self._send_request(worker, op, params, version, future)

    # ------------------------------------------------------------------ #
    # Delta broadcast
    # ------------------------------------------------------------------ #
    async def _broadcast_delta(self, params: dict[str, Any]) -> dict[str, Any]:
        assert self._delta_lock is not None and self._loop is not None
        async with self._delta_lock:
            version = self._sigma_version + 1
            entries: list[tuple[_Worker, "asyncio.Future[Any]"]] = []
            for worker in list(self._workers):
                future = self._loop.create_future()
                self._send_request(worker, "apply-delta", params, version, future)
                worker.sent_version = version
                entries.append((worker, future))
            if not entries:  # pragma: no cover - pool can't be empty outside aclose
                raise RemoteEngineError("internal", "no engine workers alive")
            results = await asyncio.gather(
                *(future for _, future in entries), return_exceptions=True
            )
            designated = results[0]
            if isinstance(designated, BaseException):
                # The pool's Σ does not advance.  Any worker that *did* apply
                # the delta has diverged from the log and is replaced (its
                # replacement replays the log, which excludes this delta).
                for (worker, _), outcome in zip(entries, results):
                    if not isinstance(outcome, BaseException):
                        self._replace_worker(worker)
                if isinstance(designated, Exception):
                    raise designated
                raise RemoteEngineError(  # pragma: no cover - defensive
                    "worker-crashed", f"delta broadcast failed: {designated!r}"
                )
            self._sigma_version = version
            self._delta_log.append(dict(params))
            self.deltas_broadcast += 1
            applied = 0
            for (worker, _), outcome in zip(entries, results):
                if isinstance(outcome, BaseException):
                    # Deterministic engines should agree; a straggler that
                    # failed (or crashed and was respawned mid-broadcast) is
                    # brought back in line by a fresh process + full replay.
                    self._replace_worker(worker)
                else:
                    applied += 1
            self._ensure_delta_coverage()
            result = dict(designated)
            if isinstance(result.get("dependencies"), int):
                self.dependency_count = result["dependencies"]
            result["sigma_version"] = version
            result["workers_applied"] = applied
            return result

    def _ensure_delta_coverage(self) -> None:
        """Send any logged deltas a worker's pipe has not seen yet.

        Covers the race where a worker crashed during a broadcast: its
        replacement was spawned (and replayed the log) *before* the new
        delta was logged, so the replacement's pipe is one version behind.
        """
        for worker in self._workers:
            for version in range(worker.sent_version + 1, self._sigma_version + 1):
                self._send_internal(
                    worker, "apply-delta", self._delta_log[version - 1], version
                )
            worker.sent_version = self._sigma_version

    # ------------------------------------------------------------------ #
    # Stats
    # ------------------------------------------------------------------ #
    async def stats_snapshot(self, timeout: float = 2.0) -> dict[str, Any]:
        """Per-worker snapshots plus the merged cross-worker view.

        A worker that is mid-chase cannot answer its stats probe; after
        *timeout* it is reported as ``pending`` (with whatever the parent
        knows) instead of stalling the whole stats op behind a long chase.
        """
        assert self._loop is not None
        entries: list[tuple[_Worker, "asyncio.Future[Any]"]] = []
        for worker in list(self._workers):
            future = self._loop.create_future()
            self._send_request(worker, "stats", {}, None, future)
            entries.append((worker, future))
        if entries:
            await asyncio.wait({future for _, future in entries}, timeout=timeout)
        per_worker: list[dict[str, Any]] = []
        sections: list[dict[str, Any]] = []
        for worker, future in entries:
            if future.done() and not future.cancelled() and future.exception() is None:
                snapshot = dict(future.result())
                info = dict(snapshot.pop("worker", {}))
                info.update(slot=worker.slot, alive=True, busy=worker.busy)
                info["stats"] = snapshot
                per_worker.append(info)
                sections.append(snapshot)
            else:
                future.cancel()
                per_worker.append(
                    {
                        "slot": worker.slot,
                        "pid": worker.pid,
                        "alive": worker.process.is_alive(),
                        "busy": worker.busy,
                        "pending": True,
                    }
                )
        merged = merge_stats(sections)
        merged["workers"] = per_worker
        merged["pool"] = self.pool_stats()
        return merged

    def pool_stats(self) -> dict[str, Any]:
        return {
            "workers": len(self._workers),
            "target_workers": self.workers_target,
            "sigma_version": self._sigma_version,
            "max_inflight": self.max_inflight,
            "inflight": self._inflight,
            "queued": len(self._pending),
            "crashes": self.crashes,
            "respawns": self.respawns,
            "overloaded_rejections": self.overloaded_rejections,
            "deltas_broadcast": self.deltas_broadcast,
            "requests_dispatched": self.requests_dispatched,
        }

    # Test/diagnostic helpers -------------------------------------------- #
    def worker_pids(self) -> list[int]:
        """PIDs of the live engine workers (diagnostics and tests)."""
        return [worker.pid for worker in self._workers if worker.pid is not None]


def _retrieve_exception(future: "asyncio.Future[Any]") -> None:
    """Mark a shielded task's exception as retrieved (the awaiter may be gone)."""
    if not future.cancelled():
        future.exception()


def _log_internal_failure(future: "asyncio.Future[Any]") -> None:
    if future.cancelled():
        return
    exc = future.exception()
    if exc is not None:  # pragma: no cover - requires a diverging worker
        print(
            f"repro serve: pool-internal delta replay failed: "
            f"{type(exc).__name__}: {exc}",
            file=sys.stderr,
        )
