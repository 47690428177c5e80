"""The ``repro serve`` daemon: one acceptor, one-or-N engine workers.

Architecture (see :mod:`repro.serve.protocol` for the wire format):

* an **asyncio TCP acceptor** accepts connections and frames
  newline-delimited JSON requests; the event loop only ever parses,
  validates, routes, and enforces limits — it never chases;
* every CPU-bound operation (decide, reformulate, batch, analyze,
  apply-delta) is dispatched to an **engine backend**
  (:mod:`repro.serve.pool`):

  - the default single-thread backend serializes engine work through the
    one process-wide :class:`~repro.session.Session` (shared hot caches, no
    locks);
  - with ``--workers N`` a **process pool** backend fans requests out to N
    long-lived engine processes over pipes — bounded in-flight queue with
    structured ``overloaded`` backpressure, crash detection + respawn
    (``worker-crashed``), and monotonically versioned ``apply-delta``
    broadcasts keeping per-worker caches coherent;

* a **per-request timeout** (:func:`asyncio.wait_for`) turns a runaway
  request into a structured ``timeout`` error for its client.  An engine
  thread/process cannot be preempted mid-chase, so the chase step budget
  (``--max-steps``) is the real bound on a single chase;
* an optional **disk-backed chase store** (:mod:`repro.serve.store`) makes
  restarts — and freshly (re)spawned pool workers — start warm.

Nothing a client sends can kill the daemon: every anticipated failure is
mapped to a structured error response, and unanticipated ones are answered
with ``internal`` and logged to stderr.
"""

from __future__ import annotations

import asyncio
import sys
import threading
import time
from typing import Any

from ..session import Session
from ..session.engine import ChaseResultStore
from ..session.strategies import require_builtin_strategy
from .ops import error_payload_for, execute_op  # noqa: F401  (execute_op re-exported)
from .pool import (
    ProcessEngineBackend,
    RemoteEngineError,
    ThreadEngineBackend,
    WorkerSpec,
)
from .protocol import (
    DEFAULT_TIMEOUT,
    MAX_REQUEST_BYTES,
    ProtocolError,
    encode_line,
    error_response,
    ok_response,
    parse_request,
    request_id_of,
)
from .store import ChaseStore

__all__ = ["ReproServer", "ServerHandle"]


class ReproServer:
    """An asyncio NDJSON server over one-or-N engine workers.

    With ``workers=1`` (default) the server owns the Session directly — it
    may be handed one explicitly (the test fixtures do, to compare against
    direct calls) or built from a dependency set by the CLI.  With
    ``workers>=2`` the Session provides the *configuration* (Σ, default
    semantics, budgets, precheck) and each engine process builds its own
    from that spec; the acceptor-side Session itself never chases.
    """

    def __init__(
        self,
        session: Session,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        timeout: float = DEFAULT_TIMEOUT,
        max_request_bytes: int = MAX_REQUEST_BYTES,
        store: ChaseStore | None = None,
        workers: int = 1,
        max_inflight: int | None = None,
    ):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.session = session
        self.host = host
        self.port = port
        self.timeout = timeout
        self.max_request_bytes = max_request_bytes
        self.workers = workers
        self.started = time.monotonic()
        self.requests_served = 0
        self.requests_failed = 0
        self.connections_accepted = 0
        if workers == 1:
            if store is not None:
                session.set_store(store)
            self.backend: ThreadEngineBackend | ProcessEngineBackend = (
                ThreadEngineBackend(session)
            )
        else:
            # The engine processes rebuild their Sessions from the spec, so
            # only built-in semantics can serve (same contract as
            # decide_many concurrency).  The store is deliberately NOT
            # attached to the acceptor session: the parent never chases —
            # each worker opens its own handle on the store path and warms
            # from disk at spawn and respawn.
            for name in session.semantics_names():
                require_builtin_strategy(session.registry.resolve(name))
            store_obj = store if store is not None else session.store
            store_path = getattr(store_obj, "path", None)
            sigma = session.dependencies
            self.backend = ProcessEngineBackend(
                WorkerSpec(
                    dependencies=sigma,
                    max_steps=session.max_steps,
                    default_semantics=session.default_semantics,
                    precheck=session.precheck if session.precheck != "off" else None,
                    store_path=str(store_path) if store_path is not None else None,
                    cache_size=getattr(session.cache, "maxsize", 4096),
                ),
                workers,
                max_inflight=max_inflight,
            )
        # Whatever store the server is responsible for (passed here, or
        # attached to the session before construction); the server owns its
        # shutdown.
        self.store: "ChaseResultStore | None" = (
            store if store is not None else session.store
        )
        self._server: asyncio.AbstractServer | None = None

    # ------------------------------------------------------------------ #
    # Acceptor-local handlers (counter reads only — answerable even while
    # every engine worker is mid-chase).
    # ------------------------------------------------------------------ #
    async def _handle_stats(self, params: dict[str, Any]) -> dict[str, Any]:
        stats = await self.backend.stats_snapshot()
        stats["server"] = {
            "uptime_s": time.monotonic() - self.started,
            "requests_served": self.requests_served,
            "requests_failed": self.requests_failed,
            "connections_accepted": self.connections_accepted,
            "backend": self.backend.kind,
            "workers": self.workers,
        }
        return stats

    def _handle_health(self, params: dict[str, Any]) -> dict[str, Any]:
        return {
            "status": "ok",
            "semantics": list(self.session.semantics_names()),
            "dependencies": self.backend.dependency_count,
            "store": self.store is not None,
            "backend": self.backend.kind,
            "workers": self.workers,
            "uptime_s": time.monotonic() - self.started,
        }

    # ------------------------------------------------------------------ #
    # Dispatch
    # ------------------------------------------------------------------ #
    async def _dispatch(self, op: str, params: dict[str, Any]) -> dict[str, Any]:
        if op == "health":
            return self._handle_health(params)
        if op == "stats":
            return await self._handle_stats(params)
        return await asyncio.wait_for(
            self.backend.dispatch(op, params),
            timeout=self.timeout if self.timeout and self.timeout > 0 else None,
        )

    async def _respond(self, request_id: Any, op: str, params: dict[str, Any]) -> dict[str, Any]:
        """Run one request to a response dict, mapping every failure to a code.

        The exception→code mapping itself lives in
        :func:`repro.serve.ops.error_payload_for`, shared with the worker
        loop; this method only adds the transport-level cases (timeout,
        worker errors arriving as :class:`RemoteEngineError`) on top.
        """
        try:
            result = await self._dispatch(op, params)
            return ok_response(request_id, result)
        except ProtocolError as exc:
            return error_response(request_id, exc.code, str(exc))
        except RemoteEngineError as exc:
            # A structured error produced in (or about) an engine worker:
            # already carries its protocol code and detail.
            return error_response(request_id, exc.code, str(exc), **exc.detail)
        except asyncio.TimeoutError:
            return error_response(
                request_id,
                "timeout",
                f"request exceeded the {self.timeout:g}s budget; "
                "the engine keeps running it to completion",
            )
        except Exception as exc:  # noqa: BLE001 - the server must survive anything
            payload = error_payload_for(exc)
            if payload is None:
                print(
                    f"repro serve: internal error on op {op!r}: "
                    f"{type(exc).__name__}: {exc}",
                    file=sys.stderr,
                )
                return error_response(
                    request_id, "internal", f"{type(exc).__name__}: {exc}"
                )
            code, message, detail = payload
            return error_response(request_id, code, message, **detail)

    # ------------------------------------------------------------------ #
    # Connection handling
    # ------------------------------------------------------------------ #
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.connections_accepted += 1
        try:
            while True:
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    # The request line exceeds the frame limit: its end — and
                    # with it the next frame boundary — cannot be located, so
                    # answer once and close this connection (only this one).
                    writer.write(
                        encode_line(
                            error_response(
                                None,
                                "request-too-large",
                                f"request exceeds {self.max_request_bytes} bytes",
                            )
                        )
                    )
                    await writer.drain()
                    self.requests_failed += 1
                    break
                if not line:
                    break  # client closed
                if not line.strip():
                    continue  # bare newline keep-alives are legal
                try:
                    request_id, op, params = parse_request(line)
                except ProtocolError as exc:
                    response = error_response(request_id_of(exc), exc.code, str(exc))
                else:
                    response = await self._respond(request_id, op, params)
                if response.get("ok"):
                    self.requests_served += 1
                else:
                    self.requests_failed += 1
                writer.write(encode_line(response))
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass  # client vanished mid-exchange; nothing to answer
        except asyncio.CancelledError:
            # Server shutdown cancelled this connection mid-read.  Returning
            # (rather than re-raising) lets the task finish cleanly, which
            # keeps asyncio's stream callbacks from logging spurious
            # "exception in callback" noise during teardown.
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (
                asyncio.CancelledError,
                ConnectionResetError,
                BrokenPipeError,
            ):  # pragma: no cover - teardown races
                pass

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    async def start(self) -> None:
        """Start the engine backend, bind, and accept (resolves :attr:`port`)."""
        await self.backend.start()
        self._server = await asyncio.start_server(
            self._handle_connection,
            host=self.host,
            port=self.port,
            limit=self.max_request_bytes,
        )
        sockets = self._server.sockets or ()
        if sockets:
            self.port = sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        """Run until cancelled; closes the backend and store on the way out."""
        if self._server is None:
            await self.start()
        assert self._server is not None
        try:
            async with self._server:
                await self._server.serve_forever()
        except asyncio.CancelledError:
            pass
        finally:
            await self.aclose()

    async def aclose(self) -> None:
        """Stop accepting, shut the engine backend down, close the store."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.backend.aclose()
        if self.store is not None:
            self.store.close()

    # ------------------------------------------------------------------ #
    def start_in_thread(self) -> "ServerHandle":
        """Run this server on a dedicated event-loop thread (fixtures, tools).

        Returns a :class:`ServerHandle` whose :attr:`~ServerHandle.port` is
        already resolved; the caller stops the server with
        :meth:`ServerHandle.stop`.  This is the in-process embedding used by
        the test suite and the throughput benchmark — same code path as the
        CLI daemon, minus the process boundary.
        """
        started = threading.Event()
        startup_error: list[BaseException] = []
        loop_holder: list[asyncio.AbstractEventLoop] = []

        async def _run() -> None:
            try:
                await self.start()
            except BaseException as exc:  # pragma: no cover - bind failures
                startup_error.append(exc)
                started.set()
                return
            loop_holder.append(asyncio.get_running_loop())
            started.set()
            await self.serve_forever()

        def _thread_main() -> None:
            asyncio.run(_run())

        thread = threading.Thread(
            target=_thread_main, name="repro-serve", daemon=True
        )
        thread.start()
        started.wait()
        if startup_error:  # pragma: no cover - bind failures
            raise startup_error[0]
        return ServerHandle(self, thread, loop_holder[0])


class ServerHandle:
    """A running in-thread server: its port, and the means to stop it."""

    def __init__(
        self,
        server: ReproServer,
        thread: threading.Thread,
        loop: asyncio.AbstractEventLoop,
    ):
        self.server = server
        self._thread = thread
        self._loop = loop

    @property
    def port(self) -> int:
        return self.server.port

    @property
    def host(self) -> str:
        return self.server.host

    def stop(self, timeout: float = 10.0) -> None:
        """Cancel the serve loop and join the thread (idempotent)."""
        if self._thread.is_alive():
            def _cancel_all() -> None:
                for task in asyncio.all_tasks(self._loop):
                    task.cancel()

            try:
                self._loop.call_soon_threadsafe(_cancel_all)
            except RuntimeError:  # pragma: no cover - loop already closed
                pass
        self._thread.join(timeout=timeout)

    def __enter__(self) -> "ServerHandle":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()
