"""``repro.serve`` — the long-lived equivalence service.

Everything below :mod:`repro.session` answers one question at a time and
forgets; this package keeps the answers' *infrastructure* alive.  It wraps
the engine in an asyncio TCP daemon (:class:`ReproServer`, ``repro serve``)
speaking newline-delimited JSON (:mod:`~repro.serve.protocol`), dispatching
engine work to a backend (:mod:`~repro.serve.pool`): one serialized worker
thread over one process-wide :class:`~repro.session.Session` by default, or
— with ``--workers N`` — a pool of long-lived engine processes with crash
respawn, ``overloaded`` backpressure, and delta-coherent per-worker caches.
Terminal chase results persist to disk so restarts and respawned workers
start warm (:class:`ChaseStore`, keyed by a stable digest of the session's
chase-cache key).

:class:`ReproClient` is the matching blocking client used by tests, the
``repro client`` subcommand, and the CI smoke job.
"""

from .client import ClientError, ReproClient, ServerError
from .pool import (
    ProcessEngineBackend,
    RemoteEngineError,
    ThreadEngineBackend,
    WorkerSpec,
)
from .protocol import (
    DEFAULT_TIMEOUT,
    ERROR_CODES,
    MAX_REQUEST_BYTES,
    OPS,
    ProtocolError,
)
from .server import ReproServer, ServerHandle
from .store import ChaseStore, StoreError, key_digest

__all__ = [
    "ChaseStore",
    "ClientError",
    "DEFAULT_TIMEOUT",
    "ERROR_CODES",
    "MAX_REQUEST_BYTES",
    "OPS",
    "ProcessEngineBackend",
    "ProtocolError",
    "RemoteEngineError",
    "ReproClient",
    "ReproServer",
    "ServerError",
    "ServerHandle",
    "StoreError",
    "ThreadEngineBackend",
    "WorkerSpec",
    "key_digest",
]
