"""The four workloads, each as an untraced run and a traced run.

An untraced run measures the end-to-end metrics; a traced run, made
separately, the per-layer ones.  Both end by checking every answer against
the reference oracle, outside the timed phase.

Rules that keep the figures steady on a small, drifting host:

* one closed-loop client and one program process are busy at a time;
* latency percentiles only over requests of one cost class, and throughput
  as the median over windows of whole request cycles, so the request mix of
  every window is the same;
* every timing is scaled to full host speed by a probe run between cycles
  (:class:`~eqbench.measure.HostScaledWindows`), because the host's own
  speed drifts by up to a factor of two;
* ``setup_s`` is the median of several fresh set-ups inside one run;
* the cold workloads start each cycle on fresh sessions, so neither the
  request mix nor the memory high-water mark depends on how many cycles a
  faster program completes.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator

from repro import ReproError, Session, parse_dependencies, parse_query
from repro.serve import ops as serve_ops
from repro.serve.ops import error_payload_for, execute_op
from repro.serve.protocol import encode_line, error_response, ok_response, parse_request

from . import inputs
from .daemon import DEADLINE_S, Daemon, PremiseError, Wire
from .inputs import Decide, Reformulate, Workload, Write
from .measure import HostScaledWindows, host_slowdown, peak_rss_mb, percentile
from .oracle import Oracle, isomorphic, same_up_to_isomorphism
from .tracing import Tracer, patched

#: Fresh set-ups per run; ``setup_s`` is their median.
SETUPS = 5
#: Busy seconds of whole cycles per throughput window; ``throughput_rps`` is
#: the median over the run's windows.
WINDOW_S = 0.5
#: Fewest full windows a timed phase ends with, however short ``--seconds``.
MIN_WINDOWS = 3
#: Health round trips behind ``serve.health_rtt_us``.
HEALTH_PINGS = 200

_clock = time.perf_counter
_HEALTH = b'{"op":"health"}\n'
_STATS = b'{"op":"stats"}\n'


@dataclass
class Result:
    """What one run reports: counts, metrics ``{name: (value, unit)}``, notes."""

    attempted: int = 0
    failed: int = 0
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    notes: dict[str, Any] = field(default_factory=dict)


def wire_line(request) -> bytes:
    op, params = inputs.wire_params(request)
    return json.dumps({"op": op, "params": params}, separators=(",", ":")).encode() + b"\n"


def _sigma(family: inputs.Family):
    return parse_dependencies(family.sigma_text, set_valued=list(family.set_valued))


def _flat(tree: dict, prefix: str = "") -> dict[str, float]:
    """Numeric leaves of a nested stats dict, keyed ``section.name``."""
    out: dict[str, float] = {}
    for key, value in tree.items():
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            out.update(_flat(value, name + "."))
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            out[name] = float(value)
    return out


def _add_delta(total: Counter, after: dict[str, float], before: dict[str, float]) -> None:
    for key, value in after.items():
        total[key] += value - before.get(key, 0.0)


def _timings(windows: HostScaledWindows, scaled: bool) -> dict[str, tuple[float, str]]:
    latencies_ms = [latency * 1000.0 for latency in windows.latencies(scaled)]
    return {
        "throughput_rps": (statistics.median(windows.rates(scaled)), "1/s"),
        "latency_p50_ms": (percentile(latencies_ms, 0.5), "ms"),
        "latency_p90_ms": (percentile(latencies_ms, 0.9), "ms"),
    }


def _timing_metrics(result: Result, windows: HostScaledWindows) -> None:
    """Host-scaled throughput and latency; the raw figures go to the notes."""
    result.metrics.update(_timings(windows, scaled=True))
    raw = _timings(windows, scaled=False)
    result.notes.update({f"raw_{name}": round(value, 4) for name, (value, _) in raw.items()})
    result.notes.update(
        latency_samples=len(windows.latencies()),
        throughput_windows=len(windows.windows),
        host_slowdown_median=round(statistics.median(w.slowdown for w in windows.windows), 4),
    )


def _setup_metric(result: Result, setups: list[tuple[float, float]]) -> None:
    """``setup_s`` from (host-scaled, raw) set-up seconds."""
    result.metrics["setup_s"] = (statistics.median(scaled for scaled, _ in setups), "s")
    result.notes["raw_setup_s"] = round(statistics.median(raw for _, raw in setups), 4)


# ---------------------------------------------------------------------- #
# Daemon workloads: serve-warm and serve-delta
# ---------------------------------------------------------------------- #
def _warm_lines(name: str, workload: Workload) -> list[bytes]:
    """Requests sent during set-up: the pool once, or two delta cycles."""
    lines = [wire_line(r) for r in workload.cycle]
    return lines if name == "serve-warm" else lines * 2


def _latency_positions(name: str, workload: Workload) -> list[int]:
    """Cycle positions whose round trips feed the latency percentiles."""
    if name == "serve-warm":
        return list(range(len(workload.cycle)))
    return [i for i, r in enumerate(workload.cycle) if isinstance(r, Write) and r.monotone]


@contextlib.contextmanager
def _running(root: Path, name: str, workload: Workload) -> Iterator[tuple[Wire, float, Daemon]]:
    """Spawn and warm a daemon; yields (wire, set-up seconds, daemon), stops it with SIGTERM on exit."""
    started = _clock()
    daemon = Daemon(root, workload.families["ex41"])
    try:
        wire = Wire(daemon.port)
        wire.exchange(_HEALTH)
        for line in _warm_lines(name, workload):
            wire.exchange(line)
        yield wire, _clock() - started, daemon
        wire.close()
    except BaseException:
        daemon.kill()
        raise
    daemon.stop()


def _stats(wire: Wire) -> dict:
    return json.loads(wire.exchange(_STATS))["result"]


def _check_no_chase(name: str, before: dict, after: dict) -> None:
    """serve-warm's premise: the daemon's timed phase ran zero chases."""
    if name == "serve-warm" and after["profile"]["runs"] != before["profile"]["runs"]:
        raise PremiseError("serve-warm's timed phase ran a chase")


def _wire_cycle(wire: Wire, lines: list[bytes]) -> tuple[float, list[float], list[bytes]]:
    """One closed-loop cycle; returns (cycle seconds, round trips, responses)."""
    rtts: list[float] = []
    responses: list[bytes] = []
    exchange = wire.exchange
    start = _clock()
    for line in lines:
        sent = _clock()
        responses.append(exchange(line))
        rtts.append(_clock() - sent)
    return _clock() - start, rtts, responses


def _wire_windows(
    wire: Wire, lines: list[bytes], positions: set[int], seconds: float
) -> tuple[HostScaledWindows, list[bytes]]:
    """Whole cycles for *seconds*; latency samples from *positions* only."""
    windows = HostScaledWindows(WINDOW_S)
    responses: list[bytes] = []
    deadline = _clock() + seconds
    while _clock() < deadline or len(windows.windows) < MIN_WINDOWS:
        busy, rtts, cycle_responses = _wire_cycle(wire, lines)
        responses += cycle_responses
        windows.record(busy, len(lines), [rtt for i, rtt in enumerate(rtts) if i in positions])
    return windows, responses


def _sigma_states(workload: Workload) -> list[dict]:
    """The daemon's Σ edits in force at each cycle position (steady state)."""
    extra: list[str] = []
    marked = {v for r in workload.cycle if isinstance(r, Write) for v in r.set_valued}
    states = []
    for request in workload.cycle:
        if isinstance(request, Write):
            removed = set(request.remove_dependencies.splitlines())
            extra = [d for d in extra if d not in removed]
            extra += [d for d in request.add_dependencies.splitlines() if d]
        states.append({"extra": tuple(extra), "set_valued": tuple(sorted(marked))})
    return states


def _check_serve_answer(oracle: Oracle, request, state: dict, payload: dict) -> bool:
    """Is one daemon response right, by the reference oracle?"""
    if not payload.get("ok"):
        return False
    answer = payload["result"]
    if isinstance(request, Decide):
        if answer["equivalent"] != oracle.verdict(
            request.family, request.left, request.right, request.semantics, **state
        ):
            return False
        left, right = (parse_query(text) for text in answer["chased"])
        return oracle.chase_matches(
            left, request.left, request.semantics, request.family, **state
        ) and oracle.chase_matches(
            right, request.right, request.semantics, request.family, **state
        )
    if not isomorphic(parse_query(answer["query"]), parse_query(request.target)):
        return False
    return oracle.chase_matches(
        parse_query(answer["chased"]), request.target, request.semantics, request.family, **state
    )


def _check_serve_responses(workload: Workload, responses: list[bytes]) -> tuple[int, int]:
    """(attempted, failed) over every response; enforces the delta premises."""
    oracle = Oracle(workload.families)
    size = len(workload.cycle)
    states = _sigma_states(workload)
    tally = Counter((i % size, line) for i, line in enumerate(responses))
    failed = 0
    for (position, line), count in tally.items():
        request = workload.cycle[position]
        payload = json.loads(line)
        if not _check_serve_answer(oracle, request, states[position], payload):
            failed += count
            continue
        if isinstance(request, Write):
            answer = payload["result"]
            if request.monotone and not answer["resumed"]:
                raise PremiseError(f"a monotone write fell back cold: {answer['fallback_reason']}")
            if not request.monotone and answer["fallback_reason"] != "non-monotone-delta":
                raise PremiseError("a removal write did not fall back cold")
    return len(responses), failed


def _serve_untraced(root: Path, name: str, workload: Workload, seconds: float) -> Result:
    result = Result()
    lines = [wire_line(r) for r in workload.cycle]
    positions = set(_latency_positions(name, workload))
    setups = []
    for index in range(SETUPS):
        slowdown = host_slowdown()
        with _running(root, name, workload) as (wire, elapsed, daemon):
            slowdown = statistics.fmean([slowdown, host_slowdown()])
            setups.append((elapsed / slowdown, elapsed))
            if index == SETUPS - 1:
                before = _stats(wire)
                windows, responses = _wire_windows(wire, lines, positions, seconds)
                after = _stats(wire)
                peak_mb = daemon.peak_rss_mb()
    _check_no_chase(name, before, after)
    _timing_metrics(result, windows)
    result.metrics["peak_rss_mb"] = (peak_mb, "MB")
    _setup_metric(result, setups)
    result.notes["cycles"] = len(responses) // len(lines)
    result.notes["requests_per_cycle"] = len(lines)
    result.attempted, result.failed = _check_serve_responses(workload, responses)
    return result


def _daemon_like_session(workload: Workload) -> Session:
    """A session configured as ``repro serve`` configures its own."""
    return Session(dependencies=_sigma(workload.families["ex41"]), chase_resumable=True)


def _serve_once(session: Session, line: bytes, decode, execute, encode) -> bytes:
    """One request through decode → execute → encode, as the daemon does it."""
    request_id, op, params = decode(line)
    try:
        return encode(ok_response(request_id, execute(session, op, params)))
    except ReproError as exc:
        mapped = error_payload_for(exc)
        if mapped is None:
            raise
        code, message, detail = mapped
        return encode(error_response(request_id, code, message, **detail))


def _replay_cycle(session: Session, lines: list[bytes], answers: list[set[bytes]], stages, tracer=None) -> int:
    """Replay one cycle in process; returns how many answers differ from the daemon's."""
    mismatches = 0
    for position, line in enumerate(lines):
        if tracer is None:
            answer = _serve_once(session, line, *stages)
        else:
            tracer.begin_request()
            with tracer.span("request"):
                answer = _serve_once(session, line, *stages)
        mismatches += answer not in answers[position]
    return mismatches


def _serve_traced(root: Path, name: str, workload: Workload, seconds: float) -> Result:
    """Wire cycles alternating with plain and traced in-process replays of them.

    The replay session is configured like the daemon's and has seen the same
    requests, so its answers must be byte-identical to the daemon's.
    Alternating the three phases lets host drift hit them alike, which keeps
    ``serve.transport_us`` (wire round trip minus in-process service time)
    meaningful.
    """
    result = Result()
    lines = [wire_line(r) for r in workload.cycle]
    size = len(lines)
    session = _daemon_like_session(workload)
    for line in _warm_lines(name, workload):
        _serve_once(session, line, parse_request, execute_op, encode_line)
    tracer = Tracer()
    bindings = [
        (serve_ops, "parse_query", tracer.wrap("datalog.parse", serve_ops.parse_query)),
        (serve_ops, "parse_atoms", tracer.wrap("datalog.parse", serve_ops.parse_atoms)),
        (serve_ops, "parse_dependencies", tracer.wrap("datalog.parse", serve_ops.parse_dependencies)),
        (serve_ops, "render_query", tracer.wrap("datalog.render", serve_ops.render_query)),
        (session, "apply_delta", tracer.wrap("delta.apply", session.apply_delta)),
        (session, "chase", tracer.wrap("chase", session.chase, _cache_namer(session))),
    ] + _verdict_bindings(tracer, session)
    plain_stages = (parse_request, execute_op, encode_line)
    traced_stages = (
        tracer.wrap("protocol.decode", parse_request),
        tracer.wrap("ops.execute_op", execute_op),
        tracer.wrap("protocol.encode", encode_line),
    )

    daemon_answers: list[set[bytes]] = [set() for _ in range(size)]
    responses: list[bytes] = []
    rtts: list[float] = []
    pings: list[float] = []
    plain: list[float] = []
    traced: list[float] = []
    counters: Counter = Counter()
    mismatches = 0
    with _running(root, name, workload) as (wire, _, _):
        for _ in range(HEALTH_PINGS):
            sent = _clock()
            wire.exchange(_HEALTH)
            pings.append(_clock() - sent)
        before = _stats(wire)
        deadline = _clock() + seconds
        while _clock() < deadline or len(traced) < 3:
            _, cycle_rtts, cycle_responses = _wire_cycle(wire, lines)
            rtts += cycle_rtts
            responses += cycle_responses
            for position, line in enumerate(cycle_responses):
                daemon_answers[position].add(line)
            started = _clock()
            mismatches += _replay_cycle(session, lines, daemon_answers, plain_stages)
            plain.append(_clock() - started)
            snapshot = _flat(session.stats())
            started = _clock()
            with patched(bindings):
                mismatches += _replay_cycle(session, lines, daemon_answers, traced_stages, tracer)
            traced.append(_clock() - started)
            _add_delta(counters, _flat(session.stats()), snapshot)
        after = _stats(wire)
    _check_no_chase(name, before, after)
    requests = len(traced) * size
    writes = len(traced) * sum(isinstance(r, Write) for r in workload.cycle)
    service_us = statistics.fmean(plain) / size * 1e6
    wire_us = statistics.fmean(rtts) * 1e6
    result.metrics.update(
        _layer_metrics(tracer, counters, requests, writes, session.stats(), plain, traced)
    )
    result.metrics["serve.transport_us"] = (wire_us - service_us, "us")
    result.metrics["serve.health_rtt_us"] = (statistics.fmean(pings) * 1e6, "us")
    result.notes.update(
        wire_requests=len(rtts), replayed_requests=requests, wire_rtt_us=round(wire_us, 3),
        replay_service_us=round(service_us, 3), replay_mismatches=mismatches,
    )
    attempted, failed = _check_serve_responses(workload, responses)
    result.attempted = attempted + 2 * requests
    result.failed = failed + mismatches
    return result


# ---------------------------------------------------------------------- #
# In-process workloads: decide-cold and reformulate-cold
# ---------------------------------------------------------------------- #
@dataclass
class _Prepared:
    """Parsed inputs of a cold workload: Σ per family and parsed requests."""

    workload: Workload
    sigmas: dict
    items: list[tuple[Any, tuple]]

    def fresh_sessions(self) -> dict[str, Session]:
        return {name: Session(dependencies=sigma) for name, sigma in self.sigmas.items()}


def prepare(workload: Workload) -> _Prepared:
    """Parse every text of a cold workload (before any timer starts)."""
    sigmas = {name: _sigma(family) for name, family in workload.families.items()}
    items = []
    for request in workload.cycle:
        if isinstance(request, Decide):
            items.append((request, (parse_query(request.left), parse_query(request.right))))
        else:
            items.append((request, (parse_query(request.query),)))
    return _Prepared(workload, sigmas, items)


def _call(sessions: dict[str, Session], request, parsed: tuple):
    session = sessions[request.family]
    if isinstance(request, Decide):
        return session.decide(parsed[0], parsed[1], request.semantics)
    return session.reformulate(parsed[0], request.semantics)


def run_cycle(prepared: _Prepared, call: Callable = _call) -> tuple[float, list, dict]:
    """One cycle on fresh sessions: (seconds, answers or errors, sessions)."""
    answers: list = []
    started = _clock()
    sessions = prepared.fresh_sessions()
    for request, parsed in prepared.items:
        try:
            answers.append(call(sessions, request, parsed))
        except ReproError as exc:
            answers.append(exc)
    return _clock() - started, answers, sessions


def _answer_key(answer) -> tuple:
    """A compact identity of an answer, to check each distinct one once."""
    if isinstance(answer, Exception):
        return ("error", type(answer).__name__, str(answer))
    if hasattr(answer, "chased_left"):
        return (bool(answer), str(answer.chased_left), str(answer.chased_right))
    return (answer.candidates_examined, tuple(sorted(str(q) for q in answer.reformulations)))


def _check_cold_premise(name: str, prepared: _Prepared, sessions: dict[str, Session]) -> None:
    if name != "decide-cold":
        return
    hits = sum(s.cache_stats().hits for s in sessions.values())
    misses = sum(s.cache_stats().misses for s in sessions.values())
    if hits or misses != 2 * len(prepared.items):
        raise PremiseError(f"a decide-cold request hit the chase cache ({hits} hits, {misses} misses)")


def _record(distinct: dict[tuple, list], answers: list) -> None:
    """Count each answer under its position and identity, keeping the first one."""
    for position, answer in enumerate(answers):
        distinct.setdefault((position, _answer_key(answer)), [0, answer])[0] += 1


def _check_cold_answers(prepared: _Prepared, distinct: dict[tuple, list]) -> int:
    """Failed answers among every recorded one, by the reference oracle."""
    oracle = Oracle(prepared.workload.families)
    failed = 0
    for (position, _), (count, answer) in distinct.items():
        request = prepared.items[position][0]
        if not _cold_answer_right(oracle, request, answer):
            failed += count
    return failed


def _cold_answer_right(oracle: Oracle, request, answer) -> bool:
    if isinstance(answer, Exception):
        return False
    if isinstance(request, Decide):
        return (
            bool(answer) == oracle.verdict(request.family, request.left, request.right, request.semantics)
            and oracle.chase_matches(answer.chased_left, request.left, request.semantics, request.family)
            and oracle.chase_matches(answer.chased_right, request.right, request.semantics, request.family)
        )
    expected = oracle.reformulations(request.family, request.query, request.semantics)
    return same_up_to_isomorphism(list(answer.reformulations), expected)


def setup_probe(name: str, seed: int) -> None:
    """The set-up a cold workload pays once: parse, sessions, one warm-up cycle."""
    prepared = prepare(inputs.WORKLOADS[name](seed))
    run_cycle(prepared)
    print("ready", flush=True)


def _probe_setups(root: Path, name: str, seed: int) -> list[tuple[float, float]]:
    """(host-scaled, raw) spawn-to-ready seconds of fresh set-up processes, one at a time."""
    command = [
        sys.executable, str(root / "eqbench" / "run.py"),
        "--workload", name, "--seed", str(seed), "--seconds", "1", "--setup-probe",
    ]
    times = []
    for _ in range(SETUPS):
        slowdown = host_slowdown()
        started = _clock()
        process = subprocess.Popen(command, cwd=root, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL)
        try:
            out, _ = process.communicate(timeout=DEADLINE_S * 4)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()
            raise
        if process.returncode != 0 or out.strip() != b"ready":
            raise RuntimeError(f"set-up probe failed with code {process.returncode}")
        elapsed = _clock() - started
        slowdown = statistics.fmean([slowdown, host_slowdown()])
        times.append((elapsed / slowdown, elapsed))
    return times


def _cold_untraced(root: Path, name: str, workload: Workload, seed: int, seconds: float) -> Result:
    result = Result()
    setups = _probe_setups(root, name, seed)
    prepared = prepare(workload)
    run_cycle(prepared)  # warm-up, as in the probes
    size = len(prepared.items)
    windows = HostScaledWindows(WINDOW_S)
    distinct: dict[tuple, list] = {}
    cycles = 0
    deadline = _clock() + seconds
    while _clock() < deadline or len(windows.windows) < MIN_WINDOWS:
        elapsed, answers, sessions = run_cycle(prepared)
        windows.record(elapsed, size, [elapsed])
        cycles += 1
        _check_cold_premise(name, prepared, sessions)
        _record(distinct, answers)
        del answers, sessions
    result.metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
    _timing_metrics(result, windows)
    _setup_metric(result, setups)
    result.notes.update(cycles=cycles, requests_per_cycle=size, latency_unit="one whole cycle")
    result.attempted = size * cycles
    result.failed = _check_cold_answers(prepared, distinct)
    return result


def _cache_namer(session: Session) -> Callable[[], Callable[[], str]]:
    """Names a chase span ``chase.hit`` or ``chase.cold`` from the cache counters."""

    def before() -> Callable[[], str]:
        misses = session.cache_stats().misses
        return lambda: "chase.cold" if session.cache_stats().misses > misses else "chase.hit"

    return before


def _verdict_bindings(tracer: Tracer, session: Session) -> list[tuple[object, str, Any]]:
    return [
        (strategy, "equivalent_chased", tracer.wrap("verdict", strategy.equivalent_chased))
        for strategy in session.registry
    ]


def _cold_traced(name: str, workload: Workload, seconds: float) -> Result:
    result = Result()
    prepared = prepare(workload)
    run_cycle(prepared)
    tracer = Tracer()
    counters: Counter = Counter()

    def traced_call(sessions, request, parsed):
        tracer.begin_request()
        with tracer.span("request"):
            if isinstance(request, Reformulate):
                with tracer.span("reformulate"):
                    return _call(sessions, request, parsed)
            return _call(sessions, request, parsed)

    plain: list[float] = []
    traced: list[float] = []
    outcomes = Counter()
    distinct: dict[tuple, list] = {}
    deadline = _clock() + seconds
    last_stats: dict = {}
    while _clock() < deadline or len(traced) < 3:
        elapsed, _, _ = run_cycle(prepared)
        plain.append(elapsed)
        started = _clock()
        sessions = prepared.fresh_sessions()
        process_before = _flat(next(iter(sessions.values())).stats())
        bindings = []
        for session in sessions.values():
            bindings.append((session, "chase", tracer.wrap("chase", session.chase, _cache_namer(session))))
            bindings += _verdict_bindings(tracer, session)
        with patched(bindings):
            answers = []
            for request, parsed in prepared.items:
                try:
                    answers.append(traced_call(sessions, request, parsed))
                except ReproError as exc:
                    answers.append(exc)
        traced.append(_clock() - started)
        _record(distinct, answers)
        for answer in answers:
            if hasattr(answer, "candidates_examined"):
                outcomes["candidates"] += answer.candidates_examined
                outcomes["reformulations"] += len(answer.reformulations)
        for session in sessions.values():
            last_stats = session.stats()
            stats = _flat(last_stats)
            for section in ("chase_cache.", "profile.", "incremental."):
                _add_delta(counters, {k: v for k, v in stats.items() if k.startswith(section)}, {})
        process_after = _flat(last_stats)
        _add_delta(
            counters,
            {k: v for k, v in process_after.items() if k.startswith(("intern.", "plan_cache."))},
            process_before,
        )
    requests = len(traced) * len(prepared.items)
    result.metrics.update(
        _layer_metrics(tracer, counters, requests, 0, last_stats, plain, traced)
    )
    totals = tracer.totals()
    if name == "reformulate-cold":
        chase_time = sum(totals.get(n, (0, 0.0, 0.0))[1] for n in ("chase.hit", "chase.cold"))
        reformulate_time = totals["reformulate"][1]
        result.metrics["reformulate.us"] = (reformulate_time / requests * 1e6, "us")
        result.metrics["reformulate.candidates_examined"] = (outcomes["candidates"] / requests, "count")
        result.metrics["reformulate.reformulations"] = (outcomes["reformulations"] / requests, "count")
        result.metrics["reformulate.yield"] = (_ratio(outcomes["reformulations"], outcomes["candidates"]), "ratio")
        result.metrics["reformulate.chase_share"] = (_ratio(chase_time, reformulate_time), "ratio")
    result.notes.update(traced_requests=requests)
    result.attempted = requests
    result.failed = _check_cold_answers(prepared, distinct)
    return result


# ---------------------------------------------------------------------- #
# Per-layer metrics
# ---------------------------------------------------------------------- #
#: Per-layer metrics with their units; every traced run reports all of them
#: (0 where the workload does not load that layer).
LAYER_UNITS = {
    "serve.transport_us": "us", "serve.health_rtt_us": "us",
    "protocol.decode_us": "us", "protocol.encode_us": "us", "ops.glue_us": "us",
    "datalog.parse_us": "us", "datalog.render_us": "us",
    "session.key_us": "us", "session.lookup_us": "us", "session.cache_hit_rate": "ratio",
    "session.keys_built": "count", "session.keys_reused": "count",
    "session.cache_invalidations": "count",
    "chase.cold_us": "us", "chase.runs": "count", "chase.steps": "count",
    "chase.rounds": "count", "chase.triggers_examined": "count", "chase.step_yield": "ratio",
    "chase.dependencies_skipped": "count", "chase.plans_compiled": "count",
    "chase.plans_reused": "count", "chase.af_tests": "count", "chase.af_cache_hit_rate": "ratio",
    "kernel.searches": "count", "kernel.index_lookups": "count", "kernel.index_hit_rate": "ratio",
    "kernel.extension_probes": "count", "kernel.dicts_avoided": "count",
    "intern.misses": "count", "intern.live_terms": "count",
    "verdict.us": "us", "verdict.calls": "count",
    "reformulate.us": "us", "reformulate.candidates_examined": "count",
    "reformulate.reformulations": "count", "reformulate.yield": "ratio",
    "reformulate.chase_share": "ratio",
    "delta.apply_us": "us", "delta.resumed_share": "ratio", "delta.steps_saved": "count",
    "delta.steps_executed": "count", "delta.replayed_steps": "count",
    "trace.overhead_pct": "%", "share.other": "ratio",
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _layer_metrics(
    tracer: Tracer,
    counters: Counter,
    requests: int,
    writes: int,
    final_stats: dict,
    plain: list[float],
    traced: list[float],
) -> dict[str, tuple[float, str]]:
    """Per-request layer figures from spans and stats-counter deltas."""
    totals = tracer.totals()

    def per_request_us(span: str, self_time: bool = False) -> float:
        _, total, own = totals.get(span, (0, 0.0, 0.0))
        return (own if self_time else total) / requests * 1e6

    def per(key: str, count: int = requests) -> float:
        return counters[key] / count if count else 0.0

    hits, misses = counters["chase_cache.hits"], counters["chase_cache.misses"]
    intern = final_stats.get("intern", {})
    _, request_total, request_self = totals.get("request", (0, 0.0, 0.0))
    values = {
        "protocol.decode_us": per_request_us("protocol.decode"),
        "protocol.encode_us": per_request_us("protocol.encode"),
        "ops.glue_us": per_request_us("ops.execute_op", self_time=True),
        "datalog.parse_us": per_request_us("datalog.parse"),
        "datalog.render_us": per_request_us("datalog.render"),
        "session.key_us": per("profile.key_build_time") * 1e6,
        "session.lookup_us": per_request_us("chase.hit"),
        "session.cache_hit_rate": _ratio(hits, hits + misses),
        "session.keys_built": per("profile.cache_keys_built"),
        "session.keys_reused": per("profile.cache_keys_reused"),
        "session.cache_invalidations": per("chase_cache.invalidations"),
        "chase.cold_us": per_request_us("chase.cold"),
        "chase.runs": per("profile.runs"),
        "chase.steps": per("profile.steps"),
        "chase.rounds": per("profile.rounds"),
        "chase.triggers_examined": per("profile.triggers_examined"),
        "chase.step_yield": _ratio(counters["profile.steps"], counters["profile.triggers_examined"]),
        "chase.dependencies_skipped": per("profile.dependencies_skipped"),
        "chase.plans_compiled": per("profile.plans_compiled"),
        "chase.plans_reused": per("profile.plans_reused"),
        "chase.af_tests": per("profile.assignment_fixing_tests"),
        "chase.af_cache_hit_rate": _ratio(
            counters["profile.assignment_fixing_cache_hits"],
            counters["profile.assignment_fixing_tests"] + counters["profile.assignment_fixing_cache_hits"],
        ),
        "kernel.searches": per("profile.kernel_searches"),
        "kernel.index_lookups": per("profile.index_lookups"),
        "kernel.index_hit_rate": _ratio(counters["profile.index_hits"], counters["profile.index_lookups"]),
        "kernel.extension_probes": per("profile.extension_probes"),
        "kernel.dicts_avoided": per("profile.dicts_avoided"),
        "intern.misses": per("intern.misses"),
        "intern.live_terms": float(intern.get("variables", 0) + intern.get("constants", 0)),
        "verdict.us": per_request_us("verdict"),
        "verdict.calls": totals.get("verdict", (0, 0.0, 0.0))[0] / requests,
        "reformulate.us": 0.0,
        "reformulate.candidates_examined": 0.0,
        "reformulate.reformulations": 0.0,
        "reformulate.yield": 0.0,
        "reformulate.chase_share": 0.0,
        "delta.apply_us": _ratio(totals.get("delta.apply", (0, 0.0, 0.0))[1] * 1e6, writes),
        "delta.resumed_share": _ratio(
            counters["incremental.resumed_runs"], counters["incremental.deltas_applied"]
        ),
        "delta.steps_saved": per("incremental.steps_saved", writes),
        "delta.steps_executed": per("incremental.steps_executed", writes),
        "delta.replayed_steps": per("incremental.steps_replayed", writes),
        "trace.overhead_pct": (statistics.fmean(traced) / statistics.fmean(plain) - 1.0) * 100.0,
        "share.other": _ratio(request_self, request_total),
        "serve.transport_us": 0.0,
        "serve.health_rtt_us": 0.0,
    }
    return {name: (values[name], unit) for name, unit in LAYER_UNITS.items()}


# ---------------------------------------------------------------------- #
def run(root: Path, name: str, seed: int, seconds: float, trace: bool) -> Result:
    """Run workload *name* once; the untraced or the traced variant."""
    workload = inputs.WORKLOADS[name](seed)
    if name in ("serve-warm", "serve-delta"):
        runner = _serve_traced if trace else _serve_untraced
        return runner(root, name, workload, seconds)
    if trace:
        return _cold_traced(name, workload, seconds)
    return _cold_untraced(root, name, workload, seed, seconds)
