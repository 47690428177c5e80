"""Host-scaled window, percentile and span arithmetic."""

from __future__ import annotations

import statistics

import pytest

from eqbench import tracing
from eqbench.measure import (
    REFERENCE_PROBE_S,
    HostScaledWindows,
    host_slowdown,
    percentile,
    probe_s,
)
from eqbench.tracing import Tracer, patched


def test_percentile_interpolates_between_order_statistics():
    values = [4.0, 1.0, 3.0, 2.0]
    assert percentile(values, 0.0) == 1.0
    assert percentile(values, 1.0) == 4.0
    assert percentile(values, 0.5) == pytest.approx(2.5)
    assert percentile(values, 0.9) == pytest.approx(3.7)
    assert percentile([5.0], 0.9) == 5.0


def test_percentile_matches_the_inclusive_quantile_method():
    values = [0.3, 7.0, 1.5, 2.25, 9.0, 4.5, 3.0]
    cuts = statistics.quantiles(values, n=10, method="inclusive")
    for index, cut in enumerate(cuts, start=1):
        assert percentile(values, index / 10) == pytest.approx(cut)


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        percentile([], 0.5)
    with pytest.raises(ValueError):
        percentile([1.0], 1.5)


def _probes(*slowdowns):
    """A fake probe reading the given host slowdowns in turn."""
    readings = iter(slowdowns)
    return lambda: next(readings) * REFERENCE_PROBE_S


def test_windows_close_on_busy_time_and_drop_a_trailing_partial_one():
    windows = HostScaledWindows(1.0, _probes(*[1.0] * 6))
    for busy in (0.5, 0.5, 0.25, 1.0, 0.5):
        windows.record(busy, 10, [busy])
    assert [w.busy_s for w in windows.windows] == [1.0, 1.25]
    assert windows.rates(scaled=False) == [20.0, 16.0]
    # The trailing half-second cycle is in no full window.
    assert windows.latencies(scaled=False) == [0.5, 0.5, 0.25, 1.0]


def test_windows_scale_by_the_mean_probe_around_their_cycles():
    # Probes: before cycle 1, after cycle 1 (closing window 1), after cycle 2.
    windows = HostScaledWindows(1.0, _probes(1.0, 3.0, 1.0))
    windows.record(1.0, 10, [0.1])
    windows.record(2.0, 10, [0.2])
    first, second = windows.windows
    assert first.slowdown == pytest.approx(2.0) and second.slowdown == pytest.approx(2.0)
    assert first.probes_s[-1] == second.probes_s[0]
    # A host twice as slow as the reference: rates doubled, latencies halved.
    assert windows.rates() == [pytest.approx(20.0), pytest.approx(10.0)]
    assert windows.latencies() == [pytest.approx(0.05), pytest.approx(0.1)]


def test_host_slowdown_is_the_mean_probe_over_the_reference():
    assert host_slowdown(4, _probes(1.0, 2.0, 2.0, 3.0)) == pytest.approx(2.0)


def test_probe_takes_a_positive_time():
    assert 0.0 < probe_s() < 1.0


def test_tracer_self_time_excludes_children():
    tracer = Tracer()
    ticks = iter([0.0, 1.0, 3.0, 10.0])
    with patched([(tracing, "_clock", lambda: next(ticks))]):
        tracer.begin_request()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
    totals = tracer.totals()
    assert totals["outer"] == (1, 10.0, 8.0)
    assert totals["inner"] == (1, 2.0, 2.0)
    assert [record[4] for record in tracer.spans] == [0, 0]


def test_wrap_can_name_a_span_after_the_call():
    tracer = Tracer()
    state = {"hit": False}
    traced = tracer.wrap("chase", lambda: 42, lambda: lambda: "hit" if state["hit"] else "cold")
    assert traced() == 42
    state["hit"] = True
    traced()
    assert [record[0] for record in tracer.spans] == ["cold", "hit"]


def test_patched_restores_instance_and_module_attributes():
    class Box:
        def value(self):
            return 1

    box = Box()
    with patched([(box, "value", lambda: 2)]):
        assert box.value() == 2
    assert box.value() == 1 and "value" not in vars(box)
