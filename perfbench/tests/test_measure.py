"""Percentile rule, calibration arithmetic, span self time."""

import pytest

from perfbench import probe, stats
from perfbench.spans import Recorder


@pytest.mark.parametrize("count, expected", [
    (5, 50.0), (19, 50.0), (20, 50.0), (39, 50.0), (40, 75.0), (99, 75.0),
    (100, 90.0), (199, 90.0), (200, 95.0), (999, 95.0), (1000, 99.0),
    (10000, 99.9),
])
def test_highest_percentile_needs_ten_samples_beyond(count, expected):
    assert stats.highest_percentile(count) == expected
    beyond = count * (100.0 - expected) / 100.0
    assert beyond >= stats.MIN_BEYOND - 1e-6 or expected == 50.0


def test_quantile_interpolates_and_survives_empty():
    assert stats.quantile([], 90.0) == 0.0
    assert stats.quantile([4.0], 90.0) == 4.0
    assert stats.quantile([1.0, 2.0, 3.0, 4.0, 5.0], 50.0) == 3.0
    assert stats.quantile([0.0, 10.0], 90.0) == pytest.approx(9.0)


def test_spread_is_the_drivers_rule():
    values = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
    import statistics

    first, middle, third = statistics.quantiles(values, n=4)
    assert stats.spread(values) == pytest.approx((third - first) / middle)
    assert stats.spread([3.0]) == 0.0


def _round(workload, factor, latencies, wall, setup=1.0):
    return {"workload": workload, "peak_rss_mb": 80.0, "attempted": 4,
            "failed": 0, "failures": [], "probe_factors": [factor],
            "setup": [(setup * factor, factor)] * 3,
            "blocks": [{"wall": wall, "factor": factor, "traced": False,
                        "latency_s": latencies, "lateness_s": [0.0]}]}


def test_calibration_cancels_host_speed():
    from perfbench.run import summarise

    # A host running 25 % slow makes probe and sample both 1.25x longer.
    assert probe.block_factor(1.2, 1.3) == pytest.approx(1.25)
    fast = _round("infer-wrn", 1.0, [0.100] * 4, wall=0.4)
    slow = _round("infer-wrn", 1.25, [0.125] * 4, wall=0.5)
    for rounds in ([fast], [slow], [fast, slow]):
        summary = summarise(rounds)
        assert summary["metrics"]["latency_ms_p50"] == pytest.approx(100.0)
        assert summary["metrics"]["throughput_ops_s"] == pytest.approx(10.0)
        assert summary["metrics"]["setup_s"] == pytest.approx(1.0)
    assert summarise([slow])["raw"]["latency_ms_p50"] == pytest.approx(125.0)
    # An open loop's throughput follows its schedule, not the host's speed.
    sparse = _round("serve-sparse", 1.25, [0.125] * 4, wall=0.5)
    assert summarise([sparse])["metrics"]["throughput_ops_s"] == \
        pytest.approx(8.0)


def test_probe_factor_is_probe_time_over_reference():
    ticks = iter(range(1000))
    scale = probe.PROBE_REF_S * 2.0          # every probe "takes" 2x the ref
    meter = probe.Probe(clock=lambda: next(ticks) * scale)
    assert meter.factor() == pytest.approx(2.0)
    assert meter.history == [pytest.approx(2.0)]


def test_self_time_is_duration_minus_covered_children():
    recorder = Recorder()
    parent = recorder.add("request", 0.0, 10.0, request="q0")
    recorder.add("a", 1.0, 4.0, parent=parent)
    recorder.add("b", 3.0, 6.0, parent=parent)      # overlaps a: union 1..6
    recorder.add("c", 9.0, 12.0, parent=parent)     # clipped at the parent
    leaf = recorder.add("leaf", 20.0, 21.0)
    own = recorder.self_times()
    assert own[parent] == pytest.approx(10.0 - 5.0 - 1.0)
    assert own[leaf] == pytest.approx(1.0)


def test_span_context_nests_and_records_parent_and_request():
    ticks = iter(range(100))
    recorder = Recorder(clock=lambda: float(next(ticks)))
    with recorder.span("outer", request="q7") as outer:
        with recorder.span("inner") as inner:
            pass
    assert recorder.spans[inner].parent == outer
    assert recorder.spans[outer].parent is None
    assert recorder.spans[outer].request == "q7"
    assert recorder.spans[outer].duration == 3.0
    assert recorder.self_times()[outer] == pytest.approx(2.0)
