"""Fast tests of the benchmark's own arithmetic: spans, tails, failure counting."""

import json
import time
from pathlib import Path

import pytest

import checks
import harness
import run
import spans
from spans import Span

ROOT = Path(__file__).resolve().parents[2]


def test_self_time_subtracts_the_union_of_children():
    synthetic = [
        Span("root", 0, 100, None, 0),
        Span("a", 10, 30, 0, 0),
        Span("b", 20, 50, 0, 0),  # overlaps a: the union 10..50 counts once
        Span("c", 60, 70, 0, 0),
        Span("a.child", 12, 18, 1, 0),
        Span("late", 95, 120, 0, 0),  # runs past its parent: clipped to 95..100
    ]
    assert spans.self_times(synthetic) == [100 - 40 - 10 - 5, 14, 30, 10, 6, 25]


def test_span_metrics_are_per_op_and_count_nested_same_name_once():
    ms = 1_000_000
    synthetic = [
        Span("experiments.run_fig4", 0, 10 * ms, None, 0),
        Span("prior.build_prior", 1 * ms, 9 * ms, 0, 0),
        Span("prior.fit_polynomial_to_curve", 2 * ms, 3 * ms, 1, 0, (1.0, 1.0, 2.0)),
        Span("prior.fit_polynomial_to_curve", 4 * ms, 5 * ms, 1, 0, (1.0, 1.0, 2.0)),
        Span("prior.fit_polynomial_to_curve", 6 * ms, 7 * ms, 1, 0, (0.9, 1.1, 2.1)),
        Span("experiments.csv_io", 20 * ms, 24 * ms, None, 1),
        Span("experiments.csv_io", 21 * ms, 23 * ms, 5, 1),  # write -> to_csv
        Span("setup.only", 0, 5 * ms, None, None),  # outside any op: ignored
    ]
    metrics = spans.span_metrics(synthetic, n_ops=2)
    assert set(metrics) == set(spans.SPAN_METRICS)
    assert metrics["prior.fit_polynomial_to_curve.calls"] == 1.5
    assert metrics["prior.fit_polynomial_to_curve.ms"] == pytest.approx(1.5)
    assert metrics["prior.build_prior.self_ms"] == pytest.approx((8 - 3) / 2)
    assert metrics["prior.useful_fit_ratio"] == pytest.approx(2 / 3)
    assert metrics["prior.fits_per_s"] == pytest.approx(3 / 3e-3)
    assert metrics["experiments.csv_io_ms"] == pytest.approx(4 / 2)
    assert metrics["experiments.self_ms"] == pytest.approx((10 - 8) / 2)
    assert metrics["estimators.mse_curve.calls"] == 0


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    samples = list(range(1, 42))  # 41 distinct samples, passed in reverse order
    value, percentile, beyond, n = harness.tail(samples[::-1])
    assert (value, beyond, n) == (31, 10, 41)
    assert percentile == pytest.approx(100 * 31 / 41)
    assert sum(1 for s in samples if s > value) == 10
    assert harness.tail(list(range(11)))[:3] == (0, 100 / 11, 10)


def test_tail_with_too_few_samples_reports_the_maximum_and_says_so():
    assert harness.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0, 3)
    with pytest.raises(ValueError):
        harness.tail([])


def _loop_with_reference(reference):
    ratios = checks.FIG2_GAIN_RATIOS

    def op(i, tracer):
        if i == 3:
            raise RuntimeError("op failed")
        return ratios

    def check(i, output):
        return checks.close("fig2 gain ratios", output, reference, rel=1e-3)

    return harness.closed_loop(op, check, seconds=0.05)


def test_fail_frac_counts_check_misses_and_exceptions():
    good = _loop_with_reference(checks.FIG2_GAIN_RATIOS)
    assert good.attempted > 4 and good.failed == 1  # only the op that raised
    wrong = list(checks.FIG2_GAIN_RATIOS)
    wrong[4] *= 1.01  # a deliberately wrong reference
    bad = _loop_with_reference(wrong)
    assert bad.failed == bad.attempted
    metrics = harness.end_to_end(bad, setup_seconds=1.0, peak_rss_mb=1.0)
    assert metrics["fail_frac"][0] == 1.0
    assert metrics["ops_per_s"][0] == 0.0


def test_op_cal_divides_each_op_by_the_calibration_around_it():
    loop = harness.LoopResult([10.0, 20.0, 30.0], [False] * 3, [None] * 3, [[]] * 3, [2.0, 2.0, 3.0])
    metrics = harness.end_to_end(loop, setup_seconds=1.0, peak_rss_mb=1.0)
    assert metrics["op_cal.p50"][0] == pytest.approx(10.0)
    assert metrics["op_cal.mean"][0] == pytest.approx(25 / 3)
    assert metrics["ops_per_s"][0] == pytest.approx(3 / 0.06)


def test_timed_loop_calibrates_around_every_op():
    loop = harness.closed_loop(
        lambda i, tracer: time.sleep(0.02), lambda i, output: [], seconds=0.2, kernel=lambda: time.sleep(0.002)
    )
    assert len(loop.cal_ms) == loop.attempted > 2
    # 20 ms ops against a 2 ms kernel; sleeps overshoot, never undershoot
    assert all(1.9 < ms < 4.0 for ms in loop.cal_ms)
    assert 5 < harness.end_to_end(loop, 1.0, 1.0)["op_cal.p50"][0] < 11


def test_importtime_shares_add_up_to_import_patrain():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |   encodings",
        "import time:      1000 |       1000 |       numpy.core",
        "import time:       500 |       1500 |     numpy",
        "import time:       200 |        200 |           numpy.testing",
        "import time:       300 |        300 |           inspect",
        "import time:       400 |        900 |         scipy._lib",
        "import time:       600 |       1500 |       scipy.linalg",
        "import time:       700 |       2200 |     patrain.estimators",
        "import time:        50 |       3750 |   patrain",
    ])
    shares = spans.importtime_ms(text)
    assert shares == pytest.approx({"numpy": 1.5, "scipy": 1.5, "patrain": 0.75})
    assert sum(shares.values()) == pytest.approx(3.75)


def test_benchmark_json_lists_what_the_runs_print():
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {name: unit for name, (_, unit, _) in harness.end_to_end(
        harness.LoopResult([1.0], [False], [None], [[]]), 1.0, 1.0).items()}
    assert [m["name"] for m in config["end_to_end"]] == list(run.REPORTED_END_TO_END)
    assert all(m["unit"] == units[m["name"]] for m in config["end_to_end"])
    assert {m["name"]: m["unit"] for m in config["per_layer"]} == spans.PER_LAYER_UNITS
    assert [w["name"] for w in config["workloads"]] == ["cli_cold", "prior_mc", "design_oracle", "estimator_sweep"]
