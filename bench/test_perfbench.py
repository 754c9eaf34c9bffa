"""Self-tests of the benchmark's own rules (no solves; a fraction of a second).

    python3 -m pytest -q bench/test_perfbench.py
"""

import statistics

import pytest

from metrics import (
    PINS,
    check_eta,
    failed_ratio,
    percentile,
    relative_spread,
    tail_percentile,
)
from run import end_to_end, run_passes, tail_value
from tracer import NullTracer, Tracer


@pytest.mark.parametrize("n, want", [
    (0, None), (19, None), (20, 50.0), (99, 50.0), (100, 90.0),
    (199, 90.0), (200, 95.0), (999, 95.0), (1000, 99.0), (9999, 99.0),
    (10000, 99.9),
])
def test_tail_percentile_keeps_ten_samples_beyond(n, want):
    assert tail_percentile(n) == want


def test_failed_ratio_counts_operations_with_problems():
    samples = [{"problems": []}, {"problems": ["eta off"]},
               {"problems": ["a", "b"]}, {"problems": []}]
    assert failed_ratio(samples) == 0.5
    with pytest.raises(ValueError):
        failed_ratio([])


def test_pinned_eta_accepts_pin_and_rejects_perturbation():
    pin = PINS["carnot_eta"]["1000"]
    assert check_eta(1000.0, pin) is None
    assert check_eta(1000.0, pin * (1 + 5e-9)) is None
    assert check_eta(1000.0, pin * (1 + 1e-7)) is not None
    assert check_eta(2000.0, PINS["carnot_eta"]["1000"]) is not None
    assert check_eta(300.0, None) is not None


class _Fake:
    """Three operations per pass: one correct, one wrong, one raising."""

    def ops(self):
        def raises(tr):
            raise ZeroDivisionError("boom")
        return [("ok", lambda tr: ([], {})),
                ("wrong", lambda tr: (["mismatch"], {})),
                ("raises", raises)]


def test_run_passes_counts_raising_and_wrong_operations_as_failed():
    samples, passes = run_passes(_Fake(), NullTracer(), 0.0)
    assert len(passes) == 1
    assert [s["key"] for s in samples] == ["ok", "wrong", "raises"]
    assert failed_ratio(samples) == pytest.approx(2 / 3)
    assert "ZeroDivisionError" in samples[2]["problems"][0]
    e2e = end_to_end(samples, passes)
    assert set(e2e) == {"pass_s", "op_s.p50", "op_s.tail"}


def test_tail_value_is_slowest_input_below_a_hundred_inputs():
    assert tail_value([3.0, 1.0, 2.0]) == 3.0
    values = [float(i) for i in range(200)]
    assert tail_value(values) == percentile(values, 95.0)


def test_relative_spread_is_iqr_over_median():
    values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    assert relative_spread(values) == (q3 - q1) / q2


def test_tracer_records_parent_and_self_time():
    tr = Tracer()
    with tr.span("outer", case="a"):
        with tr.span("inner", case="a"):
            pass
    outer, inner = tr.spans
    assert inner["parent"] == outer["id"] and outer["parent"] is None
    assert tr.durations("inner", case="a") and not tr.find("inner", case="b")
    self_t = tr.self_times()
    total = outer["end"] - outer["start"]
    assert self_t["outer"] == pytest.approx(
        total - (inner["end"] - inner["start"]))
