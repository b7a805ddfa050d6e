"""Timing arithmetic: full collections are shared out, percentiles are
Harrell-Davis estimates."""

import gc

import pytest

from benchmarks.e2e import calib
from benchmarks.e2e.workload import quantile


def test_a_full_collection_is_shared_over_the_ops_since_the_previous_one():
    timings = [{} for _ in range(4)]
    with calib.Calibrated() as timer:
        timer.time(timings[0], lambda: None)
        timer.time(timings[1], lambda: None)
        timer.time(timings[2], gc.collect)  # lands in the third op
        timer.time(timings[3], lambda: None)
    shares = [t["gc_ms"] for t in timings[:3]]
    assert shares[0] > 0 and shares == [shares[0]] * 3
    assert timings[2]["raw_ms"] < 3 * shares[0]  # not charged the whole collection
    assert timings[3]["gc_ms"] == pytest.approx(shares[0])  # the run's mean share
    for t in timings:
        assert t["ref_ms"] == pytest.approx(calib.to_ref(t["raw_ms"], t["calib_ms"]))


@pytest.mark.parametrize("values, p, expected", [
    ([1, 2, 4, 8, 16, 32], 0.5, 7.5161),
    ([1, 2, 4, 8, 16, 32], 0.95, 30.5775),
    (list(range(1, 41)), 0.5, 20.5),
    (list(range(1, 41)), 0.95, 38.4983),
])
def test_quantile_is_the_harrell_davis_estimate(values, p, expected):
    assert quantile(list(reversed(values)), p) == pytest.approx(expected, rel=1e-5)
