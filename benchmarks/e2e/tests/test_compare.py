"""The parent-vs-change verdict rule and the spread summary."""

import json

from benchmarks.e2e.compare import classify, compare, spread

PARENT = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.3]


def test_win_needs_nine_of_ten_pairs_and_a_gap_wider_than_the_parent_spread():
    faster = [v * 0.8 for v in PARENT]
    assert classify(PARENT, faster, "lower", 0.1)[0] == "better"
    eight_of_ten = faster[:8] + [v * 1.01 for v in PARENT[8:]]
    assert classify(PARENT, eight_of_ten, "lower", 0.1)[0] == "unchanged"
    assert classify(PARENT, [v * 1.2 for v in PARENT], "higher", 0.1)[0] == "better"


def test_worse_beyond_the_bound_and_unresolved_when_the_parent_is_noisy():
    assert classify(PARENT, [v * 1.05 for v in PARENT], "lower", 0.1)[0] == "unchanged"
    assert classify(PARENT, [v * 1.2 for v in PARENT], "lower", 0.1)[0] == "worse"
    noisy = [60.0, 140.0] * 5
    assert classify(noisy, [v * 1.05 for v in noisy], "lower", 0.1)[0] == "unresolved"


def _log(path, values, failed=0):
    runs = [{"workload": "diamonds", "seed": i, "failed": failed,
             "metrics": {"latency_ms.p50": v}} for i, v in enumerate(values)]
    path.write_text(json.dumps({"meta": {}, "runs": runs}))
    return path


def test_compare_reports_one_row_per_workload_and_its_exit_status(tmp_path):
    spec = {"end_to_end": [{"name": "latency_ms.p50", "unit": "ref-ms", "better": "lower", "bound": 0.1}]}
    parent = _log(tmp_path / "parent.json", PARENT)
    lines, status = compare(parent, _log(tmp_path / "slow.json", [v * 1.3 for v in PARENT]), spec)
    assert status == 1 and lines == ["diamonds (10 pairs): latency_ms.p50=worse(+30.0%)"]
    lines, status = compare(parent, _log(tmp_path / "few.json", PARENT[:9]), spec)
    assert status == 2
    lines, status = compare(parent, _log(tmp_path / "failing.json", PARENT, failed=1), spec)
    assert status == 1 and "failed-ops=10 vs parent 0" in lines[0]


def test_spread_reports_quartile_spread_and_median_move(tmp_path):
    spec = {"end_to_end": [{"name": "latency_ms.p50", "unit": "ref-ms", "better": "lower", "bound": 0.1}]}
    first = _log(tmp_path / "first.json", PARENT)
    second = _log(tmp_path / "second.json", [v * 1.02 for v in PARENT])
    cell = spread(first, second, spec)["diamonds"]["latency_ms.p50"]
    assert 0 < cell["spread"] < 0.01
    assert abs(cell["moved"] - 0.02) < 1e-9
