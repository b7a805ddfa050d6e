"""A --smoke run of all five workloads, untraced and traced, is quick and
prints every metric BENCHMARK.json names."""

import subprocess
import sys
import time

from benchmarks.e2e import ROOT, child_env
from benchmarks.e2e.run import spec


def _run(*extra):
    start = time.monotonic()
    done = subprocess.run(
        [sys.executable, "-m", "benchmarks.e2e", "run", "--seed", "0", "--smoke", "--seconds", "0.2", *extra],
        cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert time.monotonic() - start < 30, "a smoke run took 30 s or more"
    return done


def test_smoke_run_prints_every_metric_in_under_30s(tmp_path):
    plain = _run()
    traced = _run("--trace", str(tmp_path / "spans.jsonl"))
    for section, out in (("end_to_end", plain.stdout), ("per_layer", traced.stdout)):
        for metric in spec()[section]:
            assert out.count(f"  {metric['name']} ") == 5, metric["name"]
    assert len(list(tmp_path.glob("spans-*.jsonl"))) == 5
