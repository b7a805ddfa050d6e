"""Output checks: a corrupted golden or reference digest fails the run;
the frozen digests and the baseline match the corpora they came from."""

import json

import pytest

from benchmarks.e2e import WORKLOADS, calib, check, corpus, workload


def _smoke(name="diamonds"):
    return workload.parse_args(["--workload", name, "--seed", "5", "--seconds", "0.1", "--smoke"])


def test_clean_smoke_run_has_no_failures():
    out = workload.run(_smoke())
    assert out["failed"] == 0 and out["failures"] == []
    assert out["attempted"] == len(check.GOLDENS) + 2 * out["samples"]["latency_ms"] * out["passes"]


def test_corrupted_golden_fails_the_run(monkeypatch):
    figure, table = check.GOLDENS["FIG9_JOIN_IN"]
    corrupted = dict(check.GOLDENS, FIG9_JOIN_IN=(figure, {"6": {"In": frozenset({"x1"})}}))
    monkeypatch.setattr(check, "GOLDENS", corrupted)
    out = workload.run(_smoke())
    assert out["failed"] == 1
    assert out["failures"][0].startswith("FIG9_JOIN_IN: In(6)")


@pytest.mark.parametrize("frozen", [False, True], ids=["recomputed", "frozen-file"])
def test_corrupted_expected_digest_fails_each_op_on_it(monkeypatch, tmp_path, frozen):
    entries = corpus.build("diamonds", 5, corpus.SMOKE)
    victim = entries[0].key
    digests = check.reference("diamonds", entries)
    digests[victim]["report"] = "0" * 64
    if frozen:  # a clean reference would be recomputed if the file went unused
        monkeypatch.setattr(check, "EXPECTED_DIR", tmp_path)
        check.write_expected("diamonds", 5, entries, digests)
    else:
        monkeypatch.setattr(check, "reference", lambda name, items: digests)
    out = workload.run(_smoke())
    assert out["failed"] == out["passes"]  # the victim's optimize op, once per pass
    assert all(victim in line and "digest differs" in line for line in out["failures"])


def test_frozen_expected_files_match_their_corpora():
    for path in sorted(check.EXPECTED_DIR.glob("*-seed*.json")):
        doc = json.loads(path.read_text())
        entries = corpus.build(doc["workload"], doc["seed"])
        assert check.load_expected(doc["workload"], doc["seed"], entries) == doc["digests"], path.name
        assert doc["digests"] and all("rows" in fields for fields in doc["digests"].values())


def test_baseline_was_recorded_from_the_current_corpora():
    doc = json.loads((check.EXPECTED_DIR.parent / "baseline" / "seed0.json").read_text())
    meta = doc["meta"]
    assert meta["calib_ref_ms"] == calib.CALIB_REF_MS
    for name in WORKLOADS:
        assert corpus.sha256(corpus.build(name, meta["corpus_seed"])) == meta["corpus_sha256"][name], name
    assert sorted(r["workload"] for r in doc["runs"]) == sorted(WORKLOADS)
    assert all(r["failed"] == 0 for r in doc["runs"])
