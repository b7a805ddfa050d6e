"""Optimization-driver (façade) tests."""

from repro import optimize
from repro.analysis import AnomalyKind, SyncIssueKind
from repro.lang import parse_program
from repro.paper import programs

CLEAN = """program clean
event go
(1) base = 4
(2) parallel sections
  (3) section producer
    (3) payload = base * 2
    (3) post(go)
  (4) section consumer
    (4) wait(go)
    (4) got = payload
(5) end parallel sections
(5) final = got
end"""

RACY = """program racy
(1) x = 0
parallel sections
  section A
    (2) x = 1
  section B
    (3) x = 2
(4) end parallel sections
end"""


def test_accepts_source_text_and_programs():
    by_text = optimize(CLEAN)
    by_tree = optimize(parse_program(CLEAN))
    assert by_text.result.system == by_tree.result.system == "synch"


def test_clean_program_is_clean():
    report = optimize(CLEAN)
    assert report.is_clean
    assert report.anomalies == [] and report.sync_issues == []
    counts = report.opportunity_count()
    assert counts["constant-definitions"] >= 3  # base, payload, got, final


def test_racy_program_not_clean():
    report = optimize(RACY)
    assert not report.is_clean
    assert any(a.kind is AnomalyKind.RACE for a in report.anomalies)


def test_fig3_report_flags_stale_event():
    report = optimize(programs.program("fig3"))
    assert not report.is_clean
    assert any(i.kind is SyncIssueKind.STALE_EVENT for i in report.sync_issues)


def test_fig1b_report_finds_induction_variable():
    report = optimize(programs.program("fig1b"))
    assert [iv.var for iv in report.induction_variables] == ["j"]
    assert report.constants.constant_at("6", "k") == 5


def test_render_mentions_everything():
    text = optimize(CLEAN).render()
    assert "optimization report for 'clean'" in text
    assert "constant" in text and "safety:" in text


def test_render_racy_lists_race():
    text = optimize(RACY).render()
    assert "race of 'x'" in text


def test_post_without_wait_does_not_block_cleanliness():
    src = "program p\nevent e\n(1) x = 1\npost(e)\nend"
    report = optimize(src)
    assert report.sync_issues and report.is_clean


def test_observable_at_exit_toggle():
    src = "program p\n(1) x = 1\nend"
    assert optimize(src).dead_code.dead == frozenset()
    report = optimize(src, observable_at_exit=False)
    assert {d.name for d in report.dead_code.dead} == {"x1"}


def test_opportunity_count_keys_stable():
    counts = optimize(CLEAN).opportunity_count()
    assert set(counts) == {
        "constant-definitions",
        "induction-variables",
        "dead-definitions",
        "copy-propagations",
        "common-subexpressions",
    }


# -- run_request: the typed request pipeline --------------------------------


def test_run_request_outcome_matches_optimize():
    from repro.driver import run_request

    outcome = run_request(RACY)
    assert (outcome.status, outcome.code, outcome.error) == ("ok", 0, None)
    report = optimize(RACY)
    assert outcome.report.render() == report.render()
    summary = outcome.summary()
    assert summary["anomalies"] == len(report.anomalies)
    assert summary["sync_issues"] == len(report.sync_issues)
    assert summary["digest"] == outcome.digest and len(outcome.digest) == 64


def test_run_request_runs_clients_only_on_access(monkeypatch):
    from repro import driver

    calls = []
    monkeypatch.setattr(driver, "find_anomalies", lambda result: calls.append(1) or [])
    outcome = driver.run_request(RACY)
    assert calls == []
    outcome.summary()
    outcome.summary()
    assert calls == [1]


def test_run_request_never_raises():
    from repro.driver import RequestOptions, run_request

    bad = run_request("program bad\nx = = 1\nend\n")
    assert (bad.status, bad.code, bad.result, bad.program) == ("error", 1, None, None)
    tripped = run_request(CLEAN, RequestOptions(max_passes=1, degrade=False))
    assert (tripped.status, tripped.code) == ("failed", 2)
    assert tripped.error.startswith("analysis did not converge:")
    assert tripped.partial_stats is not None and not tripped.partial_stats.converged
    degraded = run_request(CLEAN, RequestOptions(max_passes=1))
    assert (degraded.status, degraded.code) == ("degraded", 0)
    assert degraded.degradation.level_name == "conservative"


def test_run_request_base_digest_paths():
    from repro.driver import RequestOptions, run_request

    first = run_request(RACY)
    delta = run_request(RACY, RequestOptions(base_digest=first.digest))
    assert delta.status == "ok" and delta.incremental["fallback"] is None
    miss = run_request(RACY, RequestOptions(base_digest="no-such-digest"))
    assert miss.incremental["fallback"] == "base-miss"
    assert miss.incremental["regions_reused"] == 0
    degraded = run_request(RACY, RequestOptions(base_digest=first.digest, level=2))
    assert degraded.status == "degraded"
    assert degraded.incremental["fallback"] == "degraded"
