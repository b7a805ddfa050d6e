"""Unit tests for the program digest and the per-AST memos
(repro.dataflow.cache, the gen/kill memo on the graph)."""

import gc
import hashlib
import weakref

import pytest

from repro import analyze, obs, optimize, parse_program
from repro.dataflow.cache import cached_build_pfg, program_digest
from repro.driver import run_request
from repro.paper import programs
from repro.reachdefs.genkill import compute_genkill

SOURCE = programs.SOURCES["fig6"]


# -- the serve record LRU and the memo counters ----------------------------


def _tiny(i):
    return f"program p{i}\n  (1) a = {i}\nend program\n"


def test_lru_bound_and_eviction_order(monkeypatch):
    from repro.serve import worker

    monkeypatch.setattr(worker, "RECORD_CACHE_MAX", 3)
    for i in range(3):
        worker.execute_request({"source": _tiny(i)})
    worker.execute_request({"source": _tiny(0)})  # refresh 0; 1 becomes least recent
    worker.execute_request({"source": _tiny(3)})
    assert [key[0] for key in worker._RECORDS] == [
        hashlib.sha256(_tiny(i).encode("utf-8")).hexdigest() for i in (2, 0, 3)
    ]


def test_hit_miss_counters_and_metrics():
    from repro.serve import worker

    prog = parse_program(SOURCE)
    with obs.session() as sess:
        cached_build_pfg(prog)
        cached_build_pfg(prog)
    counters = sess.metrics.as_dict()["counters"]
    assert counters["cache.pfg.misses"] == 1
    assert counters["cache.pfg.hits"] == 1
    first = worker.execute_request({"source": SOURCE})["counters"]
    repeat = worker.execute_request({"source": SOURCE})["counters"]
    assert (first.get("cache.serve.misses"), first.get("cache.serve.hits", 0)) == (1, 0)
    assert (repeat.get("cache.serve.misses", 0), repeat.get("cache.serve.hits")) == (0, 1)


def test_disabled_cache_always_misses_and_stores_nothing():
    prog = parse_program(SOURCE)
    a = analyze(prog, cache=False)
    b = analyze(prog, cache=False)
    assert a.graph is not b.graph
    assert getattr(prog, "_pfg", None) is None


# -- program digest --------------------------------------------------------


def test_digest_stable_across_parses_and_formatting():
    a = parse_program(SOURCE)
    b = parse_program(SOURCE)
    assert program_digest(a) == program_digest(b)
    # Formatting-only differences pretty-print identically -> same digest.
    reformatted = parse_program(SOURCE.replace("\n", "\n\n", 1))
    assert program_digest(reformatted) == program_digest(a)


def test_digest_discriminates_programs():
    assert program_digest(programs.program("fig6")) != program_digest(
        programs.program("fig3")
    )


# -- cached_build_pfg ------------------------------------------------------


def test_cached_build_pfg_hits_for_same_ast():
    prog = parse_program(SOURCE)
    with obs.session() as sess:
        g1 = cached_build_pfg(prog)
        g2 = cached_build_pfg(prog)
    assert g2 is g1
    assert sess.metrics.as_dict()["counters"]["pfg.builds"] == 1


def test_cached_build_pfg_rejects_different_parse_of_same_text():
    # PFG nodes hold statement objects; the interpreter matches them by
    # identity, so a graph is only valid for the AST it was built from.
    p1 = parse_program(SOURCE)
    p2 = parse_program(SOURCE)
    g1 = cached_build_pfg(p1)
    g2 = cached_build_pfg(p2)
    assert g2 is not g1
    assert cached_build_pfg(p2) is g2


# -- genkill memo ----------------------------------------------------------


def test_genkill_memoized_on_graph_with_counters():
    graph = programs.graph("fig6")
    graph._genkill_memo = None  # session fixtures may have warmed it
    with obs.session() as sess:
        first = compute_genkill(graph)
        second = compute_genkill(graph)
    assert second is first
    counters = sess.metrics.as_dict()["counters"]
    assert counters["cache.genkill.misses"] == 1
    assert counters["cache.genkill.hits"] == 1


def test_genkill_memo_dropped_on_graph_mutation():
    graph = programs.graph("fig1a")
    info = compute_genkill(graph)
    nodes = list(graph.nodes)
    graph.add_edge(nodes[0], nodes[-1], "seq")  # _invalidate() fires
    assert compute_genkill(graph) is not info


# -- analyze ---------------------------------------------------------------


def test_warm_analyze_reuses_graph():
    prog = parse_program(SOURCE)
    cold = analyze(prog)
    with obs.session() as sess:
        warm = analyze(prog)
    assert warm.graph is cold.graph
    assert warm.in_sets == cold.in_sets
    counters = sess.metrics.as_dict()["counters"]
    assert counters["solve.runs"] == 1  # results are not memoized
    assert counters.get("pfg.builds", 0) == 0
    assert counters["cache.genkill.hits"] == 1


def test_analyze_cache_discriminates_options():
    # One graph per AST, whatever the options; every result is solved
    # with its own options.
    prog = parse_program(SOURCE)
    a = analyze(prog)
    b = analyze(prog, solver="scc")
    c = analyze(prog, order="rpo")
    assert a.graph is b.graph is c.graph
    assert len({a.stats.order, b.stats.order, c.stats.order}) == 3


def test_analyze_with_budget_skips_result_cache():
    from repro.dataflow.budget import ResourceBudget

    prog = parse_program(SOURCE)
    analyze(prog)
    budget = ResourceBudget(max_passes=1000)
    analyze(prog, budget=budget)
    assert budget.passes > 0  # the warm AST still ran under its guard


def test_analyze_cache_bypasses():
    prog = parse_program(SOURCE)
    a = analyze(prog)
    b = analyze(prog, cache=False)
    assert b.graph is not a.graph
    assert analyze(prog).graph is a.graph  # cache=False left the memo alone


@pytest.fixture
def digest_calls(monkeypatch):
    """Counts every :func:`program_digest` call, under both names."""
    import repro.dataflow.cache as cache_mod
    import repro.driver as driver_mod

    calls = []

    def counting(program):
        calls.append(program)
        return program_digest(program)

    monkeypatch.setattr(cache_mod, "program_digest", counting)
    monkeypatch.setattr(driver_mod, "program_digest", counting)
    return calls


def test_analysis_never_computes_a_digest(digest_calls):
    prog = parse_program(SOURCE)
    analyze(prog)
    analyze(prog)
    optimize(parse_program(SOURCE))
    outcome = run_request(SOURCE)
    assert outcome.status == "ok"
    assert digest_calls == []


def test_request_summary_computes_the_digest_once(digest_calls):
    outcome = run_request(SOURCE)
    assert digest_calls == []
    summary = outcome.summary()
    assert len(digest_calls) == 1
    assert summary["digest"] == program_digest(parse_program(SOURCE))


def test_dropped_program_frees_graph_and_result_without_the_cycle_collector():
    gc.disable()
    try:
        prog = parse_program(SOURCE)
        result = analyze(prog)
        graph_ref, result_ref = weakref.ref(result.graph), weakref.ref(result)
        del prog, result
        assert graph_ref() is None
        assert result_ref() is None
    finally:
        gc.enable()
