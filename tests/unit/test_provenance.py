"""Unit tests for :mod:`repro.provenance` (record / explain / diagnose)."""

import pytest

from repro import analyze, obs, parse_program
from repro.provenance import (
    ensure_provenance,
    explain_block,
    explain_use,
    format_step,
)
from repro.provenance.record import Fact

SEQ = """program seq
(1) x = 1
(2) if c then
  (3) x = 2
(4) endif
(5) y = x
end
"""

PAR = """program par
(1) x = 1
(2) parallel sections
  (3) section A
    (3) x = 2
  (4) section B
    (4) y = x
(5) end parallel sections
(6) z = x
end
"""


def solve(src, **kw):
    kw.setdefault("record_provenance", True)
    kw.setdefault("cache", False)
    return analyze(parse_program(src), **kw)


def test_provenance_is_off_by_default():
    result = analyze(parse_program(SEQ), cache=False)
    assert result.provenance is None


def test_fact_keys_and_counts():
    result = solve(SEQ)
    prov = result.provenance
    counts = prov.counts()
    assert set(counts) <= {"gen", "flow", "survive", "unsupported"}
    assert counts["gen"] == len(result.graph.defs)  # every def is born once
    assert prov.unsupported() == []
    node = result.graph.node("1")
    (x1,) = [d for d in result.graph.defs if d.name == "x1"]
    j = prov.justification("Out", node, x1)
    assert j.kind == "gen"
    assert j.fact == Fact("Out", node, x1)
    assert j.fact.key == "Out:1:x1"


def test_chain_is_root_first_and_ends_at_query():
    result = solve(SEQ)
    node5 = result.graph.node("5")
    (x1,) = [d for d in result.graph.defs if d.name == "x1"]
    steps = result.provenance.chain("In", node5, x1)
    assert steps[0].kind == "gen"
    assert steps[-1].fact.node is node5
    # Conditional redefinition: x1 must survive the merge, not block (3).
    survived = [s.fact.node.name for s in steps if s.kind == "survive"]
    assert "3" not in survived


def test_unknown_fact_raises_keyerror():
    result = solve(SEQ)
    node3 = result.graph.node("3")
    (x1,) = [d for d in result.graph.defs if d.name == "x1"]
    # x1 is gen-killed inside block 3 (it redefines x), so no Out fact.
    with pytest.raises(KeyError):
        result.provenance.justification("Out", node3, x1)


def test_explain_use_lists_every_reaching_definition():
    result = solve(SEQ)
    node5 = result.graph.node("5")
    (use,) = [u for u in node5.uses() if u.var == "x"]
    text = explain_use(result, use)
    assert "2 reaching definition" in text
    assert "x1:" in text and "x3:" in text
    assert text.count("born in block") == 2


def test_explain_block_unknown_var_is_a_value_error():
    result = solve(SEQ)
    with pytest.raises(ValueError):
        explain_block(result, "5", var="nosuch")


def test_explain_block_unknown_block_is_a_key_error():
    result = solve(SEQ)
    with pytest.raises(KeyError):
        explain_block(result, "99")


def test_explain_block_var_at_entry_without_read():
    # Block 6 reads x; ask for y, which reaches but is not read there.
    result = solve(PAR)
    text = explain_block(result, "6", var="y")
    assert "y at block entry" in text


def test_format_step_kinds_are_total():
    result = solve(PAR)
    prov = result.provenance
    pairs = list(prov.items())[:50]
    assert pairs
    for fact, just in pairs:
        assert just.fact == fact
        line = format_step(just)
        assert isinstance(line, str) and line


def test_ensure_provenance_is_idempotent():
    result = analyze(parse_program(PAR), cache=False)
    first = ensure_provenance(result)
    assert ensure_provenance(result) is first


def test_canonical_is_json_like_and_stable():
    a = solve(PAR).provenance.canonical()
    b = solve(PAR).provenance.canonical()
    assert a == b
    for key, entry in a.items():
        assert isinstance(key, str)
        assert set(entry) <= {"kind", "source", "edge"}


def test_solver_hook_reports_metrics():
    with obs.session() as sess:
        solve(PAR)
    counters = {k: c.value for k, c in sess.metrics.counters.items()}
    assert counters.get("provenance.records", 0) == 1
    assert counters.get("provenance.facts", 0) > 0
    spans = [r["name"] for r in obs.span_records(sess.tracer)]
    assert "provenance-record" in spans


def test_cache_key_separates_provenance_runs():
    prog = parse_program(PAR)
    plain = analyze(prog)
    with_prov = analyze(prog, record_provenance=True)
    assert plain.provenance is None
    assert with_prov.provenance is not None
    # The graph is shared per AST; provenance is per result.
    assert with_prov.graph is plain.graph
    assert analyze(prog).provenance is None
    assert analyze(prog, record_provenance=True).provenance is not None


@pytest.mark.parametrize("solver", ["round-robin", "worklist", "scc"])
def test_every_solver_finalizes_provenance(solver):
    result = solve(PAR, solver=solver)
    assert result.provenance is not None
    assert result.provenance.unsupported() == []
