"""Unit: the incremental diff/engine internals, plus the serve cache-key
audit — no wall-clock-only knob may appear in a cache key."""

from repro import analyze
from repro.fuzz.oracles import default_oracle_names
from repro.incremental import IncrementalBase, incremental_analyze, match_graphs
from repro.lang import ast
from repro.pfg import build_pfg
from repro.synthetic import workloads


def _edited_diamond(n=8, value=321):
    p = workloads.diamond_chain(n)
    p.body[-1].then_body[0] = ast.Assign(target="x", expr=ast.IntLit(value))
    return p


# ---------------------------------------------------------------------------
# diff
# ---------------------------------------------------------------------------


def test_match_identical_programs_trusts_everything():
    g1 = build_pfg(workloads.diamond_chain(6))
    g2 = build_pfg(workloads.diamond_chain(6))
    match = match_graphs(g1, g2)
    assert match.n_matched == len(g2.nodes)
    assert not match.dirty_nodes
    # The def map is a bijection over the full tables.
    assert len(match.def_map) == len(list(g1.defs))


def test_match_localizes_single_edit():
    g1 = build_pfg(workloads.diamond_chain(8))
    g2 = build_pfg(_edited_diamond(8))
    match = match_graphs(g1, g2)
    # Only the edited block and nodes whose environment it perturbs are
    # dirty; the replaced def survives in the def map (same target var),
    # so bystander x-definers stay trusted.
    assert 0 < len(match.dirty_nodes) <= 3
    assert match.n_matched >= len(g2.nodes) - 3


def test_match_name_renumbering_is_immaterial():
    """Inserting a statement early renumbers every downstream block name;
    content-based matching must still pair the unchanged suffix."""
    p1 = workloads.diamond_chain(8)
    p2 = workloads.diamond_chain(8)
    p2.body.insert(1, ast.Assign(target="fresh_v", expr=ast.IntLit(1)))
    match = match_graphs(build_pfg(p1), build_pfg(p2))
    assert match.n_matched > len(build_pfg(p1).nodes) // 2


def _reference_alignment(base, new):
    """Alignment over every node's full fingerprint, nothing skipped."""
    from difflib import SequenceMatcher

    from repro.incremental.diff import node_fingerprint

    b, n = base.document_order(), new.document_order()
    matcher = SequenceMatcher(
        None, [node_fingerprint(x) for x in b], [node_fingerprint(x) for x in n], autojunk=False
    )
    pairs, gaps = [], []
    for tag, i1, i2, j1, j2 in matcher.get_opcodes():
        if tag == "equal":
            pairs += zip(b[i1:i2], n[j1:j2])
        elif tag == "replace":
            gaps.append((b[i1:i2], n[j1:j2]))
    return pairs, gaps


def test_alignment_renders_only_shared_shapes(monkeypatch):
    """Nodes whose shape the other graph lacks are not rendered, and the
    alignment is the one every fingerprint rendered gives."""
    from repro.incremental import diff

    inserted = workloads.diamond_chain(8)
    inserted.body.insert(1, ast.Assign(target="fresh_v", expr=ast.IntLit(1)))
    cases = [
        (workloads.diamond_chain(8), _edited_diamond(8)),
        (workloads.diamond_chain(8), inserted),
        (workloads.chain(40), workloads.diamond_chain(20)),
        (workloads.diamond_chain(20), workloads.chain(40)),
        (workloads.par_diamond_loop(3, 2), workloads.diamond_chain(6)),
    ]
    for p1, p2 in cases:
        g1, g2 = build_pfg(p1), build_pfg(p2)
        assert diff._aligned_pairs(g1, g2) == _reference_alignment(g1, g2)

    rendered = []
    fingerprint = diff.node_fingerprint
    monkeypatch.setattr(diff, "node_fingerprint", lambda n: rendered.append(n) or fingerprint(n))
    g1, g2 = build_pfg(workloads.chain(40)), build_pfg(workloads.diamond_chain(20))
    match = match_graphs(g1, g2)
    assert match.n_matched == 0 and not match.def_map
    assert match.dirty_nodes == set(g2.nodes)
    assert 0 < len(rendered) < 6  # entry/exit-like blocks, not the 61 diamonds


def test_removed_definition_dirties_every_bystander_killer():
    """Deleting a def of x changes other_defs of every other x-definer —
    they must all be demoted to dirty even though their text is unchanged."""
    p1 = workloads.diamond_chain(8)
    p2 = workloads.diamond_chain(8)
    # Retarget: removes a def of x, adds a def of z.
    p2.body[3].then_body[0] = ast.Assign(target="z", expr=ast.IntLit(0))
    match = match_graphs(build_pfg(p1), build_pfg(p2))
    x_definers = {
        n for n in match.new.nodes if any(d.var == "x" for d in n.defs)
    }
    assert x_definers <= match.dirty_nodes


# ---------------------------------------------------------------------------
# engine
# ---------------------------------------------------------------------------


def test_incremental_stats_and_metrics_surface():
    base = IncrementalBase.from_result(
        workloads.diamond_chain(8),
        analyze(workloads.diamond_chain(8), solver="scc", cache=False),
    )
    outcome = incremental_analyze(base, _edited_diamond(8), cache=False)
    stats = outcome.result.stats.as_dict()
    assert stats["regions_reused"] == outcome.regions_reused > 0
    assert stats["regions_solved"] == outcome.regions_solved > 0
    assert outcome.result.stats.order == "incr/scc"
    assert outcome.fallback is None


def test_fullscratch_stats_keep_zero_region_counters():
    """as_dict gating: ordinary solves must not grow new keys (golden
    stats records elsewhere depend on this)."""
    result = analyze(workloads.diamond_chain(4), solver="scc", cache=False)
    assert "regions_reused" not in result.stats.as_dict()


# ---------------------------------------------------------------------------
# Cache identity audit
# ---------------------------------------------------------------------------


def test_serve_key_audit_no_wallclock_knobs():
    """Audit the serve record key construction: every component is
    result-affecting (source, backend, preserved, solver, max_passes
    bounds the iteration, level picks the system); wall-clock-only knobs
    (deadline_s, workers) must stay out.  Guarded by reading the worker
    source so a drive-by edit shows up here."""
    import inspect

    from repro.serve import worker

    src = inspect.getsource(worker._execute)
    key_block = src.split("serve_key = (")[1].split(")")[0]
    components = [c.strip() for c in key_block.split(",") if c.strip()]
    assert components == [
        "source_digest", "options.backend", "options.preserved",
        "options.solver", "options.max_passes", "options.level",
    ]


def test_incremental_equivalence_in_default_battery():
    assert "incremental-equivalence" in default_oracle_names()
