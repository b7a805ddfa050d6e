"""Unit: the incremental diff/engine internals, plus the cache-identity
audit — region-row reuse must be valid across every wall-clock-only knob
(dense ``workers`` above all), so no such knob may appear in a cache key."""

from repro import analyze
from repro.dataflow.cache import AnalysisCache, GLOBAL_CACHE, MISSING
from repro.dataflow.dense import DenseConfig
from repro.fuzz.oracles import default_oracle_names
from repro.incremental import (
    IncrementalBase,
    incremental_analyze,
    lookup_base,
    match_graphs,
    store_base,
)
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
    stamp = outcome.stamp()
    assert stamp["regions_resolved"] == outcome.regions_solved
    assert stamp["fallback"] is None


def test_fullscratch_stats_keep_zero_region_counters():
    """as_dict gating: ordinary solves must not grow new keys (golden
    stats records elsewhere depend on this)."""
    result = analyze(workloads.diamond_chain(4), solver="scc", cache=False)
    assert "regions_reused" not in result.stats.as_dict()


def test_store_and_lookup_base_roundtrip():
    program = workloads.diamond_chain(5)
    result = analyze(program, solver="scc", cache=False)
    base = store_base(program, result)
    assert base is not None
    hit = lookup_base(base.digest)
    assert hit is base
    assert lookup_base("missing-digest") is None


# ---------------------------------------------------------------------------
# Cache identity audit (the DenseConfig.workers contract)
# ---------------------------------------------------------------------------


def test_dense_key_excludes_workers():
    assert DenseConfig(workers=1).key() == DenseConfig(workers=8).key()


def test_incr_base_key_has_no_option_components():
    """The incremental base is keyed by program digest alone: retained
    rows are backend-independent frozensets and solver choice never
    changes them, so one base must serve every configuration."""
    cache = AnalysisCache()
    program = workloads.diamond_chain(5)
    # Base produced under one configuration…
    result = analyze(program, solver="scc", backend="set", cache=False)
    base = store_base(program, result, cache=cache)
    assert cache.get(("incr", base.digest), MISSING) is base
    # …is found by lookups regardless of the requester's configuration:
    # the key has no backend/solver/dense/workers components at all.
    assert lookup_base(base.digest, cache=cache) is base


def test_region_row_reuse_across_region_workers():
    """Satellite contract: differing --region-workers values must share
    the same retained base AND produce identical incremental results —
    workers are wall-clock-only."""
    program = workloads.diamond_chain(8)
    base = IncrementalBase.from_result(
        program, analyze(program, solver="scc", cache=False)
    )
    edited = _edited_diamond(8)
    outcomes = [
        incremental_analyze(
            base, edited, cache=False,
            dense=DenseConfig(mode="auto", workers=w),
        )
        for w in (1, 4)
    ]
    a, b = outcomes
    assert a.regions_reused == b.regions_reused >= 1
    for n in a.result.graph.nodes:
        for slot in ("In", "Out"):
            assert a.result.set_names(slot, n.name) == b.result.set_names(slot, n.name)


def test_analyze_cache_hits_across_workers():
    """The full-result analyze cache already ignores workers via
    DenseConfig.key(); pin it so the knob never leaks back in."""
    GLOBAL_CACHE.clear()
    program = workloads.diamond_chain(5)
    r1 = analyze(program, solver="scc", dense=DenseConfig(mode="auto", workers=1))
    r2 = analyze(program, solver="scc", dense=DenseConfig(mode="auto", workers=4))
    assert r1 is r2  # second call is a cache hit, not a re-solve


def test_serve_key_audit_no_wallclock_knobs():
    """Audit the serve record key construction: every component is
    result-affecting (source, backend, preserved, solver, max_passes
    bounds the iteration, level picks the system, base_digest switches
    the delta path); wall-clock-only knobs (deadline_s, workers) must
    stay out.  Guarded by reading the worker source so a drive-by edit
    shows up here."""
    import inspect

    from repro.serve import worker

    src = inspect.getsource(worker._execute)
    key_block = src.split("serve_key = (")[1].split(")")[0]
    assert "deadline" not in key_block
    assert "workers" not in key_block
    for component in ("source_digest", "backend", "preserved", "solver",
                      "max_passes", "level", "base_digest"):
        assert component in key_block


def test_incremental_equivalence_in_default_battery():
    assert "incremental-equivalence" in default_oracle_names()
