"""Pluggable oracle registry for differential fuzzing.

An *oracle* is a property every healthy pipeline run must satisfy; the
fuzz driver (:mod:`repro.fuzz.driver`) throws generated programs at the
registry and any returned :class:`OracleFailure` is a bug — in the
equations, a solver, the front end, or the oracle itself.  Four families,
mirroring how the paper's claims decompose:

``solver-agreement`` (differential)
    The four fixpoint engines (stabilized / round-robin / worklist / scc)
    are different schedules over the same equations.  Without
    synchronization the system is monotone and their In/Out fixpoints
    must be identical node-for-node; with synchronization the system is
    non-monotone (multiple fixpoints — see
    ``tests/regression/test_fixpoint_multiplicity.py``), so the two
    deterministic engines must agree exactly while the chaotic engines
    must be pointwise over-approximations of the stabilized result.

``system-bounds`` (differential)
    The systems form a precision chain that the fuzzer checks pointwise:
    full (§6 with Preserved) ⊆ no-preserved (§6 without) ⊆ the
    accumulate-only conservative floor — i.e. every degraded result
    *absorbs* the full result — plus the local sanities Gen ⊆ Out and
    Out ∩ Kill = ∅.

``pipeline-invariants`` (round-trip)
    pretty → parse reproduces the AST structurally, the built PFG passes
    :func:`repro.pfg.validate_pfg`, and the CSSA form rebuilds.

``metamorphic``
    Every transform in :mod:`repro.fuzz.mutate` must leave
    reaching-definition chains unchanged modulo the transform's own
    statement/variable maps.  Chains are compared at *statement*
    granularity (through :class:`repro.interp.trace.StmtLocationIndex`),
    so block renumbering under padding or reordering is immaterial.

``incremental-equivalence`` (differential)
    A random statement-level edit script (:func:`repro.fuzz.mutate.
    random_edit_script`) is applied and the edited program is re-solved
    *incrementally* off the original's retained rows
    (:mod:`repro.incremental`); the sets must be byte-identical to a
    from-scratch solve for every deterministic solver, seeded rows
    re-verified as fixpoints.

``dynamic-selfcheck``
    The existing dynamic oracle (:func:`repro.robust.selfcheck.verify_result`):
    seeded interpreter runs must never observe a definition outside the
    static ud-chains.  A deadlocked schedule is also reported — the
    generator guarantees deadlock-free synchronization, so a deadlock
    means the harness (or the interpreter) broke its contract.

Oracles never raise on a *finding* — they return failures.  An unexpected
exception inside an oracle is converted into a failure too (detail
prefixed ``oracle crashed:``), so one crash cannot hide later findings.
"""

from __future__ import annotations

import traceback
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..cssa import build_cssa
from ..dataflow.dense import DenseConfig
from ..dataflow.solver import DETERMINISTIC_SOLVERS, SOLVER_NAMES
from ..interp.trace import StmtLocationIndex
from ..ir.defs import Use
from ..lang import ast, parse_program, pretty
from ..lang.ast import structurally_equal
from ..obs import get_metrics
from ..pfg import build_pfg, validate_pfg
from ..reachdefs import (
    ReachingDefsResult,
    equation_family,
    solve_conservative,
    solve_synch,
    solve_system,
)
from .mutate import MUTATORS, Mutation, apply_mutators

#: Every solver name (the registry tuple).
ALL_SOLVERS: Tuple[str, ...] = SOLVER_NAMES

#: One engine configuration: a solver name and the DenseConfig it runs with.
Engine = Tuple[str, Optional[DenseConfig]]

#: Engines compared by the agreement and incremental oracles: every
#: solver, plus ``scc`` with the vectorized dense-region evaluator forced
#: on, so the campaign differentially checks it against every scalar engine.
ALL_ENGINES: Tuple[Engine, ...] = tuple((s, None) for s in ALL_SOLVERS) + (
    ("scc", DenseConfig(mode="always")),
)

#: Cap on per-oracle failure details; a broken equation system fails on
#: most nodes and drowning the report helps nobody.
MAX_DETAILS = 5


@dataclass(frozen=True)
class OracleFailure:
    """One violated property: which oracle, and what it saw."""

    oracle: str
    detail: str

    def format(self) -> str:
        return f"[{self.oracle}] {self.detail}"


@dataclass(frozen=True)
class OracleConfig:
    """Knobs shared by the registry (one instance per campaign)."""

    engines: Tuple[Engine, ...] = ALL_ENGINES
    backend: str = "bitset"
    mutators: Tuple[str, ...] = tuple(MUTATORS)
    mutation_seed: int = 0
    #: Seeded interpreter schedules for the dynamic oracle.
    dynamic_runs: int = 3
    max_loop_iters: int = 2


OracleFn = Callable[[ast.Program, OracleConfig], List[OracleFailure]]

#: The registry: oracle name → implementation, in registration order
#: (which is also the execution order of :func:`run_oracles`).
ORACLES: Dict[str, OracleFn] = {}

#: Oracles excluded from the default set (opt-in; the dynamic oracle
#: interprets the program several times and dominates campaign cost).
OPT_IN_ORACLES = frozenset({"dynamic-selfcheck"})


def register(name: str) -> Callable[[OracleFn], OracleFn]:
    def deco(fn: OracleFn) -> OracleFn:
        ORACLES[name] = fn
        return fn

    return deco


def default_oracle_names(dynamic: bool = False) -> Tuple[str, ...]:
    """The standard oracle battery; ``dynamic=True`` includes the opt-in
    interpreter-backed self-check."""
    return tuple(
        n for n in ORACLES if dynamic or n not in OPT_IN_ORACLES
    )


# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------


def _engine_name(engine: Engine) -> str:
    solver, dense = engine
    return solver if dense is None else f"{solver} (dense={dense.mode})"


def _solve(graph, cfg: OracleConfig, engine: Engine) -> ReachingDefsResult:
    solver, dense = engine
    return solve_system(graph, backend=cfg.backend, solver=solver, dense=dense)


def _trim(failures: List[OracleFailure], total: int) -> List[OracleFailure]:
    if total > MAX_DETAILS:
        failures.append(
            OracleFailure(failures[0].oracle, f"... {total - MAX_DETAILS} more")
        )
    return failures


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------


def solver_agreement_mode(program: ast.Program) -> str:
    """``"exact"`` when every engine must agree node-for-node (the kill
    layer is static without synchronization, so the system is monotone
    with a unique least fixpoint), ``"bounded"`` on synchronized
    programs (deterministic engines exact; chaotic engines must be
    pointwise over-approximations of the stabilized result)."""
    uses_sync = any(isinstance(s, (ast.Post, ast.Wait)) for s in program.walk())
    return "bounded" if uses_sync else "exact"


@register("solver-agreement")
def solver_agreement(program: ast.Program, cfg: OracleConfig) -> List[OracleFailure]:
    """Differential check over the fixpoint engines.

    Without synchronization all engines must compute identical In/Out
    sets.  With synchronization, the deterministic engines (stabilized,
    scc) must still agree exactly, and each chaotic engine's sets must
    *contain* the stabilized ones — chaotic iteration may settle in a
    less precise fixpoint of the non-monotone system, but one *below*
    the deterministic least resolution would mean lost soundness facts.
    """
    graph = build_pfg(program)
    baseline_name = _engine_name(cfg.engines[0])
    baseline = _solve(graph, cfg, cfg.engines[0])
    exact_mode = solver_agreement_mode(program) == "exact"
    failures: List[OracleFailure] = []
    mismatches = 0
    for engine in cfg.engines[1:]:
        result = _solve(graph, cfg, engine)
        solver = _engine_name(engine)
        exact = exact_mode or engine[0] in DETERMINISTIC_SOLVERS
        for node in graph.nodes:
            for which in ("In", "Out"):
                a = baseline.set_names(which, node)
                b = result.set_names(which, node)
                ok = a == b if exact else a <= b
                if not ok:
                    mismatches += 1
                    relation = "disagrees with" if exact else "drops facts of"
                    if len(failures) < MAX_DETAILS:
                        failures.append(
                            OracleFailure(
                                "solver-agreement",
                                f"{which}({node.name}): {solver} {relation} "
                                f"{baseline_name}: {sorted(b)} vs {sorted(a)}",
                            )
                        )
    return _trim(failures, mismatches)


@register("system-bounds")
def system_bounds(program: ast.Program, cfg: OracleConfig) -> List[OracleFailure]:
    """Precision chain: full ⊆ no-preserved ⊆ conservative, pointwise,
    plus Gen ⊆ Out and Out ∩ (Kill ∪ ParallelKill) = ∅."""
    failures: List[OracleFailure] = []
    mismatches = 0

    def check(name: str, cond: bool, detail: str) -> None:
        nonlocal mismatches
        if not cond:
            mismatches += 1
            if len(failures) < MAX_DETAILS:
                failures.append(OracleFailure("system-bounds", detail))

    graph = build_pfg(program)
    full = solve_system(graph, backend=cfg.backend)
    cons = solve_conservative(build_pfg(program), backend=cfg.backend)
    blunt = (
        solve_synch(build_pfg(program), backend=cfg.backend, preserved="none")
        if equation_family(graph) == "synch"
        else None
    )
    for i, node in enumerate(graph.nodes):
        cnode = cons.graph.nodes[i]
        check(
            "floor-in",
            full.in_names(node) <= cons.in_names(cnode),
            f"In({node.name}): full ⊄ conservative floor: "
            f"{sorted(full.in_names(node) - cons.in_names(cnode))} escape",
        )
        check(
            "floor-out",
            full.out_names(node) <= cons.out_names(cnode),
            f"Out({node.name}): full ⊄ conservative floor: "
            f"{sorted(full.out_names(node) - cons.out_names(cnode))} escape",
        )
        if blunt is not None:
            bnode = blunt.graph.nodes[i]
            check(
                "preserved-in",
                full.in_names(node) <= blunt.in_names(bnode),
                f"In({node.name}): preserved info *added* definitions: "
                f"{sorted(full.in_names(node) - blunt.in_names(bnode))}",
            )
            check(
                "absorb-in",
                blunt.in_names(bnode) <= cons.in_names(cnode),
                f"In({node.name}): no-preserved ⊄ conservative floor",
            )
        check(
            "gen-out",
            full.Gen(node) <= full.Out(node),
            f"Out({node.name}) drops its own Gen",
        )
        killed = full.Kill(node)
        if full.acc_killin is not None:
            killed = killed | full.ParallelKill(node)
        check(
            "out-kill",
            not (full.Out(node) & killed),
            f"Out({node.name}) intersects its kill sets",
        )
    return _trim(failures, mismatches)


@register("pipeline-invariants")
def pipeline_invariants(program: ast.Program, cfg: OracleConfig) -> List[OracleFailure]:
    """Front-end and graph invariants: pretty→parse round-trip, PFG
    validation, CSSA rebuild."""
    failures: List[OracleFailure] = []
    source = pretty(program)
    try:
        reparsed = parse_program(source)
        if not structurally_equal(program, reparsed):
            failures.append(
                OracleFailure(
                    "pipeline-invariants", "pretty→parse round-trip changed the AST"
                )
            )
    except Exception as err:  # LangError: the pretty text is not valid source
        failures.append(
            OracleFailure("pipeline-invariants", f"pretty output does not parse: {err}")
        )
    try:
        graph = build_pfg(program)
        validate_pfg(graph)
    except Exception as err:  # PFGInvariantError, SemanticError
        failures.append(
            OracleFailure("pipeline-invariants", f"PFG build/validate failed: {err}")
        )
        return failures
    try:
        build_cssa(graph)
    except Exception as err:
        failures.append(
            OracleFailure("pipeline-invariants", f"CSSA rebuild failed: {err}")
        )
    return failures


def _chain_mismatches(
    program: ast.Program,
    base: ReachingDefsResult,
    mutation: Mutation,
    mutant: ReachingDefsResult,
) -> List[str]:
    """Compare reaching chains of every original read against the mutant,
    through the mutation's statement/variable maps.  Returns mismatch
    descriptions (empty = metamorphically equivalent)."""
    base_index = StmtLocationIndex(base.graph)
    mut_index = StmtLocationIndex(mutant.graph)
    out: List[str] = []

    def compare(stmt: ast.Stmt, reads: Sequence[str]) -> None:
        counterpart = mutation.mapped(stmt)
        if isinstance(stmt, (ast.If, ast.While)):
            loc0 = base_index.of_cond(stmt.cond)
            loc1 = mut_index.of_cond(counterpart.cond)  # type: ignore[union-attr]
        else:
            loc0 = base_index.of_stmt(stmt)
            loc1 = mut_index.of_stmt(counterpart)
        if loc0 is None or loc1 is None:  # pragma: no cover - conds always placed
            out.append(f"statement at {stmt.span} lost its graph coordinates")
            return
        for var in reads:
            chain0 = base.reaching_use(Use(var, loc0[0], loc0[1]))
            chain1 = mutant.reaching_use(
                Use(mutation.mapped_var(var), loc1[0], loc1[1])
            )
            mapped = {
                mut_index.definition(mutation.mapped(d.stmt)).name
                for d in chain0
                if d.stmt is not None
            }
            got = {d.name for d in chain1}
            if mapped != got:
                out.append(
                    f"{mutation.name}: chain of {var} at {loc0[0]}#{loc0[1]} "
                    f"changed: expected {sorted(mapped)}, got {sorted(got)}"
                )

    for stmt in program.walk():
        if isinstance(stmt, ast.Assign):
            compare(stmt, stmt.expr.variables())
        elif isinstance(stmt, (ast.If, ast.While)):
            compare(stmt, stmt.cond.variables())
    return out


@register("metamorphic")
def metamorphic(program: ast.Program, cfg: OracleConfig) -> List[OracleFailure]:
    """Each transform leaves reaching chains unchanged modulo its maps."""
    metrics = get_metrics()
    base = solve_system(build_pfg(program), backend=cfg.backend)
    failures: List[OracleFailure] = []
    mismatches = 0
    for mutation in apply_mutators(program, cfg.mutation_seed, names=cfg.mutators):
        if metrics.enabled:
            metrics.inc("fuzz.mutants")
        mutant = solve_system(build_pfg(mutation.program), backend=cfg.backend)
        for detail in _chain_mismatches(program, base, mutation, mutant):
            mismatches += 1
            if len(failures) < MAX_DETAILS:
                failures.append(OracleFailure("metamorphic", detail))
    return _trim(failures, mismatches)


@register("provenance-chains")
def provenance_chains(program: ast.Program, cfg: OracleConfig) -> List[OracleFailure]:
    """The justification graph explains the fixpoint it annotates.

    Three laws, cross-checked against the ud-chains the optimization
    clients actually consume:

    * the stabilized fixpoint is fully *supported* — every In/Out fact
      has a derivation from some gen root (an unsupported fact would mean
      the solver kept a definition alive that no birth site feeds);
    * every inflowing ud-chain definition has a chain that starts with a
      ``gen`` step at its defining node and ends at the use's node;
    * the SCC engine yields the *identical* canonical justification graph
      (provenance must not depend on the visit schedule).
    """
    base = solve_system(build_pfg(program), backend=cfg.backend, record_provenance=True)
    prov = base.provenance
    failures: List[OracleFailure] = []
    total = 0

    def fail(detail: str) -> None:
        nonlocal total
        total += 1
        if len(failures) < MAX_DETAILS:
            failures.append(OracleFailure("provenance-chains", detail))

    for fact in prov.unsupported():
        fail(f"unsupported fixpoint fact {fact.key}")
    for use, defs in sorted(base.ud_chains().items(), key=lambda kv: kv[0].name):
        node = base.graph.node(use.site) if isinstance(use.site, str) else use.site
        if node.local_def_before(use.var, use.ordinal) is not None:
            continue  # intra-block chain; no In fact involved
        for d in sorted(defs, key=lambda d: d.index):
            if not prov.has_fact("In", node, d):
                fail(f"ud-chain def {d.name} of use {use.name} has no In fact")
                continue
            chain = prov.chain("In", node, d)
            root, last = chain[0], chain[-1]
            if root.kind != "gen" or root.fact.node is not base.info.def_node[d]:
                fail(
                    f"chain of {d.name} at ({node.name}) roots at "
                    f"{root.kind}:{root.fact.key}, not gen at its defining node"
                )
            if last.fact.node is not node:
                fail(
                    f"chain of {d.name} ends at ({last.fact.node.name}), "
                    f"not the use's block ({node.name})"
                )
    scc = solve_system(build_pfg(program), backend=cfg.backend, solver="scc", record_provenance=True)
    if scc.provenance.canonical() != prov.canonical():
        fail("scc justification graph differs from stabilized")
    return _trim(failures, total) if total > MAX_DETAILS else failures


@register("incremental-equivalence")
def incremental_equivalence(
    program: ast.Program, cfg: OracleConfig
) -> List[OracleFailure]:
    """Differential check of the incremental engine (:mod:`repro.incremental`).

    Apply a random edit script (insert/delete/replace statements, seeded
    by ``cfg.mutation_seed``), then assert that re-solving the edited
    program *incrementally off the original's retained rows* produces
    exactly the sets a from-scratch solve produces — for every
    deterministic solver.  The incremental run uses ``verify=True``, so
    the scheduler additionally re-evaluates every seeded node and raises
    if any retained row was not already a fixpoint (that raise surfaces
    as an oracle crash → failure).  Fallback outcomes (sync programs,
    structurally unmatched edits) take the full-solve path and must be
    equal trivially — the oracle checks them anyway, pinning the
    zero-wrong-answers contract of the fallback matrix.
    """
    from ..incremental import IncrementalBase, incremental_analyze
    from .mutate import random_edit_script

    edit = random_edit_script(program, seed=cfg.mutation_seed, n_edits=2)
    if edit is None:
        return []
    failures: List[OracleFailure] = []
    mismatches = 0
    engines = tuple(e for e in cfg.engines if e[0] in DETERMINISTIC_SOLVERS) or (
        ("stabilized", None),
    )
    for engine in engines:
        base_graph = build_pfg(program)
        base = IncrementalBase(
            program=program, graph=base_graph, result=_solve(base_graph, cfg, engine)
        )
        outcome = incremental_analyze(
            base, edit.program, backend=cfg.backend, solver=engine[0], dense=engine[1],
            cache=False, verify=True,
        )
        scratch = _solve(build_pfg(edit.program), cfg, engine)
        slots: Tuple[str, ...] = ("In", "Out")
        if scratch.acc_killin is not None and outcome.result.acc_killin is not None:
            slots += ("ACCKillin", "ACCKillout", "ForkKill")
        label = _engine_name(engine)
        for node in scratch.graph.nodes:
            for which in slots:
                a = scratch.set_names(which, node.name)
                b = outcome.result.set_names(which, node.name)
                if a != b:
                    mismatches += 1
                    if len(failures) < MAX_DETAILS:
                        failures.append(
                            OracleFailure(
                                "incremental-equivalence",
                                f"{which}({node.name}) [{label}, edit: {edit.detail}, "
                                f"fallback={outcome.fallback}]: incremental "
                                f"{sorted(b)} vs scratch {sorted(a)}",
                            )
                        )
    return _trim(failures, mismatches)


@register("dynamic-selfcheck")
def dynamic_selfcheck(program: ast.Program, cfg: OracleConfig) -> List[OracleFailure]:
    """Seeded interpreter runs stay inside the static ud-chains (and, per
    the generator's contract, never deadlock)."""
    from ..robust.selfcheck import verify_result

    result = solve_system(build_pfg(program), backend=cfg.backend)
    violations, deadlocked = verify_result(
        result,
        program,
        seeds=range(cfg.dynamic_runs),
        max_loop_iters=cfg.max_loop_iters,
    )
    failures = [
        OracleFailure("dynamic-selfcheck", f"schedule seed {seed}: {v.format()}")
        for seed, v in violations[:MAX_DETAILS]
    ]
    if deadlocked:
        failures.append(
            OracleFailure(
                "dynamic-selfcheck",
                f"deadlock under schedule seed(s) {deadlocked} — generated "
                "programs are deadlock-free by construction",
            )
        )
    return _trim(failures, len(violations)) if violations else failures


# ---------------------------------------------------------------------------
# Runner
# ---------------------------------------------------------------------------


@dataclass
class OracleReport:
    """Outcome of one program's trip through the registry."""

    oracles_run: Tuple[str, ...]
    failures: List[OracleFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def failing_oracles(self) -> Tuple[str, ...]:
        seen: Dict[str, None] = {}
        for f in self.failures:
            seen.setdefault(f.oracle, None)
        return tuple(seen)

    def format(self) -> str:
        if self.ok:
            return f"ok ({len(self.oracles_run)} oracle(s))"
        return "\n".join(f.format() for f in self.failures)


def run_oracles(
    program: ast.Program,
    config: Optional[OracleConfig] = None,
    names: Optional[Sequence[str]] = None,
) -> OracleReport:
    """Run the (named) oracles against ``program``; never raises — an
    oracle crash becomes a failure record so later oracles still run."""
    cfg = config if config is not None else OracleConfig()
    metrics = get_metrics()
    chosen = tuple(names) if names is not None else default_oracle_names()
    unknown = [n for n in chosen if n not in ORACLES]
    if unknown:
        raise ValueError(
            f"unknown oracle(s) {', '.join(unknown)}; choose from {', '.join(ORACLES)}"
        )
    failures: List[OracleFailure] = []
    for name in chosen:
        if metrics.enabled:
            metrics.inc("fuzz.oracle_runs")
            metrics.inc(f"fuzz.oracle.{name}")
        try:
            found = ORACLES[name](program, cfg)
        except Exception as err:
            tb = traceback.format_exception_only(type(err), err)[-1].strip()
            found = [OracleFailure(name, f"oracle crashed: {tb}")]
        failures.extend(found)
    if metrics.enabled and failures:
        metrics.inc("fuzz.failures", len(failures))
    return OracleReport(oracles_run=chosen, failures=failures)
