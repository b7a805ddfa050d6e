"""The request pipeline: every way into the analysis, behind one module.

* :func:`analyze` — reaching definitions with the most precise applicable
  equation system (fail-fast; the library primitive);
* :func:`optimize` — parse → analysis (the :mod:`repro.robust.degrade`
  ladder by default) → every client analysis, as an
  :class:`OptimizationReport`.  Raises on failure; ``python -m repro
  report FILE``;
* :func:`run_request` — one request as the CLI, batch and serve surfaces
  make it: parse, a fresh budget, the incremental path or the ladder, and
  a typed :class:`Outcome` instead of an exception.

:func:`classify` and :data:`STATUS_CODES` are the one mapping from an
exception to a status and from a status to an exit code
(``docs/robustness.md`` has the table); batch and serve extend the table
with their own transport statuses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Optional, Tuple, Union

from .analysis import (
    Anomaly,
    CommonSubexpression,
    ConstantPropagation,
    CopyPropagation,
    DeadCodeReport,
    InductionVariable,
    SyncIssue,
    UDChains,
    compute_ud_chains,
    find_anomalies,
    find_common_subexpressions,
    find_copy_propagations,
    find_dead_code,
    find_induction_variables,
    lint_synchronization,
    propagate_constants,
)
from .dataflow.budget import NonConvergenceError, ResourceBudget
from .dataflow.cache import GLOBAL_CACHE, MISSING, cached_build_pfg, program_digest
from .dataflow.framework import FixpointDiverged, SolveStats
from .interp.interp import StepBudgetExceeded
from .lang import ast, parse_program
from .lang.errors import LangError
from .obs import get_metrics, get_tracer
from .pfg import build_pfg
from .pfg.validate import PFGInvariantError
from .reachdefs import solve_system
from .reachdefs.result import ReachingDefsResult
from .robust.degrade import DegradationLevel, DegradationRecord, analyze_with_degradation


def analyze(
    program: "ast.Program",
    backend: str = "bitset",
    order: str = "document",
    solver: str = "stabilized",
    preserved: str = "approx",
    budget=None,
    cache: bool = True,
    record_provenance: bool = False,
    dense=None,
    graph=None,
) -> ReachingDefsResult:
    """Analyze ``program`` with the most precise applicable equation system.

    * sequential program → §2 classical reaching definitions;
    * parallel sections / parallel do, no synchronization → §5 parallel
      system;
    * synchronization present → §6 synchronized system (with the
      Preserved-set mode given by ``preserved``).

    (:func:`repro.reachdefs.solve_system` makes that choice.)

    ``solver="stabilized"`` (default) gives the deterministic,
    visit-order-independent solution; ``"round-robin"`` is the paper's
    chaotic iteration (see DESIGN.md §5 "solver modes"); ``"scc"`` is the
    sparse SCC-scheduled engine (:mod:`repro.dataflow.sched`) — same
    fixpoints, far fewer node updates on mostly-acyclic graphs;
    ``"scc-dense"`` additionally routes large cyclic regions through the
    vectorized dense evaluator (:mod:`repro.dataflow.dense`) —
    byte-identical fixpoints, matrix-shaped inner loop.  ``dense`` (a
    :class:`repro.dataflow.dense.DenseConfig`) tunes the dense-region
    thresholds and wavefront ``workers`` for either scc engine.

    ``budget`` is an optional :class:`repro.dataflow.ResourceBudget`
    bounding the whole analysis; exhaustion raises
    :class:`repro.dataflow.NonConvergenceError` (see
    :func:`repro.robust.analyze_with_degradation` for the fall-back
    ladder that degrades instead of failing).

    ``record_provenance=True`` makes the solver derive a justification
    graph once converged and attach it as ``result.provenance``
    (:mod:`repro.provenance` — the substrate of ``repro explain`` and
    ``repro races --explain``).  Off by default and off-path when off.

    ``graph`` hands in an already-built PFG for ``program`` (it must be
    *the* PFG of that exact AST) — used by callers that needed the graph
    before deciding to run the full analysis (the incremental engine's
    fallback path), so the build isn't paid twice when caching is off.

    ``cache=True`` (default) memoizes by program digest in
    :data:`repro.dataflow.cache.GLOBAL_CACHE`: a warm call on an
    unchanged program returns the cached result with **zero** solver
    passes (the hit lands in the ``cache.*`` counters of
    :mod:`repro.obs`).  Budget-guarded runs bypass the full-result cache
    — a budget asks for the work to actually run under a guard.
    """
    use_cache = cache and budget is None and GLOBAL_CACHE.enabled
    key = None
    if use_cache:
        key = (
            "analyze",
            program_digest(program),
            backend,
            order,
            solver,
            preserved,
            record_provenance,
            # Dense thresholds change dispatch counts in result.stats
            # (never the sets); workers change neither — see DenseConfig.key.
            dense.key() if dense is not None else None,
        )
        # Results are only valid for the exact AST analyzed (PFG nodes
        # hold statement objects; the interpreter matches by identity —
        # see cached_build_pfg), so a hit from a different parse of the
        # same text is rejected and recomputed.
        hit = GLOBAL_CACHE.get(
            key,
            MISSING,
            valid=lambda r: getattr(r.graph, "source_program", None) is program,
        )
        if hit is not MISSING:
            return hit
    if graph is None:
        graph = cached_build_pfg(program) if cache else build_pfg(program)
    result = solve_system(
        graph, backend=backend, order=order, solver=solver, preserved=preserved,
        budget=budget, record_provenance=record_provenance, dense=dense,
    )
    if key is not None:
        GLOBAL_CACHE.put(key, result)
    return result


@dataclass
class OptimizationReport:
    """Everything the analyses concluded about one program."""

    program: ast.Program
    result: ReachingDefsResult
    chains: UDChains
    anomalies: List[Anomaly]
    sync_issues: List[SyncIssue]
    constants: ConstantPropagation
    induction_variables: List[InductionVariable]
    dead_code: DeadCodeReport
    copies: List[CopyPropagation]
    subexpressions: List[CommonSubexpression]
    notes: List[str] = field(default_factory=list)
    #: phase → wall seconds, filled only when an observability session is
    #: installed around :func:`optimize` (empty otherwise, so rendered
    #: output is unchanged for untraced runs).
    timings: Dict[str, float] = field(default_factory=dict)
    #: degradation provenance when the analysis fell down the
    #: :mod:`repro.robust.degrade` ladder (``None`` = full precision).
    degradation: Optional[DegradationRecord] = None

    # -- aggregate views ----------------------------------------------------

    @property
    def is_clean(self) -> bool:
        """No race-severity anomalies and no blocking synchronization
        issues — the program is safe to optimize aggressively."""
        from .analysis import AnomalyKind, SyncIssueKind

        racy = any(
            a.kind in (AnomalyKind.RACE, AnomalyKind.CROSS_ITERATION)
            for a in self.anomalies
        )
        blocking = any(
            i.kind is not SyncIssueKind.POST_WITHOUT_WAIT for i in self.sync_issues
        )
        return not racy and not blocking

    def opportunity_count(self) -> Dict[str, int]:
        return {
            "constant-definitions": len(self.constants.constant_defs()),
            "induction-variables": len(self.induction_variables),
            "dead-definitions": len(self.dead_code.dead),
            "copy-propagations": len(self.copies),
            "common-subexpressions": len(self.subexpressions),
        }

    def render(self) -> str:
        lines: List[str] = [
            f"optimization report for '{self.program.name}' "
            f"({self.result.system} equations, "
            f"{len(self.result.graph)} blocks, "
            f"{len(self.result.graph.defs)} definitions)",
            "",
        ]
        if self.degradation is not None:
            lines.append(f"degradation: {self.degradation.format()}")
            lines.append("")
        lines.append("safety:")
        if not self.anomalies and not self.sync_issues:
            lines.append("  clean — no anomalies, no synchronization issues")
        for a in self.anomalies:
            lines.append(f"  {a.format()}")
        for issue in self.sync_issues:
            lines.append(f"  {issue.format()}")

        lines.append("")
        lines.append("opportunities:")
        consts = self.constants.constant_defs()
        for d in sorted(consts, key=lambda d: d.index):
            lines.append(f"  constant      {d.name} = {consts[d]}")
        for iv in self.induction_variables:
            lines.append(f"  induction     {iv.format()}")
        for d in sorted(self.dead_code.dead, key=lambda d: d.index):
            lines.append(f"  dead          {d.name}")
        for c in self.copies:
            lines.append(f"  copy-prop     {c.format()}")
        for c in self.subexpressions:
            lines.append(f"  cse           {c.format()}")
        if not any(self.opportunity_count().values()):
            lines.append("  none found")
        if self.timings:
            lines.append("")
            lines.append("timings:")
            total = sum(self.timings.values())
            for phase, seconds in self.timings.items():
                lines.append(f"  {seconds * 1e3:8.3f} ms  {phase}")
            lines.append(f"  {total * 1e3:8.3f} ms  total")
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines) + "\n"


def optimize(
    source: Union[str, ast.Program],
    backend: str = "bitset",
    preserved: str = "approx",
    observable_at_exit: bool = True,
    budget: Optional[ResourceBudget] = None,
    degrade: bool = True,
    solver: str = "stabilized",
    dense=None,
) -> OptimizationReport:
    """Run the full analysis pipeline on source text or a parsed program.

    Each phase runs under a tracer span (``parse``, ``analyze`` — which
    itself nests ``pfg-build`` and ``solve`` — and one ``client:<name>``
    span per client analysis), so with an observability session installed
    the report's ``timings`` maps every phase to wall seconds and a
    ``--profile`` export contains the whole pipeline tree.

    ``budget`` bounds the reaching-definitions solve.  With ``degrade=True``
    (default) an unaffordable or untrustworthy precise analysis falls down
    the :mod:`repro.robust.degrade` ladder and the report carries the
    :class:`~repro.robust.degrade.DegradationRecord`; with
    ``degrade=False`` exhaustion propagates as
    :class:`~repro.dataflow.budget.NonConvergenceError` for the caller to
    handle (the CLI maps it to exit code 2 through :func:`classify`).

    ``solver`` selects the fixpoint engine as in :func:`analyze`
    (``"stabilized"`` default; ``"scc"`` for the sparse SCC-scheduled
    engine, ``"scc-dense"`` for scc with the vectorized dense-region
    evaluator, ``"round-robin"``/``"worklist"`` for the paper's chaotic
    iteration); ``dense`` is the optional
    :class:`~repro.dataflow.dense.DenseConfig` forwarded to the scc
    engines.
    """
    tracer = get_tracer()
    with tracer.span("optimize") as pipeline:
        program = parse_program(source) if isinstance(source, str) else source
        with tracer.span("analyze", backend=backend, preserved=preserved):
            result, degradation = _analysis_step(
                program, backend=backend, solver=solver, preserved=preserved,
                budget=budget, dense=dense, degrade=degrade,
            )
        report = _report(program, result, degradation, observable_at_exit)
    if tracer.enabled:
        report.timings = {
            child.name: child.duration
            for child in pipeline.children
            if child.duration is not None
        }
    return report


def _analysis_step(
    program: ast.Program,
    *,
    backend: str,
    solver: str,
    preserved: str,
    budget: Optional[ResourceBudget],
    dense,
    degrade: bool,
    order: str = "document",
    start: DegradationLevel = DegradationLevel.FULL,
) -> Tuple[ReachingDefsResult, Optional[DegradationRecord]]:
    """The analysis :func:`optimize` and :func:`run_request` share: the
    degradation ladder from rung ``start``, or the fail-fast
    :func:`analyze` when ``degrade`` is off."""
    if degrade:
        return analyze_with_degradation(
            program, backend=backend, order=order, solver=solver, preserved=preserved,
            budget=budget, dense=dense, start=start,
        )
    result = analyze(
        program, backend=backend, order=order, solver=solver, preserved=preserved,
        budget=budget, dense=dense,
    )
    return result, None


def _report(
    program: ast.Program,
    result: ReachingDefsResult,
    degradation: Optional[DegradationRecord],
    observable_at_exit: bool = True,
) -> OptimizationReport:
    """Run every client analysis on ``result``, one ``client:<name>`` span
    each; the ud-chains are computed once and shared by the clients that
    read them."""
    tracer = get_tracer()
    notes: List[str] = []
    if degradation is not None:
        notes.append(degradation.format())
    if not result.stats.converged:  # pragma: no cover - solvers raise instead
        notes.append("solver did not converge")
    if "+cycle" in result.stats.order:
        notes.append(
            "stabilized solver resolved an outer-round oscillation "
            "conservatively (see DESIGN.md §5)"
        )

    def client(name: str, fn, *args, **kwargs):
        with tracer.span(f"client:{name}"):
            return fn(*args, **kwargs)

    chains = client("ud-chains", compute_ud_chains, result)
    return OptimizationReport(
        program=program,
        result=result,
        chains=chains,
        anomalies=client("anomalies", find_anomalies, result),
        sync_issues=client("sync-lint", lint_synchronization, result.graph),
        constants=client("constprop", propagate_constants, result, chains=chains),
        induction_variables=client("induction", find_induction_variables, result),
        dead_code=client(
            "deadcode", find_dead_code, result,
            observable_at_exit=observable_at_exit, chains=chains,
        ),
        copies=client("copyprop", find_copy_propagations, result, chains=chains),
        subexpressions=client("cse", find_common_subexpressions, result, chains=chains),
        notes=notes,
        degradation=degradation,
    )


# -- the request pipeline -----------------------------------------------------

#: Status → exit code: the CLI's contract, and the ``code`` of every batch
#: record and serve envelope.  Batch adds ``crashed``; serve adds its
#: transport statuses (``docs/robustness.md``).
STATUS_CODES: Dict[str, int] = {
    "ok": 0,
    "degraded": 0,  # a sound result from a lower rung of the ladder
    "error": 1,  # front end / I-O: bad syntax, unreadable file
    "failed": 2,  # analysis failure: non-convergence, budget exhaustion
    "invariant": 3,  # PFG invariant violation
    "dynamic-failure": 4,  # interpreter deadlock / runaway loop
}


def classify(err: Exception) -> Tuple[str, str]:
    """``(status, message)`` for a failure — the one exception → status
    mapping every surface uses.  Anything unrecognized is ``failed`` with
    ``Type: message``."""
    if isinstance(err, (LangError, OSError)):
        return "error", str(err)
    if isinstance(err, NonConvergenceError):
        return "failed", f"analysis did not converge: {err.reason}"
    if isinstance(err, FixpointDiverged):
        return "failed", f"analysis did not converge: {err}"
    if isinstance(err, PFGInvariantError):
        return "invariant", f"graph invariant violation: {err}"
    if isinstance(err, StepBudgetExceeded):
        return "dynamic-failure", f"runaway execution: {err}"
    if isinstance(err, RuntimeError):  # the solvers' own caps (e.g. snapshot cap)
        return "failed", str(err)
    return "failed", f"{type(err).__name__}: {err}"


@dataclass(frozen=True)
class RequestOptions:
    """Everything one :func:`run_request` call can vary."""

    backend: str = "bitset"
    order: str = "document"
    solver: str = "stabilized"
    preserved: str = "approx"
    dense: object = None
    #: Fall down the degradation ladder (``False`` = fail fast).
    degrade: bool = True
    #: Ladder rung to start on (the serve admission level; needs ``degrade``).
    level: int = 0
    #: Limits of the fresh budget each request arms.
    max_passes: Optional[int] = None
    deadline_s: Optional[float] = None
    #: Digest of a retained base solve: re-analyze incrementally off it.
    base_digest: Optional[str] = None

    def budget(self) -> Optional[ResourceBudget]:
        if self.max_passes is None and self.deadline_s is None:
            return None
        return ResourceBudget(deadline_s=self.deadline_s, max_passes=self.max_passes)


@dataclass
class Outcome:
    """What one request produced: a typed status, and on success the
    result with its degradation record or incremental stamp.  Client
    analyses run on first access, never before."""

    status: str = "ok"
    error: Optional[str] = None
    program: Optional[ast.Program] = None
    result: Optional[ReachingDefsResult] = None
    degradation: Optional[DegradationRecord] = None
    #: The ``incremental`` provenance block, when a base digest was given.
    incremental: Optional[Dict[str, object]] = None
    #: The failure, as raised (the CLI re-raises it for its ``--profile``
    #: stamp), and the partial solver stats a budget trip left behind.
    exception: Optional[Exception] = None
    partial_stats: Optional[SolveStats] = None

    @classmethod
    def failure(cls, err: Exception) -> "Outcome":
        outcome = cls()
        outcome.fail(err)
        return outcome

    def fail(self, err: Exception) -> None:
        """Turn this outcome into the classified failure ``err``."""
        self.status, self.error = classify(err)
        self.exception = err
        self.result = self.degradation = self.incremental = None
        if isinstance(err, NonConvergenceError):
            self.partial_stats = err.stats

    @property
    def code(self) -> int:
        return STATUS_CODES[self.status]

    @property
    def digest(self) -> Optional[str]:
        if self.program is None:
            return None
        graph = self.result.graph if self.result is not None else None
        return getattr(graph, "program_digest", None) or program_digest(self.program)

    @cached_property
    def anomalies(self) -> List[Anomaly]:
        return find_anomalies(self.result)

    @cached_property
    def sync_issues(self) -> List[SyncIssue]:
        return lint_synchronization(self.result.graph)

    @cached_property
    def report(self) -> OptimizationReport:
        return _report(self.program, self.result, self.degradation)

    def summary(self) -> Optional[Dict[str, object]]:
        """The result block batch records and serve envelopes carry, or
        ``None`` after a failure.  Computes only the anomaly and sync-issue
        counts; if either client fails, the outcome fails with it."""
        if self.result is None:
            return None
        try:
            anomalies, sync_issues = len(self.anomalies), len(self.sync_issues)
        except Exception as err:
            self.fail(err)
            return None
        return {
            "program": self.program.name,
            "digest": self.digest,
            "system": self.result.system,
            "stats": self.result.stats.as_dict(),
            "anomalies": anomalies,
            "sync_issues": sync_issues,
        }


def run_request(
    source: Union[str, ast.Program], options: RequestOptions = RequestOptions()
) -> Outcome:
    """Run one analysis request; never raises for an ``Exception``.

    Parses ``source``, arms a fresh budget, then either re-analyzes
    incrementally off the base ``options.base_digest`` names (stamping a
    ``base-miss`` fallback when no such base is retained, ``degraded``
    when the level is not 0), or runs the ladder from rung
    ``options.level`` — the fail-fast :func:`analyze` when
    ``options.degrade`` is off.  Full-precision solves are retained as
    incremental bases for later delta requests."""
    # deferred: repro.incremental imports this module
    from .incremental import IncrementalOutcome, incremental_analyze, lookup_base, store_base

    outcome = Outcome()
    try:
        outcome.program = parse_program(source) if isinstance(source, str) else source
        budget = options.budget()
        if options.base_digest is not None:
            base = lookup_base(options.base_digest) if options.level == 0 else None
            if base is not None:
                incremental = incremental_analyze(
                    base, outcome.program, backend=options.backend, solver=options.solver,
                    preserved=options.preserved, budget=budget, dense=options.dense,
                )
                outcome.result, outcome.incremental = incremental.result, incremental.stamp()
                return outcome
            get_metrics().inc("solve.incr.fallbacks")
            outcome.incremental = IncrementalOutcome(
                result=None, base_digest=options.base_digest,
                fallback="degraded" if options.level else "base-miss",
            ).stamp()
        outcome.result, outcome.degradation = _analysis_step(
            outcome.program, backend=options.backend, order=options.order,
            solver=options.solver, preserved=options.preserved, budget=budget,
            dense=options.dense, degrade=options.degrade, start=options.level,
        )
        if outcome.degradation is None:
            store_base(outcome.program, outcome.result)
        else:
            outcome.status = "degraded"
    except Exception as err:
        outcome.fail(err)
    return outcome
