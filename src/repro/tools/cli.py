"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``parse FILE``       — parse and pretty-print a program (syntax check).
``graph FILE``       — build the PFG and print its structure (or DOT).
``analyze FILE``     — run the appropriate equation system; print the
                       per-block set table, anomalies, and statistics.
``tables [NAME]``    — regenerate the paper's tables/figures
                       (table1, fig2, fig4, fig8, fig11_12; default all).
``run FILE``         — interpret the program once (seeded scheduler) and
                       print the final variable values.
``cssa FILE``        — print the Concurrent SSA form (φ/ψ/π merges).
``report FILE``      — full optimization report: safety (anomalies,
                       synchronization lint) and opportunities (constants,
                       induction variables, dead code, copies, CSE).
``check FILE``       — soundness self-check: analyze (degradation ladder
                       enabled), then verify the static sets against
                       several seeded interpreter runs
                       (:mod:`repro.robust.selfcheck`).
``stats FILE``       — run the whole pipeline under the observability
                       layer and print the phase-time tree + counters.
``batch INPUTS...``  — analyze many programs (files, globs, or a
                       ``--manifest`` list) concurrently across
                       ``--workers`` processes; stream a ``repro-batch/1``
                       JSONL manifest (``--out``) and print a
                       deterministic summary table.  Crashed workers are
                       retried (``--retries``); ``--resume MANIFEST``
                       continues an interrupted campaign, skipping tasks
                       already recorded
                       (:mod:`repro.batch`, ``docs/batch.md``).
``serve``            — long-lived analysis daemon: JSON-RPC over HTTP
                       with supervised workers, per-request deadlines,
                       admission control (shed on overload), load-aware
                       degradation, ``/healthz``/``/readyz`` endpoints
                       and SIGTERM graceful drain
                       (:mod:`repro.serve`, ``docs/serving.md``).
``fuzz``             — differential fuzzing campaign: generate seeded
                       programs (``--seeds A:B`` inclusive), run the
                       oracle battery (cross-solver, cross-system,
                       pipeline-invariant, metamorphic; ``--check``
                       adds the dynamic self-check and injected-fault
                       shrink drills), minimize failures, and stream a
                       ``repro-fuzz/1`` manifest (``--out``)
                       (:mod:`repro.fuzz`, ``docs/testing.md``).
``explain FILE``     — provenance chains for one block: why each
                       definition reaches ``--stmt N`` (optionally only
                       for ``--var X``), walked back to its birth site
                       (:mod:`repro.provenance`, ``docs/provenance.md``).
``races FILE``       — anomaly reports (race severity by default;
                       ``--all`` adds multiple-values warnings);
                       ``--explain`` attaches the provenance chain of
                       every colliding definition.
``obs report``       — aggregate ``repro-obs/1`` / ``repro-batch/1`` /
                       ``repro-fuzz/1`` JSONL files into one
                       deterministic cross-run summary; ``--json`` saves
                       it, ``--baseline`` gates against a saved report
                       (exit 2 on regression; ``docs/observability.md``).

Observability flags (``analyze``/``report``/``run``; ``stats`` implies
``--trace``): ``--trace`` appends the phase-time tree to the command's
output, ``--profile OUT.jsonl`` exports the span/metric records as JSONL
(schema ``repro-obs/1``, see ``docs/observability.md``).

Solver flags (``analyze``/``report``/``check``/``batch``/``explain``/
``races``/``stats``): ``--solver {stabilized,round-robin,worklist,scc}``
selects the fixpoint engine; ``scc`` is the sparse SCC-scheduled engine
(``docs/performance.md``).  ``--region-workers N`` (``analyze``/
``report``/``stats``) with N > 1 turns on ``scc``'s dense dispatch for
large cyclic regions and solves independent ones on N processes (results
are identical, only wall-clock changes).

Budget flags (``analyze``/``report``/``check``): ``--max-passes N`` and
``--deadline SECONDS`` bound the fixpoint solve
(:class:`repro.dataflow.budget.ResourceBudget`).  ``report`` degrades
gracefully on exhaustion (see ``docs/robustness.md``) unless
``--no-degrade`` is given; ``analyze`` always fails fast.

Exit codes (documented contract, kept stable for CI use)
--------------------------------------------------------

Every failure is mapped by :func:`repro.driver.classify` onto the one
status → exit-code table in ``docs/robustness.md`` (0 success, 1
front-end/I-O, 2 analysis failure, 3 PFG invariant violation, 4 dynamic
failure).  Command-specific uses of those codes:

====  ===========================================================
code  command-specific meaning
====  ===========================================================
1     ``batch``: no inputs, unreadable ``--manifest``; ``fuzz``: a
      malformed ``--seeds`` spec; ``explain``: an unknown block or
      variable; ``obs report``: an unreadable or unrecognized
      input/baseline file
2     ``check``: soundness violations; ``batch``: any task recorded
      a nonzero code; ``fuzz``: any oracle mismatch or
      undetected/unshrinkable drill; ``obs report --baseline``: any
      regression vs. the baseline
4     ``run``: interpreter deadlock (also the per-task code
      ``batch --run`` records for a deadlocking or runaway program)
====  ===========================================================
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path
from typing import List, Optional

from .. import obs
from ..dataflow.bitset import BACKEND_NAMES
from ..dataflow.budget import NonConvergenceError, ResourceBudget
from ..dataflow.solver import SOLVER_NAMES
from ..driver import STATUS_CODES, RequestOptions, analyze, classify, optimize, run_request
from ..interp import RandomScheduler, run_program
from ..lang import parse_program, pretty
from ..paper import tables as paper_tables
from ..pfg import to_dot
from ..tools.format import render_kv, render_table


def _load(path: str):
    return parse_program(Path(path).read_text())


def _add_solver_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--solver",
        default="stabilized",
        choices=SOLVER_NAMES,
        help="fixpoint engine: stabilized (deterministic default), the "
        "paper's round-robin/worklist chaotic iteration, or scc (sparse "
        "SCC-scheduled; same fixpoints, fewer updates)",
    )


def _add_backend_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--backend", default="bitset", choices=BACKEND_NAMES)


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1 (got {value})")
    return value


def _add_region_workers_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--region-workers",
        type=_positive_int,
        default=1,
        metavar="N",
        help="solve independent dense regions on N processes (scc only; "
        "identical results, wall-clock only)",
    )


def _dense_from(args: argparse.Namespace):
    """A DenseConfig when ``--region-workers`` asks for more than one
    process (auto dispatch on ``scc``), else None (library defaults)."""
    if args.region_workers == 1:
        return None
    from ..dataflow.dense import DenseConfig

    return DenseConfig(workers=args.region_workers)


def _add_budget_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--max-passes",
        type=int,
        default=None,
        metavar="N",
        help="abort the fixpoint solve after N sweeps (exit 2 on exhaustion)",
    )
    p.add_argument(
        "--deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help="abort the fixpoint solve after this much wall time",
    )


def _budget_from(args: argparse.Namespace) -> Optional[ResourceBudget]:
    return RequestOptions(max_passes=args.max_passes, deadline_s=args.deadline).budget()


@contextmanager
def _maybe_observe(args: argparse.Namespace):
    """Install an observability session when the command asked for one
    (``--trace``/``--profile``; ``stats`` always observes).  On exit,
    append the phase-time tree and/or write the JSONL export.

    The ``--profile`` export happens in a ``finally``: a failing command
    (budget trip, non-convergence, invariant violation) still writes its
    records — exactly the runs a post-mortem needs — with the failure
    stamped on the meta record (``"failure": "ErrorType: message"``).
    Spans still open at the failure point are omitted (finished work
    only, per the ``repro-obs/1`` schema); the phase-time tree is only
    printed after a clean run."""
    trace = getattr(args, "trace", False)
    profile = getattr(args, "profile", None)
    if not trace and not profile:
        yield
        return
    count_ops = getattr(args, "count_ops", False)
    failure: Optional[str] = None
    with obs.session(count_bitset_ops=count_ops) as sess:
        try:
            yield
        except BaseException as err:
            failure = f"{type(err).__name__}: {err}"
            raise
        finally:
            if profile:
                meta = {"command": args.command, "file": getattr(args, "file", None)}
                if failure is not None:
                    meta["failure"] = failure
                n = sess.write_jsonl(profile, **meta)
                sys.stderr.write(f"wrote {n} records to {profile}\n")
    if trace:
        sys.stdout.write("\n")
        sys.stdout.write(obs.render_tree(sess.tracer, sess.metrics))


def _add_obs_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--trace",
        action="store_true",
        help="print the phase-time tree after the command output",
    )
    p.add_argument(
        "--profile",
        metavar="OUT.jsonl",
        help="export spans and metrics as JSONL (schema repro-obs/1)",
    )
    p.add_argument(
        "--count-ops",
        dest="count_ops",
        action="store_true",
        help="also count bitset set/word operations (slower, more detail)",
    )


def cmd_parse(args: argparse.Namespace) -> int:
    prog = _load(args.file)
    sys.stdout.write(pretty(prog))
    return 0


def cmd_graph(args: argparse.Namespace) -> int:
    from ..dataflow.cache import cached_build_pfg

    # Same cache path as analyze/report: the build lands in (and counts
    # toward) cache.pfg.* instead of silently bypassing the cache.
    graph = cached_build_pfg(_load(args.file))
    sys.stdout.write(to_dot(graph) if args.dot else graph.describe() + "\n")
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    options = RequestOptions(
        backend=args.backend,
        order=args.order,
        solver=args.solver,
        preserved=args.preserved,
        dense=_dense_from(args),
        degrade=False,
    )
    if args.base:
        # Delta mode: solve BASE in full (retained as an incremental base),
        # then re-analyze FILE off its rows (repro.incremental).
        base = run_request(_load(args.base), options)
        if base.exception is not None:
            raise base.exception
        options = replace(options, base_digest=base.digest)
    outcome = run_request(
        _load(args.file), replace(options, max_passes=args.max_passes, deadline_s=args.deadline)
    )
    if outcome.exception is not None:
        raise outcome.exception  # main() classifies it, after the --profile stamp
    result = outcome.result
    if not result.stats.converged:  # pragma: no cover - solvers raise instead
        sys.stderr.write("error: solver did not converge\n")
        return 2
    order = [n.name for n in result.graph.document_order()]
    cols = ["Gen", "Kill", "In", "Out"]
    if result.acc_killin is not None:
        cols = ["Gen", "Kill", "ParallelKill", "In", "Out", "ACCKillin", "ACCKillout", "ForkKill"]
    if result.synch_pass is not None:
        cols.append("SynchPass")
    rows = {name: {c: result.set_names(c, name) for c in cols} for name in order}
    sys.stdout.write(render_table(rows, cols, order, title=f"{result.system} reaching definitions"))
    if outcome.anomalies:
        sys.stdout.write("\npotential anomalies:\n")
        for a in outcome.anomalies:
            sys.stdout.write(f"  {a.format()}\n")
    if outcome.sync_issues:
        sys.stdout.write("\nsynchronization lint:\n")
        for issue in outcome.sync_issues:
            sys.stdout.write(f"  {issue.format()}\n")
    sys.stdout.write("\n")
    sys.stdout.write(render_kv({k: str(v) for k, v in result.stats.as_dict().items()}, "solver"))
    if outcome.incremental is not None:
        sys.stdout.write("\n")
        sys.stdout.write(
            render_kv({k: str(v) for k, v in outcome.incremental.items()}, "incremental")
        )
    return 0


def cmd_tables(args: argparse.Namespace) -> int:
    artifacts = paper_tables.regenerate_all()
    names = [args.name] if args.name else list(artifacts)
    for name in names:
        if name not in artifacts:
            sys.stderr.write(f"unknown artifact {name!r}; choose from {', '.join(artifacts)}\n")
            return 2
        sys.stdout.write(artifacts[name])
        sys.stdout.write("\n")
    return 0


def cmd_cssa(args: argparse.Namespace) -> int:
    from ..cssa import build_cssa, render_cssa
    from ..dataflow.cache import cached_build_pfg

    graph = cached_build_pfg(_load(args.file))
    form = build_cssa(graph)
    sys.stdout.write(render_cssa(graph, form))
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    report = optimize(
        _load(args.file),
        preserved=args.preserved,
        budget=_budget_from(args),
        degrade=not args.no_degrade,
        solver=args.solver,
        dense=_dense_from(args),
    )
    sys.stdout.write(report.render())
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    from ..robust import self_check

    report = self_check(
        _load(args.file),
        runs=args.runs,
        max_loop_iters=args.max_loop_iters,
        solver=args.solver,
        preserved=args.preserved,
        budget=_budget_from(args),
    )
    sys.stdout.write(report.format() + "\n")
    if not report.ok:
        sys.stderr.write(
            f"error: {len(report.violations)} dynamic observation(s) escaped "
            "the static sets — the analysis result is unsound for this program\n"
        )
        return 2
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    """Whole-pipeline observability: parse → PFG → solve → clients (and one
    interpreter run unless ``--no-run``), then a summary; the installed
    session (``stats`` implies ``--trace``) prints the phase-time tree."""
    prog = _load(args.file)
    report = optimize(
        prog, preserved=args.preserved, solver=args.solver, dense=_dense_from(args)
    )
    if not args.no_run:
        run_program(
            prog,
            RandomScheduler(seed=args.seed, max_loop_iters=args.max_loop_iters),
            graph=report.result.graph,
        )
    result = report.result
    # Sweepless solvers (worklist, scc) have no meaningful pass count;
    # report node updates instead of a misleading "0 passes".
    if result.stats.sweepless:
        effort = f"{result.stats.node_updates} node updates"
    else:
        effort = f"{result.stats.passes} solver passes"
    sys.stdout.write(
        f"pipeline stats for '{prog.name}': {result.system} equations, "
        f"{len(result.graph)} blocks, {len(result.graph.defs)} definitions, "
        f"{effort} ({result.stats.order})\n"
    )
    # Per-region dense dispatch, so the auto-mode thresholds are
    # observable in the field (only scc populates these).
    if result.stats.dense_regions or result.stats.scalar_regions:
        sys.stdout.write(
            f"dense dispatch: {result.stats.dense_regions} region(s) vectorized, "
            f"{result.stats.scalar_regions} scalar fallback\n"
        )
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    prog = _load(args.file)
    result = run_program(prog, RandomScheduler(seed=args.seed, max_loop_iters=args.max_loop_iters))
    if result.deadlocked:
        blocked = (
            f" (blocked on: {', '.join(result.blocked_events)})"
            if result.blocked_events
            else ""
        )
        sys.stdout.write(f"DEADLOCK{blocked}\n")
    values = {var: str(cell.value) for var, cell in sorted(result.final_env.items())}
    sys.stdout.write(render_kv(values, f"final values (seed {args.seed}, {result.steps} steps)"))
    # Exit-code contract: a deadlocked run is a dynamic failure (4), not
    # a success — CI must be able to detect it without scraping stdout.
    return 4 if result.deadlocked else 0


def cmd_explain(args: argparse.Namespace) -> int:
    result = analyze(
        _load(args.file),
        backend=args.backend,
        solver=args.solver,
        preserved=args.preserved,
        record_provenance=True,
    )
    from ..provenance import explain_block

    try:
        text = explain_block(result, str(args.stmt), var=args.var)
    except KeyError:
        names = ", ".join(n.name for n in result.graph.document_order())
        sys.stderr.write(f"error: no block {args.stmt!r} (blocks: {names})\n")
        return 1
    except ValueError as err:
        sys.stderr.write(f"error: {err}\n")
        return 1
    sys.stdout.write(text)
    return 0


def cmd_races(args: argparse.Namespace) -> int:
    result = analyze(
        _load(args.file),
        backend=args.backend,
        solver=args.solver,
        preserved=args.preserved,
        record_provenance=args.explain,
    )
    from ..analysis.anomalies import find_anomalies

    anomalies = find_anomalies(result, include_multiple=args.all)
    if args.explain:
        from ..provenance import diagnose_anomalies

        sys.stdout.write(
            diagnose_anomalies(result, anomalies=anomalies, include_multiple=args.all)
        )
    elif not anomalies:
        sys.stdout.write("no anomalies found\n")
    else:
        for a in anomalies:
            sys.stdout.write(f"{a.format()}\n")
    # A reporting command: anomalies are findings, not failures.
    return 0


def cmd_obs_report(args: argparse.Namespace) -> int:
    from ..obs import report as obs_report

    try:
        report = obs_report.aggregate(args.files, top=args.top)
        baseline = (
            obs_report.read_baseline(args.baseline) if args.baseline else None
        )
    except obs_report.ReportError as err:
        sys.stderr.write(f"error: {err}\n")
        return 1
    sys.stdout.write(obs_report.render_report(report))
    if args.json:
        obs_report.write_baseline(args.json, report)
        sys.stderr.write(f"wrote report to {args.json}\n")
    if baseline is not None:
        problems = obs_report.compare_to_baseline(
            report, baseline, tolerance=args.tolerance
        )
        if problems:
            sys.stdout.write("\nbaseline regressions:\n")
            for problem in problems:
                sys.stdout.write(f"  {problem}\n")
            sys.stderr.write(
                f"error: {len(problems)} regression(s) vs {args.baseline}\n"
            )
            return 2
        sys.stdout.write(f"\nbaseline check passed ({args.baseline})\n")
    return 0


def _batch_inputs(args: argparse.Namespace) -> List[str]:
    """Resolve positional files/globs plus an optional ``--manifest`` list
    into an ordered, de-duplicated path list.  A glob pattern matching
    nothing and an unreadable manifest are *batch-level* I/O errors
    (``FileNotFoundError`` → exit 1); a plain path that turns out not to
    exist is left in — it becomes a recorded per-task ``error``."""
    import glob as _glob

    paths: List[str] = []
    for item in args.inputs:
        if any(ch in item for ch in "*?["):
            matches = sorted(_glob.glob(item, recursive=True))
            if not matches:
                raise FileNotFoundError(f"pattern {item!r} matched no files")
            paths.extend(matches)
        else:
            paths.append(item)
    if args.manifest:
        for line in Path(args.manifest).read_text().splitlines():
            line = line.strip()
            if line and not line.startswith("#"):
                paths.append(line)
    seen = set()
    ordered: List[str] = []
    for p in paths:
        if p not in seen:
            seen.add(p)
            ordered.append(p)
    return ordered


def cmd_batch(args: argparse.Namespace) -> int:
    from ..batch import BatchOptions, run_batch

    paths = _batch_inputs(args)
    if not paths:
        sys.stderr.write("error: no input programs (give files, globs, or --manifest)\n")
        return 1
    manifest_out = args.out
    resume = False
    if args.resume:
        if args.out and args.out != args.resume:
            sys.stderr.write(
                "error: --resume MANIFEST already names the output manifest; "
                "drop --out or make them identical\n"
            )
            return 1
        manifest_out = args.resume
        resume = True
    options = BatchOptions(
        backend=args.backend,
        preserved=args.preserved,
        solver=args.solver,
        degrade=not args.no_degrade,
        max_passes=args.max_passes,
        deadline_s=args.deadline,
        run=args.run,
        seed=args.seed,
        max_loop_iters=args.max_loop_iters,
    )
    try:
        report = run_batch(
            paths,
            options,
            workers=max(1, args.workers),
            manifest_path=manifest_out,
            retries=max(0, args.retries),
            resume=resume,
        )
    except ValueError as err:  # e.g. --resume against a non-manifest file
        sys.stderr.write(f"error: {err}\n")
        return 1
    sys.stdout.write(report.render_summary())
    if manifest_out:
        sys.stderr.write(f"wrote manifest to {manifest_out}\n")
    return report.exit_code


def cmd_serve(args: argparse.Namespace) -> int:
    from ..serve import ServeConfig, run_server

    config = ServeConfig(
        host=args.host,
        port=args.port,
        workers=max(1, args.workers),
        max_pending=max(1, args.max_queue),
        retries=max(0, args.retries),
        deadline_s=args.deadline if args.deadline is not None else 10.0,
        chaos=args.chaos,
        telemetry_path=args.telemetry,
        ready_file=args.ready_file,
        drain_timeout_s=args.drain_timeout,
        degrade_queue_l1=args.degrade_queue,
        degrade_queue_l2=args.degrade_queue2,
        degrade_p99_ms_l1=args.degrade_p99,
        degrade_p99_ms_l2=args.degrade_p99 * 2 if args.degrade_p99 else None,
    )
    return run_server(config)


def cmd_fuzz(args: argparse.Namespace) -> int:
    from ..fuzz import FuzzOptions, ORACLES, parse_seed_spec, run_campaign

    try:
        seeds = parse_seed_spec(args.seeds)
    except ValueError as err:
        sys.stderr.write(f"error: {err}\n")
        return 1
    if args.oracles:
        unknown = [n for n in args.oracles.split(",") if n not in ORACLES]
        if unknown:
            sys.stderr.write(
                f"error: unknown oracle(s) {', '.join(unknown)}; "
                f"choose from {', '.join(ORACLES)}\n"
            )
            return 1
    options = FuzzOptions(
        seeds=seeds,
        target_stmts=args.target_stmts,
        oracles=tuple(args.oracles.split(",")) if args.oracles else None,
        check=args.check,
        drills=args.drills,
        shrink_failures=not args.no_shrink,
        deadline_s=args.deadline,
        max_stmts=args.max_stmts,
        backend=args.backend,
        max_loop_iters=args.max_loop_iters,
    )
    report = run_campaign(options, manifest_path=args.out)
    sys.stdout.write(report.render_summary())
    if args.out:
        sys.stderr.write(f"wrote manifest to {args.out}\n")
    return report.exit_code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reaching definitions for explicitly parallel programs "
        "(Grunwald & Srinivasan, PPoPP 1993 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="parse and pretty-print a program")
    p.add_argument("file")
    p.set_defaults(func=cmd_parse)

    p = sub.add_parser("graph", help="print the Parallel Flow Graph")
    p.add_argument("file")
    p.add_argument("--dot", action="store_true", help="emit Graphviz DOT")
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser("analyze", help="run reaching-definitions analysis")
    p.add_argument("file")
    p.add_argument(
        "--base",
        metavar="FILE",
        help="prior program version: analyze FILE incrementally off BASE's "
        "solve, reusing unperturbed SCC regions (repro.incremental)",
    )
    _add_backend_flag(p)
    p.add_argument("--order", default="document")
    p.add_argument("--preserved", default="approx", choices=["approx", "none"])
    _add_solver_flag(p)
    _add_region_workers_flag(p)
    _add_obs_flags(p)
    _add_budget_flags(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("tables", help="regenerate the paper's tables/figures")
    p.add_argument("name", nargs="?", help="table1 | fig2 | fig4 | fig8 | fig11_12")
    p.set_defaults(func=cmd_tables)

    p = sub.add_parser("cssa", help="print the Concurrent SSA form")
    p.add_argument("file")
    p.set_defaults(func=cmd_cssa)

    p = sub.add_parser("report", help="full optimization report")
    p.add_argument("file")
    p.add_argument("--preserved", default="approx", choices=["approx", "none"])
    p.add_argument(
        "--no-degrade",
        action="store_true",
        help="fail fast (exit 2) instead of falling down the degradation ladder",
    )
    _add_solver_flag(p)
    _add_region_workers_flag(p)
    _add_obs_flags(p)
    _add_budget_flags(p)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser(
        "check",
        help="soundness self-check: static sets vs. seeded interpreter runs",
    )
    p.add_argument("file")
    p.add_argument("--runs", type=int, default=5, help="number of seeded runs")
    p.add_argument("--max-loop-iters", type=int, default=2)
    p.add_argument("--preserved", default="approx", choices=["approx", "none"])
    _add_solver_flag(p)
    _add_obs_flags(p)
    _add_budget_flags(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("run", help="interpret a program once")
    p.add_argument("file")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-loop-iters", type=int, default=3)
    _add_obs_flags(p)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser(
        "batch",
        help="analyze many programs concurrently (files, globs, or --manifest)",
    )
    p.add_argument(
        "inputs",
        nargs="*",
        metavar="FILE_OR_GLOB",
        help="program files; quoted glob patterns are expanded (recursive **)",
    )
    p.add_argument(
        "--manifest",
        metavar="LIST",
        help="text file with one program path per line (# comments allowed)",
    )
    p.add_argument(
        "--out",
        metavar="OUT.jsonl",
        help="stream the repro-batch/1 JSONL manifest here as tasks complete",
    )
    p.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help="process-pool size; 1 = serial in-process (deterministic order)",
    )
    p.add_argument(
        "--retries",
        type=int,
        default=1,
        metavar="N",
        help="resubmissions for a task whose worker process crashed "
        "(capped backoff between rounds; 0 = record crashed immediately)",
    )
    p.add_argument(
        "--resume",
        metavar="MANIFEST",
        help="continue an interrupted campaign: skip tasks with terminal "
        "records in this repro-batch/1 manifest and append the rest to it",
    )
    _add_backend_flag(p)
    p.add_argument("--preserved", default="approx", choices=["approx", "none"])
    p.add_argument(
        "--no-degrade",
        action="store_true",
        help="record a per-task failure instead of falling down the ladder",
    )
    p.add_argument(
        "--run",
        action="store_true",
        help="also interpret each analyzable program once; a deadlock is "
        "recorded as a dynamic failure (per-task code 4)",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-loop-iters", type=int, default=3)
    _add_solver_flag(p)
    _add_obs_flags(p)
    _add_budget_flags(p)
    p.set_defaults(func=cmd_batch)

    p = sub.add_parser(
        "serve",
        help="long-lived analysis daemon (JSON-RPC over HTTP, supervised workers)",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument(
        "--port",
        type=int,
        default=8421,
        metavar="N",
        help="listen port (0 = ephemeral; see --ready-file)",
    )
    p.add_argument(
        "--workers",
        type=int,
        default=2,
        metavar="K",
        help="supervised worker processes (each holds a warm analysis cache)",
    )
    p.add_argument(
        "--max-queue",
        type=int,
        default=16,
        metavar="N",
        help="admission bound: pending requests beyond this are shed (429)",
    )
    p.add_argument(
        "--retries",
        type=int,
        default=1,
        metavar="N",
        help="resubmissions after a worker crash before a 'crashed' response",
    )
    p.add_argument(
        "--deadline",
        type=float,
        default=10.0,
        metavar="SECONDS",
        help="per-request budget deadline; a worker past it is killed",
    )
    p.add_argument(
        "--drain-timeout",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="max wait for in-flight requests during SIGTERM drain",
    )
    p.add_argument(
        "--degrade-queue",
        type=int,
        default=None,
        metavar="N",
        help="queue depth at which new requests drop to no-preserved "
        "(default: 2x workers; level-2 threshold doubles it)",
    )
    p.add_argument(
        "--degrade-queue2",
        type=int,
        default=None,
        metavar="N",
        help="queue depth forcing conservative-only (default: 2x --degrade-queue)",
    )
    p.add_argument(
        "--degrade-p99",
        type=float,
        default=None,
        metavar="MS",
        help="recent p99 latency (ms) that triggers degradation (off by default)",
    )
    p.add_argument(
        "--chaos",
        action="store_true",
        help="honor per-request chaos directives (kill/delay) — drills only",
    )
    p.add_argument(
        "--telemetry",
        metavar="OUT.jsonl",
        help="flush the daemon's metrics as repro-obs/1 JSONL on drain",
    )
    p.add_argument(
        "--ready-file",
        metavar="PATH",
        help="write {\"port\": N, \"pid\": N} once listening (for scripts/CI)",
    )
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "fuzz",
        help="differential fuzzing campaign over generated programs",
    )
    p.add_argument(
        "--seeds",
        default="0:49",
        metavar="SPEC",
        help="seed spec: inclusive ranges and singles, comma-separated "
        "(e.g. 0:199 or 0:9,100)",
    )
    p.add_argument(
        "--target-stmts",
        type=int,
        default=30,
        metavar="N",
        help="mean generated-program size (spread per seed)",
    )
    p.add_argument(
        "--oracles",
        metavar="NAMES",
        help="comma-separated oracle names (default: registry default; "
        "--check adds dynamic-selfcheck)",
    )
    p.add_argument(
        "--check",
        action="store_true",
        help="full verification: dynamic self-check oracle plus "
        "injected-fault shrink drills",
    )
    p.add_argument(
        "--drills",
        type=int,
        default=2,
        metavar="N",
        help="injected-fault drills in --check mode",
    )
    p.add_argument(
        "--no-shrink",
        action="store_true",
        help="record failing cases without minimizing them",
    )
    p.add_argument(
        "--max-stmts",
        type=int,
        metavar="N",
        help="campaign statement budget (total generated statements)",
    )
    p.add_argument(
        "--out",
        metavar="OUT.jsonl",
        help="stream the repro-fuzz/1 JSONL manifest here",
    )
    _add_backend_flag(p)
    p.add_argument("--max-loop-iters", type=int, default=2)
    p.add_argument(
        "--deadline",
        type=float,
        metavar="SECONDS",
        help="campaign wall-clock budget; remaining seeds are skipped",
    )
    _add_obs_flags(p)
    p.set_defaults(func=cmd_fuzz)

    p = sub.add_parser(
        "explain",
        help="provenance chains: why each definition reaches a statement",
    )
    p.add_argument("file")
    p.add_argument(
        "--stmt",
        required=True,
        metavar="N",
        help="block name to explain (as printed by 'graph'/'analyze')",
    )
    p.add_argument(
        "--var",
        metavar="X",
        help="restrict to one variable (read there, or reaching block entry)",
    )
    _add_backend_flag(p)
    p.add_argument("--preserved", default="approx", choices=["approx", "none"])
    _add_solver_flag(p)
    p.set_defaults(func=cmd_explain)

    p = sub.add_parser(
        "races",
        help="anomaly reports, optionally with provenance chains (--explain)",
    )
    p.add_argument("file")
    p.add_argument(
        "--explain",
        action="store_true",
        help="attach each colliding definition's full provenance chain",
    )
    p.add_argument(
        "--all",
        action="store_true",
        help="also report multiple-values warnings (default: race severity only)",
    )
    _add_backend_flag(p)
    p.add_argument("--preserved", default="approx", choices=["approx", "none"])
    _add_solver_flag(p)
    p.set_defaults(func=cmd_races)

    p = sub.add_parser("obs", help="observability artifact tooling")
    obs_sub = p.add_subparsers(dest="obs_command", required=True)
    rp = obs_sub.add_parser(
        "report",
        help="aggregate obs/batch/fuzz JSONL files into one summary",
    )
    rp.add_argument(
        "files",
        nargs="+",
        metavar="FILE.jsonl",
        help="any mix of repro-obs/1, repro-batch/1, repro-fuzz/1 files",
    )
    rp.add_argument(
        "--top",
        type=int,
        default=10,
        metavar="K",
        help="how many slowest spans to keep (default 10)",
    )
    rp.add_argument(
        "--json",
        metavar="OUT.json",
        help="also write the aggregated report (repro-obs-report/1 JSON, "
        "usable as a --baseline later)",
    )
    rp.add_argument(
        "--baseline",
        metavar="BASE.json",
        help="compare against a saved report; exit 2 on regression",
    )
    rp.add_argument(
        "--tolerance",
        type=float,
        default=0.1,
        metavar="F",
        help="allowed fractional counter growth vs baseline (default 0.1)",
    )
    rp.set_defaults(func=cmd_obs_report)

    p = sub.add_parser(
        "stats", help="run the whole pipeline traced; print the phase-time tree"
    )
    p.add_argument("file")
    p.add_argument("--preserved", default="approx", choices=["approx", "none"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-loop-iters", type=int, default=3)
    p.add_argument(
        "--no-run", action="store_true", help="skip the interpreter run phase"
    )
    p.add_argument("--profile", metavar="OUT.jsonl", help="also export JSONL")
    _add_solver_flag(p)
    _add_region_workers_flag(p)
    p.set_defaults(func=cmd_stats, trace=True, count_ops=True)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; maps every failure through :func:`repro.driver.classify`
    onto the documented exit codes (see module docstring).  Every failure
    prints a single ``error:`` line to stderr rather than a traceback.
    ``batch`` records per-task failures in its manifest instead of
    raising — only batch-level usage/I-O errors reach this handler."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with _maybe_observe(args):
            return args.func(args)
    except Exception as err:
        status, message = classify(err)
        if isinstance(err, NonConvergenceError):  # how far the solve got
            message += f" ({err.stats.passes} passes, {err.stats.node_updates} updates)"
        sys.stderr.write(f"error: {message}\n")
        return STATUS_CODES[status]


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
