"""Command line of the end-to-end benchmark (run from the checkout root).

    PYTHONPATH=src python -m benchmarks.e2e run --seed N [--workload W]
        [--seconds S] [--trace OUT.jsonl] [--out RUNS.json] [--smoke]
    PYTHONPATH=src python -m benchmarks.e2e compare PARENT.json CHANGE.json
    PYTHONPATH=src python -m benchmarks.e2e spread FIRST.json [SECOND.json]
    PYTHONPATH=src python -m benchmarks.e2e record [--seeds 0 1]

``run`` runs each workload (all five by default) in fresh subprocesses and
prints every metric by name with its unit; ``--trace`` makes it the
separate traced run (per-layer metrics, spans written as JSONL, one file
per workload when several run).  ``--out`` appends the runs to a run log
for ``compare``.  It exits non-zero if any op failed.

``record`` re-derives the frozen ``expected/<workload>-seed<N>.json``
digests: it runs one untimed pass of each workload and stores the digests
only where they agree with the reference configuration.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from typing import List, Optional

from . import ROOT, WORKLOADS, calib, require_repro
from .run import RunError, contract_metrics, describe, run_workload, spec


def _git_rev() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out.stdout.strip()


def _meta(smoke: bool) -> dict:
    require_repro()
    from . import corpus

    sizes = corpus.SMOKE if smoke else corpus.FULL
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_rev": _git_rev(),
        "calib_ref_ms": calib.CALIB_REF_MS,
        "corpus_sha256": {w: corpus.sha256(corpus.build(w, 0, sizes)) for w in WORKLOADS},
        "corpus_seed": 0,
    }


def cmd_run(args: argparse.Namespace) -> int:
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    seconds = args.seconds if args.seconds is not None else spec()["run_seconds"]
    log = None
    if args.out is not None:
        log = json.loads(args.out.read_text()) if args.out.exists() else {"meta": _meta(args.smoke), "runs": []}
    status = 0
    for workload in workloads:
        trace = args.trace
        if trace is not None and len(workloads) > 1:
            trace = trace.with_name(f"{trace.stem}-{workload}{trace.suffix}")
        try:
            result = run_workload(workload, args.seed, seconds, trace, args.smoke)
            metrics = contract_metrics(result, trace is not None)
        except RunError as err:
            print(f"{workload}: {err}", file=sys.stderr)
            return 2
        print("\n".join(describe(workload, result, metrics)), flush=True)
        if result["failed"]:
            status = 1
        if log is not None:
            log["runs"].append({
                "workload": workload, "seed": args.seed, "traced": trace is not None,
                "attempted": result["attempted"], "failed": result["failed"],
                "passes": result["passes"], "samples": result["samples"],
                "metrics": {name: m["value"] for name, m in metrics.items()},
            })
            args.out.write_text(json.dumps(log, indent=1) + "\n")
    return status


def cmd_compare(args: argparse.Namespace) -> int:
    from .compare import compare

    lines, status = compare(args.parent, args.change, spec())
    print("\n".join(lines))
    return status


def cmd_spread(args: argparse.Namespace) -> int:
    from .compare import spread

    print(json.dumps(spread(args.first, args.second, spec()), indent=1, sort_keys=True))
    return 0


def cmd_record(args: argparse.Namespace) -> int:
    require_repro()
    from .workload import record_expected

    status = 0
    for workload in WORKLOADS:
        for seed in args.seeds:
            problems = record_expected(workload, seed)
            for line in problems:
                print(f"{workload} seed {seed}: {line}", file=sys.stderr)
            print(f"{workload} seed {seed}: {'NOT recorded' if problems else 'recorded'}")
            status = status or (1 if problems else 0)
    return status


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e")
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("run", help="run workloads and print every metric")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seconds", type=float, help="measuring time per run (default: BENCHMARK.json)")
    p.add_argument("--trace", type=Path, metavar="OUT.jsonl", help="traced run: per-layer metrics, spans to OUT")
    p.add_argument("--out", type=Path, metavar="RUNS.json", help="append the runs to this run log")
    p.add_argument("--smoke", action="store_true", help="tiny corpora: a quick check of every path")
    p.set_defaults(func=cmd_run)
    p = sub.add_parser("compare", help="parent vs change run logs, one row per workload")
    p.add_argument("parent", type=Path)
    p.add_argument("change", type=Path)
    p.set_defaults(func=cmd_compare)
    p = sub.add_parser("spread", help="run-to-run spread of one commit's run logs")
    p.add_argument("first", type=Path)
    p.add_argument("second", type=Path, nargs="?")
    p.set_defaults(func=cmd_spread)
    p = sub.add_parser("record", help="re-derive the frozen expected digests")
    p.add_argument("--seeds", type=int, nargs="+", default=[0, 1])
    p.set_defaults(func=cmd_record)
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
