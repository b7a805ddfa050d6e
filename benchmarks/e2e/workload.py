"""One workload run in a fresh process (started by ``run.py``).

    python -m benchmarks.e2e.workload --workload W --seed N --seconds S
        [--trace OUT.jsonl] [--setup-only] [--smoke] [--t0 MONOTONIC]

**Set-up** runs from ``--t0`` (the parent's monotonic clock just before
it started this process) to the first timed op: imports, the paper-golden
check, corpus generation, base solves or daemon boot, and one untimed
warm-up item.  ``--setup-only`` stops there.

**Timed passes** then go over the whole corpus; every item is the
workload's own op (``latency_ms``) followed by the from-scratch
``parse_program`` + ``analyze`` of the same program text
(``analyze_ms``), each op bracketed by calibration spins.  At least
:data:`MIN_PASSES` passes run, and another only if it is predicted to end
within ``--seconds``.  An item's latency is the fastest of its passes:
on a shared VM an op now and then runs 1.5-2x slow in a burst the spins
do not see, and the minimum over passes seconds apart drops those bursts
where a percentile over raw ops would not.  The percentiles are then
taken over the items.

With ``--trace`` passes alternate untraced / traced (at least one of
each).  The untraced passes give ``trace.overhead``; the traced ones give
the per-layer metrics, and the end-to-end ones are not reported.

Afterwards every op's digest is checked against the reference (see
:mod:`benchmarks.e2e.check`).  One JSON object goes to stdout.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import signal
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from . import ROOT, WORKDIR, calib, require_repro
from .daemon import Daemon


def _mb(kilobytes: int) -> float:
    return kilobytes / 1024.0


def _beta_cdf(x: float, a: float, b: float) -> float:
    """The regularized incomplete beta function I_x(a, b), by its
    continued fraction (modified Lentz), on the side where it converges."""
    if x <= 0.0 or x >= 1.0:
        return 0.0 if x <= 0.0 else 1.0
    if x > (a + 1) / (a + b + 2):
        return 1.0 - _beta_cdf(1.0 - x, b, a)
    tiny = 1e-300
    c, d = 1.0, 1.0 / max(tiny, abs(1.0 - (a + b) * x / (a + 1)))
    h = d
    for m in range(1, 500):
        for num in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                    -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + num / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-12:
            break
    log_front = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b) + a * math.log(x) + b * math.log1p(-x)
    return math.exp(log_front) * h / a


def quantile(values: List[float], p: float) -> float:
    """Harrell-Davis estimate of the ``p``-quantile: a weighted mean of
    all order statistics, weighted by the Beta(p(n+1), (1-p)(n+1))
    probability of each ``[(i-1)/n, i/n]`` cell.  On a few dozen items it
    varies less from run to run than the one or two order statistics a
    plain percentile reads, since a single noisy item moves it less."""
    xs = sorted(values)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    cdf = [_beta_cdf(i / n, a, b) for i in range(n + 1)]
    return sum((hi - lo) * x for lo, hi, x in zip(cdf, cdf[1:], xs))


MIN_PASSES = 2


class Ops:
    """Runs and records timed ops for the current pass.  ``slot`` numbers
    the ops of a pass in order, so the same slot in every pass is the
    same op on the same input."""

    def __init__(self):
        self.timer: Optional[calib.Calibrated] = None
        self.tracer = None
        self.records: List[dict] = []
        self.pass_index = -1
        self.slot = 0

    def begin_pass(self, index: int, tracer=None) -> None:
        self.pass_index, self.slot, self.tracer = index, 0, tracer

    @property
    def last(self) -> dict:
        return self.records[-1]

    def run(self, kind: str, key: str, stmts: int, fn, *args):
        """Time ``fn(*args)``; returns its value, or ``None`` if it raised
        (the error lands on the record)."""
        record = {"kind": kind, "key": key, "stmts": stmts, "pass": self.pass_index,
                  "slot": self.slot, "traced": self.tracer is not None}
        if kind != "probe":
            self.slot += 1
        self.records.append(record)
        try:
            if self.tracer is None:
                return self.timer.time(record, fn, *args)
            meta = {"kind": kind, "key": key}
            value, span = self.timer.time(record, self.tracer.op, fn, *args, meta=meta)
            self.tracer.op_meta[span]["calib_ms"] = record["calib_ms"]
            return value
        except Exception as err:  # a failed op is counted, the run goes on
            record["error"] = f"{type(err).__name__}: {err}"
            return None


def _parse_analyze(source: str):
    from repro import analyze, parse_program

    return analyze(parse_program(source))


class InProcess:
    """diamonds / sync / cyclic: ``optimize(source)`` per item."""

    def __init__(self, entries, ops: Ops, daemon=None):
        self.entries, self.ops, self.daemon = entries, ops, daemon

    def setup(self) -> None:
        pass

    def warmup(self) -> None:
        from repro import optimize

        item = min(self.entries, key=lambda i: (i.stmts, i.key))  # the same shape for every seed
        optimize(item.source)
        _parse_analyze(item.source)

    def run_pass(self) -> None:
        from repro import optimize

        from .check import report_digest, rows_digest

        ops = self.ops
        for item in self.entries:
            report = ops.run("primary", item.key, item.stmts, optimize, item.source)
            if report is not None:
                ops.last["digest"] = {"report": report_digest(report)}
            result = ops.run("analyze", item.key, item.stmts, _parse_analyze, item.source)
            if result is not None:
                ops.last["digest"] = {"rows": rows_digest(result)}

    def close(self) -> None:
        pass

    def peak_rss_mb(self) -> float:
        return _mb(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)

    def serve_counters(self) -> Dict[str, float]:
        return {}


class Edits(InProcess):
    """edits: ``incremental_analyze(previous outcome, edited program)``
    along each chain; the comparator is the from-scratch solve."""

    def setup(self) -> None:
        from repro import analyze, parse_program
        from repro.incremental import IncrementalBase

        self.bases = []
        for chain in self.entries:
            program = parse_program(chain.base.source)
            self.bases.append(IncrementalBase.from_result(program, analyze(program)))

    def warmup(self) -> None:
        from repro import parse_program
        from repro.incremental import incremental_analyze

        i = min(range(len(self.entries)), key=lambda i: (self.entries[i].base.stmts, i))
        step = self.entries[i].steps[0]
        incremental_analyze(self.bases[i], parse_program(step.source))
        _parse_analyze(step.source)

    def run_pass(self) -> None:
        from repro import analyze, parse_program
        from repro.incremental import IncrementalBase, incremental_analyze

        from .check import rows_digest

        ops = self.ops
        for chain, base in zip(self.entries, self.bases):
            for step in chain.steps:
                program = parse_program(step.source)  # a fresh parse: cold caches
                outcome = ops.run("primary", step.key, step.stmts, incremental_analyze, base, program)
                incremental = ops.last
                if outcome is None:
                    base = IncrementalBase.from_result(program, analyze(program))
                else:
                    incremental["digest"] = {"rows": rows_digest(outcome.result)}
                    incremental["fallback"] = outcome.fallback
                    base = outcome.to_base(program)
                result = ops.run("analyze", step.key, step.stmts, _parse_analyze, step.source)
                if result is None:
                    continue
                ops.last["digest"] = {"rows": rows_digest(result)}
                if outcome is not None and incremental["digest"] != ops.last["digest"]:
                    incremental["error"] = "incremental rows differ from the from-scratch rows"


class Serve(InProcess):
    """serve: closed loop, one client, one keep-alive connection, against a
    ``repro serve --workers 1`` daemon; ``rpc`` round trip per request."""

    def setup(self) -> None:
        from repro.serve import ServeClient

        if self.daemon is None:
            self.daemon = Daemon(ROOT, WORKDIR)
        self.client = ServeClient("127.0.0.1", self.daemon.port)

    def _health(self) -> Dict[str, float]:
        return self.client.healthz()["counters"]

    def warmup(self) -> None:
        item = min((r.item for r in self.entries), key=lambda i: (i.stmts, i.key))
        text = "# warm-up\n" + item.source
        self.client.rpc(text, "warm-up")
        _parse_analyze(text)
        self._counters0 = self._health()

    def run_pass(self) -> None:
        from .check import envelope_digest, rows_digest

        ops = self.ops
        for i, request in enumerate(self.entries):
            item = request.item
            # Distinct text per pass, so a pass's new programs miss the
            # daemon's caches exactly as in the first pass.
            text = f"# pass {ops.pass_index}\n{item.source}"
            reply = ops.run("primary", item.key, item.stmts, self.client.rpc, text, f"{ops.pass_index}.{i}")
            if reply is not None:
                envelope = reply[1]
                result = envelope.get("result") or {}
                if envelope.get("status") != "ok":
                    ops.last["error"] = f"status {envelope.get('status')}: {envelope.get('error')}"
                else:
                    ops.last["digest"] = {
                        "envelope": envelope_digest(result["system"], result["anomalies"], result["sync_issues"])
                    }
            if request.resend:
                continue
            analysis = ops.run("analyze", item.key, item.stmts, _parse_analyze, text)
            if analysis is not None:
                ops.last["digest"] = {"rows": rows_digest(analysis)}

    def serve_counters(self) -> Dict[str, float]:
        now = self._health()
        return {k: now.get(k, 0) - self._counters0.get(k, 0) for k in ("cache.serve.hits", "serve.requests")}

    def close(self) -> None:
        client = getattr(self, "client", None)
        if client is not None:
            client.close()
        if self.daemon is not None:
            self.daemon.close()

    def peak_rss_mb(self) -> float:
        # The daemon and (through its own wait) its worker, once reaped.
        # A child's peak includes its parent's at fork, which is why run()
        # starts the daemon before this process grows.
        return _mb(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)


RUNNERS = {"diamonds": InProcess, "sync": InProcess, "cyclic": InProcess, "edits": Edits, "serve": Serve}


def _incremental_probe() -> List[str]:
    """Edit Figure 6 once; the incremental rows must equal a fresh solve."""
    from repro import analyze, parse_program, pretty
    from repro.fuzz.mutate import random_edit_script
    from repro.incremental import IncrementalBase, incremental_analyze
    from repro.paper import programs

    from .check import rows_digest

    base = parse_program(programs.SOURCES["fig6"])
    edited = pretty(random_edit_script(base, 0).program)
    outcome = incremental_analyze(
        IncrementalBase.from_result(base, analyze(base)), parse_program(edited)
    )
    if rows_digest(outcome.result) != rows_digest(_parse_analyze(edited)):
        return ["incremental probe: rows differ from the from-scratch rows"]
    return []


def probe(ops: Ops) -> None:
    """Fixed traced ops that reach every in-process layer once (goldens,
    Figure 6 through ``optimize``, one incremental edit), so a layer the
    workload never calls reads a small constant instead of nothing."""
    from repro import optimize
    from repro.paper import programs

    from .check import check_goldens

    for key, fn, args in (
        ("goldens", check_goldens, ()),
        ("fig6-optimize", optimize, (programs.SOURCES["fig6"],)),
        ("fig6-incremental", _incremental_probe, ()),
    ):
        value = ops.run("probe", key, 0, fn, *args)
        if isinstance(value, list) and value:
            ops.last["error"] = "; ".join(value)


def time_passes(runner, ops: Ops, seconds: float, tracer) -> int:
    """Whole passes, at least :data:`MIN_PASSES`, until the next one would
    end after ``seconds``; with a tracer, odd passes are traced."""
    start, durations, index = time.monotonic(), [], 0
    with calib.Calibrated() as ops.timer:
        while True:
            t0 = time.monotonic()
            if tracer is not None and index % 2 == 1:
                ops.begin_pass(index, tracer)
                with tracer:
                    if index == 1:
                        probe(ops)
                    runner.run_pass()
            else:
                ops.begin_pass(index)
                runner.run_pass()
            durations.append(time.monotonic() - t0)
            index += 1
            if index >= MIN_PASSES and time.monotonic() - start + max(durations[-2:]) > seconds:
                return index


def verify(records: List[dict], expected: Dict[str, Dict[str, str]]) -> List[str]:
    """One line per op that raised, reported an error, or whose digest
    differs from the reference."""
    failures = []
    for r in records:
        where = f"{r['kind']} {r['key']} (pass {r['pass']})"
        if r.get("error"):
            failures.append(f"{where}: {r['error']}")
        elif r["kind"] != "probe" and not r.get("digest"):
            failures.append(f"{where}: no output")
        elif any(expected.get(r["key"], {}).get(f) != d for f, d in r.get("digest", {}).items()):
            failures.append(f"{where}: output digest differs from the reference")
    return failures


def best_of_passes(records: List[dict], kind: str) -> List[dict]:
    """Per slot of ``kind``, the record of its fastest pass."""
    best: Dict[int, dict] = {}
    for r in records:
        if r["kind"] == kind and "ref_ms" in r:
            if r["slot"] not in best or r["ref_ms"] < best[r["slot"]]["ref_ms"]:
                best[r["slot"]] = r
    return list(best.values())


def context(records: List[dict]) -> Dict[str, float]:
    """Raw (not speed-normalised) percentiles and the median spin, for a
    reader: the metrics are ref-ms, these are what the clock read."""
    out = {"calib_ms": statistics.median(r["calib_ms"] for r in records if "calib_ms" in r)}
    for kind, name in (("primary", "latency_ms"), ("analyze", "analyze_ms")):
        raw = [r["raw_ms"] for r in best_of_passes(records, kind)]
        out[f"raw_{name}.p50"], out[f"raw_{name}.p95"] = quantile(raw, 0.5), quantile(raw, 0.95)
    return out


def end_to_end(records: List[dict], rss_mb: float) -> Dict[str, float]:
    primary = best_of_passes(records, "primary")
    latency = [r["ref_ms"] for r in primary]
    comparator = [r["ref_ms"] for r in best_of_passes(records, "analyze")]
    return {
        "latency_ms.p50": quantile(latency, 0.5),
        "latency_ms.p95": quantile(latency, 0.95),
        "analyze_ms.p50": quantile(comparator, 0.5),
        "analyze_ms.p95": quantile(comparator, 0.95),
        "stmts_per_s": sum(r["stmts"] for r in primary) / (sum(latency) / 1e3),
        "peak_rss_mb": rss_mb,
    }


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def per_layer(tracer, records: List[dict], serve_counters: Dict[str, float]) -> Dict[str, float]:
    """Per-item means (ref-ms for times) over the traced passes; shares
    and ratios as fractions."""
    from .trace import LAYERS, OP, self_times

    items = sum(1 for r in records if r["traced"] and r["kind"] == "primary") or 1
    selfs = self_times(tracer.spans)
    factor = {
        op: calib.CALIB_REF_MS / meta.get("calib_ms", calib.CALIB_REF_MS)
        for op, meta in tracer.op_meta.items()
    }
    layer_ms: Dict[str, float] = {name: 0.0 for name in LAYERS}
    root_self = root_total = serve_ms = 0.0
    for (name, start, end, parent, op), own in zip(tracer.spans, selfs):
        scale = factor.get(op, 1.0) * 1e3
        if name == OP:
            if tracer.op_meta[op]["kind"] != "probe":
                root_self += own * scale
                root_total += (end - start) * scale
        else:
            layer_ms[name] += own * scale
            if name == "serve":
                serve_ms += (end - start) * 1e3
    c = tracer.counts
    metrics = {f"{name}.self_ms": ms / items for name, ms in layer_ms.items() if name != "serve"}
    for name in (
        "pfg.nodes", "pfg.defs", "reachdefs.genkill.calls", "reachdefs.genkill.otherdefs",
        "reachdefs.preserved.passes", "dataflow.solve.updates", "dataflow.solve.passes",
        "dataflow.sched.regions", "reachdefs.to_result.rows", "robust.degrade.degraded",
        "incremental.fallbacks", "serve.retries",
    ):
        metrics[name] = c[name] / items
    metrics["analysis.constprop.hit_ratio"] = _share(c["analysis.constprop.constant_defs"], c["analysis.constprop.defs"])
    metrics["incremental.reuse_ratio"] = _share(
        c["incremental.regions_reused"], c["incremental.regions_reused"] + c["incremental.regions_solved"]
    )
    metrics["serve.queue_share"] = _share(c["serve.queue_ms"], serve_ms)
    metrics["serve.exec_share"] = _share(c["serve.exec_ms"], serve_ms)
    metrics["serve.transport_share"] = _share(serve_ms - c["serve.total_ms"], serve_ms)
    metrics["serve.cache_hit_ratio"] = _share(
        serve_counters.get("cache.serve.hits", 0), serve_counters.get("serve.requests", 0)
    )
    timed = [r for r in records if r["kind"] != "probe" and "ref_ms" in r]
    per_pass: Dict[bool, Dict[int, float]] = {True: {}, False: {}}
    for r in timed:
        passes = per_pass[r["traced"]]
        passes[r["pass"]] = passes.get(r["pass"], 0.0) + r["ref_ms"]
    metrics["bench.calib_ms"] = statistics.median(r["calib_ms"] for r in timed)
    metrics["trace.unattributed_share"] = _share(root_self, root_total)
    metrics["trace.overhead"] = (
        statistics.mean(per_pass[True].values()) / statistics.mean(per_pass[False].values()) - 1.0
    )
    return metrics


def run(args: argparse.Namespace) -> dict:
    t0 = args.t0 if args.t0 is not None else time.monotonic()
    # The serve daemon starts before this process imports or builds
    # anything: see Serve.peak_rss_mb.
    daemon = Daemon(ROOT, WORKDIR) if args.workload == "serve" else None
    runner = None
    try:
        require_repro()
        from . import check, corpus
        from .trace import Tracer

        golden_failures = check.check_goldens()
        entries = corpus.build(args.workload, args.seed, corpus.SMOKE if args.smoke else corpus.FULL)
        ops = Ops()
        runner = RUNNERS[args.workload](entries, ops, daemon)
        tracer = Tracer() if args.trace else None
        runner.setup()
        runner.warmup()
        setup_s = time.monotonic() - t0  # raw; run.py scales it
        if args.setup_only:
            return {"setup_s": setup_s}
        passes = time_passes(runner, ops, args.seconds, tracer)
        counters = runner.serve_counters()
    finally:
        if runner is not None:
            runner.close()
        elif daemon is not None:
            daemon.close()
    rss_mb = runner.peak_rss_mb()

    expected = check.load_expected(args.workload, args.seed, entries)
    if expected is None:
        expected = check.reference(args.workload, entries)
    failures = verify(ops.records, expected)
    failed_goldens = sorted({line.split(":", 1)[0] for line in golden_failures})
    out = {
        "setup_s": setup_s,
        "attempted": len(ops.records) + len(check.GOLDENS),
        "failed": len(failures) + len(failed_goldens),
        "failures": (golden_failures + failures)[:20],
        "passes": passes,
        "samples": {
            "latency_ms": len(best_of_passes(ops.records, "primary")),
            "analyze_ms": len(best_of_passes(ops.records, "analyze")),
        },
        "context": context(ops.records),
    }
    if tracer is None:
        out["metrics"] = end_to_end(ops.records, rss_mb)
    else:
        out["metrics"] = per_layer(tracer, ops.records, counters)
        with open(args.trace, "w") as fh:
            fh.write(json.dumps({"type": "meta", "workload": args.workload, "seed": args.seed,
                                 "calib_ref_ms": calib.CALIB_REF_MS}) + "\n")
            for record in tracer.records():
                fh.write(json.dumps(record) + "\n")
    return out


def record_expected(workload: str, seed: int) -> List[str]:
    """Run one pass of ``workload`` through the timed code path and freeze
    its digests in ``expected/``, but only if every op succeeded and every
    digest equals the reference configuration's; returns the problems
    found (nothing is written then)."""
    from . import check, corpus

    entries = corpus.build(workload, seed)
    ops = Ops()
    ops.begin_pass(0)
    runner = RUNNERS[workload](entries, ops)
    try:
        runner.setup()
        with calib.Calibrated() as ops.timer:
            runner.run_pass()
    finally:
        runner.close()
    problems = [f"{r['kind']} {r['key']}: {r['error']}" for r in ops.records if r.get("error")]
    digests: Dict[str, Dict[str, str]] = {}
    for r in ops.records:
        for field, digest in r.get("digest", {}).items():
            if digests.setdefault(r["key"], {}).setdefault(field, digest) != digest:
                problems.append(f"{r['key']}: two ops disagree on {field}")
    for key, fields in check.reference(workload, entries).items():
        if digests.get(key) != fields:
            problems.append(f"{key}: default and reference configurations disagree")
    if not problems:
        check.write_expected(workload, seed, entries, digests)
    return problems


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e.workload")
    parser.add_argument("--workload", required=True, choices=sorted(RUNNERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", metavar="OUT.jsonl", type=Path)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--t0", type=float, help="parent's time.monotonic() at spawn")
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    # Terminated from outside: unwind, so the serve daemon is drained.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    out = run(parse_args(sys.argv[1:] if argv is None else argv))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
