"""Layer-attributed tracing from outside the program.

:class:`Tracer` wraps each layer's public function for the duration of a
``with`` block.  It patches every ``repro.*`` module attribute that *is*
the original function (so ``from x import f`` copies are caught too),
and the class attribute for methods; on exit every patched attribute is
the original object again.  Nothing under ``src/`` changes.

The benchmark opens an ``op`` span around every timed operation, and each
call into a layer inside it records a span ``(name, start, end, parent,
op)``.  A call into a layer already open on the stack is not recorded
again, so recursion and re-entry count once; calls outside any op
(set-up, untimed bookkeeping) are not recorded at all.  All spans stay in
memory until :meth:`Tracer.records` exports them.  A layer's *self time*
is its span minus the time its child spans cover (:func:`self_times`).

Layer names follow the modules.  Counters are read off return values at
the same boundaries, so ratios are measured where the work happens.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: layer name -> targets, as "module:function" or "module:Class.method".
LAYERS: Dict[str, Tuple[str, ...]] = {
    "lang": ("repro.lang.parser:parse_program",),
    "pfg": ("repro.pfg.builder:build_pfg",),
    "pfg.validate": ("repro.pfg.validate:validate_pfg",),
    "reachdefs.genkill": ("repro.reachdefs.genkill:compute_genkill",),
    "reachdefs.preserved": ("repro.reachdefs.preserved:resolve_preserved",),
    "reachdefs.encode": (
        "repro.reachdefs.sequential:SequentialRDSystem.__init__",
        "repro.reachdefs.parallel:ParallelRDSystem.__init__",
        "repro.reachdefs.synch:SynchRDSystem.__init__",
    ),
    "dataflow.solve": (
        "repro.dataflow.solver:solve_stabilized",
        "repro.dataflow.solver:solve_round_robin",
        "repro.dataflow.solver:solve_worklist",
        "repro.dataflow.sched:solve_scc",
    ),
    "dataflow.sched": ("repro.dataflow.sched:build_schedule",),
    "reachdefs.to_result": (
        "repro.reachdefs.sequential:SequentialRDSystem.to_result",
        "repro.reachdefs.parallel:ParallelRDSystem.to_result",
        "repro.reachdefs.synch:SynchRDSystem.to_result",
        "repro.reachdefs.conservative:ConservativeRDSystem.to_result",
    ),
    "robust.degrade": ("repro.robust.degrade:analyze_with_degradation",),
    "dataflow.cache": (
        "repro.dataflow.cache:program_digest",
        "repro.dataflow.cache:cached_build_pfg",
    ),
    "analysis.udchains": ("repro.analysis.udchains:compute_ud_chains",),
    "analysis.anomalies": ("repro.analysis.anomalies:find_anomalies",),
    "analysis.synclint": ("repro.analysis.synclint:lint_synchronization",),
    "analysis.constprop": ("repro.analysis.constprop:propagate_constants",),
    "analysis.induction": ("repro.analysis.induction:find_induction_variables",),
    "analysis.deadcode": ("repro.analysis.deadcode:find_dead_code",),
    "analysis.copyprop": ("repro.analysis.copyprop:find_copy_propagations",),
    "analysis.cse": ("repro.analysis.cse:find_common_subexpressions",),
    "incremental": ("repro.incremental.engine:incremental_analyze",),
    "incremental.diff": ("repro.incremental.diff:match_graphs",),
    "serve": ("repro.serve.client:ServeClient.rpc",),
}

#: Not a layer: the pairwise concurrency test whose call count is the
#: local-set layer's work (counted only while ``reachdefs.genkill`` is open).
CONCURRENT = "repro.pfg.concurrency:concurrent"

OP = "op"


def _count_pfg(counts, value):
    counts["pfg.nodes"] += len(value.nodes)
    counts["pfg.defs"] += len(value.defs)


def _count_genkill(counts, value):
    counts["reachdefs.genkill.otherdefs"] += sum(len(s) for s in value.other_defs.values())


def _count_preserved(counts, value):
    counts["reachdefs.preserved.passes"] += value.passes


def _count_solve(counts, value):
    counts["dataflow.solve.updates"] += value.node_updates
    counts["dataflow.solve.passes"] += value.passes


def _count_sched(counts, value):
    counts["dataflow.sched.regions"] += len(value.regions)


def _count_rows(counts, value):
    counts["reachdefs.to_result.rows"] += len(value.in_sets)


def _count_degrade(counts, value):
    counts["robust.degrade.degraded"] += value[1] is not None


def _count_constprop(counts, value):
    counts["analysis.constprop.constant_defs"] += len(value.constant_defs())
    counts["analysis.constprop.defs"] += len(value.values)


def _count_incremental(counts, value):
    counts["incremental.regions_reused"] += value.regions_reused
    counts["incremental.regions_solved"] += value.regions_solved
    counts["incremental.fallbacks"] += value.fallback is not None


def _count_serve(counts, value):
    envelope = value[1]
    timings = envelope.get("timings") or {}
    counts["serve.requests"] += 1
    counts["serve.queue_ms"] += float(timings.get("queue_ms", 0.0))
    counts["serve.exec_ms"] += float(timings.get("exec_ms", 0.0))
    counts["serve.total_ms"] += float(timings.get("total_ms", 0.0))
    counts["serve.retries"] += max(0, int(envelope.get("attempts", 1)) - 1)


COUNTERS: Dict[str, Callable] = {
    "pfg": _count_pfg,
    "reachdefs.genkill": _count_genkill,
    "reachdefs.preserved": _count_preserved,
    "dataflow.solve": _count_solve,
    "dataflow.sched": _count_sched,
    "reachdefs.to_result": _count_rows,
    "robust.degrade": _count_degrade,
    "analysis.constprop": _count_constprop,
    "incremental": _count_incremental,
    "serve": _count_serve,
}


def _resolve(target: str) -> Tuple[object, str]:
    """``(owner, attribute)`` for a ``module:function`` or
    ``module:Class.method`` target."""
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *classes, attr = path.split(".")
    for name in classes:
        owner = getattr(owner, name)
    return owner, attr


class Tracer:
    """Span recorder plus the patches that feed it (a context manager).

    Spans are lists ``[name, start, end, parent, op]`` with ``parent`` the
    index of the enclosing span (``-1`` for op roots) and ``op`` the index
    of the op root.  ``counts`` accumulates layer counters.
    """

    def __init__(self, layers: Optional[Dict[str, Tuple[str, ...]]] = None):
        self.layers = LAYERS if layers is None else layers
        self.spans: List[list] = []
        self.op_meta: Dict[int, dict] = {}
        self.counts: Dict[str, float] = defaultdict(float)
        self._stack: List[int] = []
        self._open: Dict[str, int] = defaultdict(int)
        self._patches: List[Tuple[object, str, object]] = []
        self._originals: Dict[int, Tuple[Callable, object]] = {}

    # -- recording --------------------------------------------------------

    def _begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        op = self.spans[parent][4] if parent >= 0 else len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent, op])
        index = len(self.spans) - 1
        self._stack.append(index)
        self._open[name] += 1
        return index

    def _end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()
        self._open[self.spans[index][0]] -= 1

    def op(self, fn: Callable, *args, meta: Optional[dict] = None, **kwargs):
        """Run ``fn`` under an ``op`` root span; returns its value and
        the span index (``meta`` is attached to the exported root)."""
        index = self._begin(OP)
        try:
            return fn(*args, **kwargs), index
        finally:
            self._end(index)
            self.op_meta[index] = dict(meta or {})

    def _wrap(self, layer: str, fn: Callable) -> Callable:
        count = COUNTERS.get(layer)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._open[layer] or not self._stack:  # re-entry, or outside any op
                return fn(*args, **kwargs)
            index = self._begin(layer)
            try:
                value = fn(*args, **kwargs)
            finally:
                self._end(index)
            if count is not None:
                count(self.counts, value)
            return value

        return wrapper

    def _wrap_concurrent(self, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._open["reachdefs.genkill"]:
                self.counts["reachdefs.genkill.calls"] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- patching ---------------------------------------------------------

    @staticmethod
    def _repro_modules() -> List[object]:
        return [
            module
            for name, module in list(sys.modules.items())
            if name == "repro" or name.startswith("repro.")
        ]

    def _patch(self, owner: object, attr: str, wrapper: Callable) -> None:
        original = owner.__dict__[attr]
        self._originals[id(wrapper)] = (wrapper, original)
        if isinstance(owner, type):
            self._patches.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            return
        for module in self._repro_modules():
            for key, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, key, original))
                    setattr(module, key, wrapper)

    def __enter__(self) -> "Tracer":
        # Resolve (import) every target before patching any, so no module
        # imported mid-patch binds a wrapper the patch list never saw.
        resolved = [
            (_resolve(target), lambda fn, layer=layer: self._wrap(layer, fn))
            for layer, targets in self.layers.items()
            for target in targets
        ]
        resolved.append((_resolve(CONCURRENT), self._wrap_concurrent))
        try:
            for (owner, attr), make in resolved:
                self._patch(owner, attr, make(owner.__dict__[attr]))
        except BaseException:
            self.__exit__(None, None, None)
            raise
        return self

    def __exit__(self, *exc) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        # A repro module first imported while tracing ran bound wrappers
        # at import time; put the originals back there too.
        for module in self._repro_modules():
            for key, value in list(vars(module).items()):
                entry = self._originals.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, key, entry[1])
        self._originals.clear()

    # -- export -----------------------------------------------------------

    def records(self) -> List[dict]:
        """Every span as a JSON-ready record (op roots carry their meta)."""
        out = []
        for index, (name, start, end, parent, op) in enumerate(self.spans):
            record = {"id": index, "name": name, "start": start, "end": end,
                      "parent": parent, "op": op}
            if index in self.op_meta:
                record.update(self.op_meta[index])
            out.append(record)
        return out


def _covered(intervals: Sequence[Tuple[float, float]]) -> float:
    """Total length of the union of ``intervals``."""
    total, reach = 0.0, None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans: Sequence[Sequence]) -> List[float]:
    """Per span (``[name, start, end, parent, ...]``): its duration minus
    the part of it that its children cover."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for name, start, end, parent, *_ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    return [
        (end - start) - _covered(children.get(index, ()))
        for index, (name, start, end, parent, *_) in enumerate(spans)
    ]
