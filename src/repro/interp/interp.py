"""Concurrent interpreter for mini-PCF programs.

Executes the AST under copy-in/copy-out semantics (paper §3) with
statement-level interleaving:

* ``Parallel Sections`` forks one cooperative thread per section, each
  with a **copy** of the parent's variables; the join merges the copies
  back (freshest write wins; competing distinct writes are recorded as
  merge observations — the runtime counterpart of the paper's join
  anomalies);
* ``post(ev)`` snapshots the poster's variables into the event;
  ``wait(ev)`` blocks until posted, then absorbs the snapshots;
* free variables (read, never assigned — ``condition`` in the paper's
  figures) are nondeterministic *inputs*, fixed once per run by the
  scheduler; ``loop`` trip counts are scheduler decisions.

Every variable read is recorded as a :class:`UseObservation` carrying the
producing static definition, which is what lets executions serve as a
dynamic oracle for the reaching-definitions analysis.

Threads are Python generators; the engine advances one thread per
scheduling step, so any interleaving the scheduler can express is
executable — including exhaustive enumeration via
:class:`~repro.interp.scheduler.ExhaustiveExplorer`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from ..lang import ast
from ..obs import NULL_METRICS, get_metrics, get_tracer
from ..pfg.builder import build_pfg
from ..pfg.graph import ParallelFlowGraph
from ..ir.defs import Use
from .events import EventState
from .scheduler import RandomScheduler, Scheduler
from .state import Cell, Env, Value, copy_env, merge_candidates
from .trace import MergeObservation, RunResult, StmtLocationIndex, UseObservation


class StepBudgetExceeded(RuntimeError):
    """The run exceeded ``max_steps`` scheduling steps (runaway loop)."""


@dataclass
class _ForkRecord:
    parent: "_Thread"
    stmt: ast.Stmt  # ParallelSections or ParallelDo
    snapshot: Env
    pending: int
    merge_site: str = ""
    #: variables excluded from the copy-out merge (the parallel-do index
    #: is iteration-private; its value after the construct is undefined)
    exclude: frozenset = frozenset()


@dataclass
class _Thread:
    tid: int
    env: Env
    gen: Optional[Iterator] = None
    status: str = "ready"  # ready | blocked | joining | done
    waiting_event: Optional[str] = None
    fork: Optional[_ForkRecord] = None  # the fork this thread is a child of
    next_loop_id: int = 0


class Interpreter:
    """One-shot interpreter: construct, then :meth:`run` once."""

    def __init__(
        self,
        program: ast.Program,
        scheduler: Optional[Scheduler] = None,
        graph: Optional[ParallelFlowGraph] = None,
        max_steps: int = 100_000,
    ):
        self.program = program
        self.graph = graph if graph is not None else build_pfg(program)
        self.scheduler = scheduler if scheduler is not None else RandomScheduler()
        self.max_steps = max_steps
        self.index = StmtLocationIndex(self.graph)
        for stmt in program.walk():
            if isinstance(stmt, ast.Assign):
                try:
                    self.index.of_stmt(stmt)
                except KeyError:
                    raise ValueError(
                        "graph was built from a different AST than the program "
                        "being run — build both from the same parse "
                        "(statement identity links runtime events to blocks)"
                    ) from None
        self.events: Dict[str, EventState] = {e: EventState(e) for e in program.events}
        self._metrics = NULL_METRICS  # rebound to the live registry by run()
        self.inputs: Dict[str, Value] = {}
        self.seq = 0
        self.result = RunResult(final_env={})
        self._threads: Dict[int, _Thread] = {}
        self._next_tid = 0
        self._join_names = self._map_join_names()
        self._wait_names = self._map_wait_names()
        self._post_names = self._map_post_names()

    # -- static-name bridges ------------------------------------------------

    def _map_join_names(self) -> Dict[int, str]:
        """Construct stmt (by identity) -> join/merge block name.  The
        builder assigns construct ids in AST pre-order over *both*
        construct kinds, so walking the program in that order aligns
        statements with forks/pardos."""
        forks_by_cid = {f.construct_id: f for f in self.graph.forks}
        pardos_by_cid = {p.construct_id: p for p in self.graph.pardos}
        out: Dict[int, str] = {}
        counter = 0
        for stmt in self.program.walk():
            if isinstance(stmt, ast.ParallelSections):
                fork = forks_by_cid[counter]
                assert fork.join is not None
                out[id(stmt)] = fork.join.name
                counter += 1
            elif isinstance(stmt, ast.ParallelDo):
                out[id(stmt)] = pardos_by_cid[counter].merge.name
                counter += 1
        return out

    def _map_wait_names(self) -> Dict[int, str]:
        """Wait stmt (by identity) -> wait block name (document order per
        event, mirroring the builder's registration order)."""
        seen: Dict[str, int] = {}
        out: Dict[int, str] = {}
        for stmt in self.program.walk():
            if isinstance(stmt, ast.Wait):
                nth = seen.get(stmt.event, 0)
                seen[stmt.event] = nth + 1
                out[id(stmt)] = self.graph.waits_of_event[stmt.event][nth].name
        return out

    def _map_post_names(self) -> Dict[int, str]:
        """Post stmt (by identity) -> post block name (same scheme)."""
        seen: Dict[str, int] = {}
        out: Dict[int, str] = {}
        for stmt in self.program.walk():
            if isinstance(stmt, ast.Post):
                nth = seen.get(stmt.event, 0)
                seen[stmt.event] = nth + 1
                out[id(stmt)] = self.graph.posts_of_event[stmt.event][nth].name
        return out

    # -- engine ----------------------------------------------------------------

    def _spawn(self, env: Env, body: List[ast.Stmt], fork: Optional[_ForkRecord]) -> _Thread:
        thread = _Thread(tid=self._next_tid, env=env, fork=fork)
        self._next_tid += 1
        thread.gen = self._exec_block(body, thread)
        self._threads[thread.tid] = thread
        return thread

    def run(self) -> RunResult:
        """Execute to completion (or deadlock).

        Runs under an ``interp.run`` tracer span; when a metrics session
        is installed it also records scheduling behaviour: ``interp.steps``,
        ``interp.context_switches`` (consecutive steps taken by different
        threads), and ``interp.blocked_thread_steps`` — the total number of
        (step × blocked-thread) pairs, the cooperative-engine measure of
        post/wait blocking time.  Without a session the per-step cost is a
        single bool check.
        """
        tracer = get_tracer()
        self._metrics = metrics = get_metrics()
        observing = metrics.enabled
        context_switches = 0
        blocked_thread_steps = 0
        last_tid: Optional[int] = None
        with tracer.span(
            "interp.run",
            program=self.program.name,
            scheduler=type(self.scheduler).__name__,
        ) as span:
            root = self._spawn({}, self.program.body, fork=None)
            steps = 0
            while True:
                alive = [t for t in self._threads.values() if t.status != "done"]
                if not alive:
                    break
                runnable = sorted(t.tid for t in alive if self._is_runnable(t))
                if not runnable:
                    self.result.deadlocked = True
                    self.result.blocked_events = sorted(
                        {
                            t.waiting_event
                            for t in alive
                            if t.status == "blocked" and t.waiting_event is not None
                        }
                    )
                    break
                steps += 1
                if steps > self.max_steps:
                    raise StepBudgetExceeded(f"exceeded {self.max_steps} steps")
                thread = self._threads[self.scheduler.pick_thread(runnable)]
                if observing:
                    if last_tid is not None and thread.tid != last_tid:
                        context_switches += 1
                    last_tid = thread.tid
                    blocked_thread_steps += sum(1 for t in alive if t.status == "blocked")
                self._step(thread)
            self.result.final_env = root.env
            self.result.steps = steps
            self.result.inputs = dict(self.inputs)
            if tracer.enabled:
                span.annotate(
                    steps=steps,
                    threads=self._next_tid,
                    deadlocked=self.result.deadlocked,
                    context_switches=context_switches,
                )
        if observing:
            metrics.inc("interp.runs")
            metrics.inc("interp.steps", steps)
            metrics.inc("interp.threads", self._next_tid)
            metrics.inc("interp.context_switches", context_switches)
            metrics.inc("interp.blocked_thread_steps", blocked_thread_steps)
            if self.result.deadlocked:
                metrics.inc("interp.deadlocks")
        return self.result

    def _is_runnable(self, t: _Thread) -> bool:
        if t.status == "ready":
            return True
        if t.status == "blocked":
            assert t.waiting_event is not None
            return self.events[t.waiting_event].posted
        return False

    def _step(self, t: _Thread) -> None:
        assert t.gen is not None
        try:
            token = next(t.gen)
        except StopIteration:
            self._finish(t)
            return
        if token == "step":
            t.status = "ready"
            t.waiting_event = None
        elif isinstance(token, tuple) and token[0] == "blocked":
            t.status = "blocked"
            t.waiting_event = token[1]
        elif isinstance(token, tuple) and token[0] == "fork":
            self._handle_fork(t, token[1])
        elif isinstance(token, tuple) and token[0] == "pardo":
            self._handle_pardo(t, token[1])
        else:  # pragma: no cover - protocol error
            raise RuntimeError(f"unexpected thread token {token!r}")

    def _handle_fork(self, parent: _Thread, stmt: ast.ParallelSections) -> None:
        record = _ForkRecord(
            parent=parent,
            stmt=stmt,
            snapshot=copy_env(parent.env),
            pending=len(stmt.sections),
            merge_site=self._join_names[id(stmt)],
        )
        parent.status = "joining"
        for section in stmt.sections:
            self._spawn(copy_env(parent.env), section.body, fork=record)

    def _handle_pardo(self, parent: _Thread, stmt: ast.ParallelDo) -> None:
        key = (parent.tid, parent.next_loop_id)
        parent.next_loop_id += 1
        iterations = self.scheduler.pardo_iterations(key)
        record = _ForkRecord(
            parent=parent,
            stmt=stmt,
            snapshot=copy_env(parent.env),
            pending=iterations,
            merge_site=self._join_names[id(stmt)],
            exclude=frozenset((stmt.index,)),
        )
        if iterations == 0:
            return  # zero-trip: nothing to merge, parent continues
        parent.status = "joining"
        for i in range(iterations):
            env = copy_env(parent.env)
            env[stmt.index] = Cell(i, None, 0)  # private, input-like index
            self._spawn(env, stmt.body, fork=record)

    def _finish(self, t: _Thread) -> None:
        t.status = "done"
        record = t.fork
        if record is None:
            return
        record.pending -= 1
        if record.pending == 0:
            self._merge_join(record)
            record.parent.status = "ready"

    def _merge_join(self, record: _ForkRecord) -> None:
        children = [t.env for t in self._threads.values() if t.fork is record]
        site = record.merge_site
        for var, cells in sorted(merge_candidates(record.snapshot, children).items()):
            if var in record.exclude:
                continue
            winner = max(cells, key=lambda c: c.seq)
            record.parent.env[var] = winner
            if len(cells) > 1:
                self.result.merges.append(
                    MergeObservation(
                        site=site,
                        var=var,
                        candidates=tuple(c.definition for c in cells),
                        winner=winner.definition,
                    )
                )

    # -- statement execution (generators) -----------------------------------------

    def _exec_block(self, stmts: List[ast.Stmt], t: _Thread) -> Iterator:
        for stmt in stmts:
            yield from self._exec_stmt(stmt, t)

    def _exec_stmt(self, stmt: ast.Stmt, t: _Thread) -> Iterator:
        yield "step"
        if isinstance(stmt, ast.Assign):
            loc = self.index.of_stmt(stmt)
            self.result.node_trace.append(loc[0])
            value = self._eval(stmt.expr, t, loc)
            self.seq += 1
            t.env[stmt.target] = Cell(value, self.index.definition(stmt), self.seq)
        elif isinstance(stmt, ast.Skip):
            pass
        elif isinstance(stmt, ast.Post):
            self.result.node_trace.append(self._post_names[id(stmt)])
            self.events[stmt.event].post(t.env)
            self._metrics.inc("interp.posts")
        elif isinstance(stmt, ast.Clear):
            self.result.node_trace.append(self.index.of_stmt(stmt)[0])
            self.events[stmt.event].clear()
        elif isinstance(stmt, ast.Wait):
            event = self.events[stmt.event]
            self._metrics.inc("interp.waits")
            if not event.posted:
                self._metrics.inc("interp.waits_blocked")
            while not event.posted:
                yield ("blocked", stmt.event)
            conflicts = event.absorb_into(t.env)
            site = self._wait_names[id(stmt)]
            self.result.node_trace.append(site)
            for var, cells in sorted(conflicts.items()):
                self.result.merges.append(
                    MergeObservation(
                        site=site,
                        var=var,
                        candidates=tuple(c.definition for c in cells),
                        winner=t.env[var].definition,
                    )
                )
        elif isinstance(stmt, ast.If):
            loc = self.index.of_cond(stmt.cond)
            if loc is not None:
                self.result.node_trace.append(loc[0])
            value = self._eval(stmt.cond, t, loc)
            body = stmt.then_body if value else stmt.else_body
            yield from self._exec_block(body, t)
        elif isinstance(stmt, ast.While):
            while True:
                value = self._eval(stmt.cond, t, self.index.of_cond(stmt.cond))
                if not value:
                    break
                yield from self._exec_block(stmt.body, t)
                yield "step"  # scheduling point before re-testing
        elif isinstance(stmt, ast.Loop):
            key = (t.tid, t.next_loop_id)
            t.next_loop_id += 1
            iteration = 0
            while self.scheduler.loop_decision(key, iteration):
                yield from self._exec_block(stmt.body, t)
                iteration += 1
                yield "step"
        elif isinstance(stmt, ast.ParallelSections):
            yield ("fork", stmt)
        elif isinstance(stmt, ast.ParallelDo):
            yield ("pardo", stmt)
        else:  # pragma: no cover - future node kinds
            raise TypeError(f"cannot execute {type(stmt).__name__}")

    # -- expression evaluation ----------------------------------------------------------

    def _eval(self, expr: ast.Expr, t: _Thread, loc: Optional[Tuple[str, int]]) -> Value:
        """Value of ``expr`` in ``t``; variables are read in source order."""
        return expr.fold(
            lambda leaf: self._read(leaf, t, loc),
            lambda node, inner: (not inner) if node.op == "not" else -inner,
            lambda node, left, right: ast.apply_binop(node.op, left, right),
        )

    def _read(self, leaf: ast.Expr, t: _Thread, loc: Optional[Tuple[str, int]]) -> Value:
        if not isinstance(leaf, ast.Var):
            return leaf.value  # a literal
        cell = t.env.get(leaf.name)
        if cell is None:
            if leaf.name not in self.inputs:
                self.inputs[leaf.name] = self.scheduler.free_value(leaf.name)
            value: Value = self.inputs[leaf.name]
            definition = None
        else:
            value = cell.value
            definition = cell.definition
        if loc is not None:
            use = Use(var=leaf.name, site=loc[0], ordinal=loc[1])
            self.result.uses.append(UseObservation(use=use, definition=definition))
        return value


def run_program(
    program: ast.Program,
    scheduler: Optional[Scheduler] = None,
    graph: Optional[ParallelFlowGraph] = None,
    max_steps: int = 100_000,
) -> RunResult:
    """Execute ``program`` once under ``scheduler`` (default: seeded random)."""
    return Interpreter(program, scheduler=scheduler, graph=graph, max_steps=max_steps).run()
