"""Dense (vectorized) evaluation of cyclic SCC regions.

The scc engine's scalar inner loop (:mod:`repro.dataflow.sched`) runs one
Python-level bitset expression per node update, and — worse — one
frozenset conversion per node per stabilization round for the round
history.  This module evaluates a whole cyclic region at once instead:
the region's rows are stacked into 2-D packed ``uint64`` matrices (one
row per node, one column per 64 definitions — the paper's bit-vector
representation, two-dimensional), and every sweep is a handful of
whole-region ``|`` / ``&~`` array operations plus adjacency-driven
row-gather joins (``np.bitwise_or.reduceat`` / ``bitwise_and.reduceat``
over fancy-indexed source matrices).

Why the fixpoints are byte-identical to the scalar path
-------------------------------------------------------

The scalar region solver alternates *flow* and *kill* phases, each of
which is a **monotone** functional (with the other layer frozen) iterated
from ⊥ to its least fixpoint.  A least fixpoint of a monotone functional
over a finite lattice is independent of the iteration strategy (chaotic
iteration theorem): Gauss–Seidel sweeps in any order, Jacobi rounds, and
the levelized sweeps used here all terminate at the same values.  The
dense evaluator therefore reproduces each phase fixpoint *exactly*; since
the round history, cycle detection, and conservative kill-meet are pure
functions of the phase fixpoints, the whole region result — and hence the
global fixpoint — is byte-identical to the scalar engine's.  (The
property suite in ``tests/property/test_dense_region.py`` and the
``solver-agreement`` fuzz oracle pin this.)

Sweep mechanics
---------------

Region rows are ordered by the caller's sweep priority.  Levels are the
longest-path depth over *forward* edges (pred before successor in that
order); within a sweep, levels evaluate in order and each level's rows
are written in place, so forward dependencies read this-sweep values
(Gauss–Seidel) while back edges read previous-sweep values.  Meet/join
families gather through a per-slot *source pool* matrix: rows ``[0, R)``
are the live region rows (updated in place), followed by one constant row
per external (already-final upstream) node referenced, and a trailing
all-zeros sentinel row that stands in for empty families (the empty union
and — per DESIGN.md §2 — the empty intersection are both ∅).

Two system profiles are supported, detected structurally so this module
never imports :mod:`repro.reachdefs`:

``"plain"``
    Classical monotone In/Out systems (``_in``/``_out``/``_gen``/
    ``_kill`` over ``graph.control_preds``): one flow fixpoint, no
    rounds.

``"phase"``
    The §5 parallel system (``In``/``Out``/``ACCKillin``/``ACCKillout``/
    ``ForkKill``): full stabilized round protocol with cycle-meet.

The §6 synchronized system (``SynchPass`` present) deliberately reports
*no* profile — its sync-ordering layer stays on the scalar path, which
the dispatch counters make observable (``repro stats``).

Everything in a :class:`RegionProgram` is plain numpy + ints, so programs
pickle cleanly to :class:`~concurrent.futures.ProcessPoolExecutor`
workers for wavefront region parallelism (see ``sched.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .bitset import BulkView

#: Attribute signature of the classical monotone systems (§2).
PLAIN_ATTRS = ("_in", "_out", "_gen", "_kill", "graph")

#: Attribute signature of the §5 phase-split system.
PHASE_ATTRS = (
    "In",
    "Out",
    "ACCKillin",
    "ACCKillout",
    "ForkKill",
    "_gen",
    "_kill",
    "_parkill",
    "_all_preds",
    "_par_preds",
    "_seq_preds",
)


#: Auto-mode floors on region size: a region goes dense only with at
#: least ``MIN_NODES`` nodes and ``nodes × words`` packed cells of at
#: least ``MIN_CELLS``, else per-call numpy overhead dominates.
MIN_NODES = 32
MIN_CELLS = 64

#: Auto-mode floor on ``nodes / levels``: a narrow-deep region (a
#: loop-wrapped chain collapses to width ≈ 1) sweeps as many levels as
#: nodes, so the vectorization has nothing to batch.
MIN_WIDTH = 2.0


@dataclass(frozen=True)
class DenseConfig:
    """When and how the dense region evaluator engages (pass ``None``
    instead of a config for the scalar path everywhere).

    ``mode``
        ``"auto"`` — engage per region when :data:`MIN_NODES`,
        :data:`MIN_CELLS` and :data:`MIN_WIDTH` say the matrix
        formulation pays for itself; ``"always"`` — every eligible
        cyclic region goes dense (what the agreement tests and the fuzz
        oracles use for maximum coverage).
    ``workers``
        wavefront region parallelism: independent dense regions at the
        same condensation depth are solved concurrently on up to this
        many processes (1 = in-process).
    """

    mode: str = "auto"
    workers: int = 1

    def __post_init__(self):
        if self.mode not in ("auto", "always"):
            raise ValueError(f"unknown dense mode {self.mode!r}; choose auto or always")
        if self.workers < 1:
            raise ValueError("dense workers must be >= 1")

    def key(self) -> Tuple:
        """Result-affecting identity (for cache keys — workers excluded:
        they change wall-clock, never values)."""
        return ("dense", self.mode)


class RegionDiverged(RuntimeError):
    """A dense region hit a terminal pass/round cap; the scc driver
    converts this into a :class:`~repro.dataflow.budget.NonConvergenceError`
    (workers re-raise it across the process boundary)."""


def dense_profile(system) -> Optional[str]:
    """Which dense formulation fits ``system`` — ``"plain"``, ``"phase"``,
    or None for the scalar fallback.

    Detection is structural (duck-typed on the equation-state attributes)
    so the dataflow layer keeps its independence from
    :mod:`repro.reachdefs`.  Systems carrying a ``SynchPass`` layer (§6)
    are deliberately unsupported: their sync-ordering equations stay on
    the scalar path.
    """
    if all(hasattr(system, a) for a in PHASE_ATTRS):
        if hasattr(system, "SynchPass"):
            return None
        return "phase"
    if all(hasattr(system, a) for a in PLAIN_ATTRS):
        return "plain"
    return None


# -- gather plans ----------------------------------------------------------


@dataclass
class _Plan:
    """One reduceat gather: for each destination, reduce the pool rows of
    its source family.  Empty families point at the pool's zeros sentinel
    (reduceat has no identity element for empty segments)."""

    idx: np.ndarray  # concatenated pool-row indices, family by family
    starts: np.ndarray  # family start offsets into idx

    def union(self, pool: np.ndarray) -> np.ndarray:
        return np.bitwise_or.reduceat(pool[self.idx], self.starts, axis=0)

    def intersect(self, pool: np.ndarray) -> np.ndarray:
        return np.bitwise_and.reduceat(pool[self.idx], self.starts, axis=0)


def _make_plan(families: Sequence[Sequence[int]], zeros_row: int) -> _Plan:
    idx: List[int] = []
    starts: List[int] = []
    for fam in families:
        starts.append(len(idx))
        if fam:
            idx.extend(fam)
        else:
            idx.append(zeros_row)
    return _Plan(np.asarray(idx, dtype=np.intp), np.asarray(starts, dtype=np.intp))


class _ConstPool:
    """Registry of external (already-final) values referenced by a region:
    each distinct external node gets one constant pool row."""

    def __init__(self, n_live: int):
        self.n_live = n_live
        self.rows: List[np.ndarray] = []
        self._index: Dict[object, int] = {}

    def row_for(self, node, value_row: Callable[[], np.ndarray]) -> int:
        got = self._index.get(node)
        if got is None:
            got = self.n_live + len(self.rows)
            self.rows.append(value_row())
            self._index[node] = got
        return got

    @property
    def zeros_row(self) -> int:
        """Sentinel index — only valid once every constant is registered."""
        return self.n_live + len(self.rows)

    def build(self, n_words: int) -> np.ndarray:
        pool = np.zeros((self.n_live + len(self.rows) + 1, n_words), dtype=np.uint64)
        for j, row in enumerate(self.rows):
            pool[self.n_live + j] = row
        return pool


def _levelize(n_rows: int, pred_rows: Sequence[Sequence[int]]) -> List[np.ndarray]:
    """Longest-path levels over forward edges (pred row < node row).
    Rows are in sweep-priority order, so all forward preds of a row are
    levelled before it."""
    level = [0] * n_rows
    for r in range(n_rows):
        best = 0
        for p in pred_rows[r]:
            if p < r and level[p] >= best:
                best = level[p] + 1
        level[r] = best
    n_levels = (max(level) + 1) if n_rows else 0
    buckets: List[List[int]] = [[] for _ in range(n_levels)]
    for r in range(n_rows):
        buckets[level[r]].append(r)
    return [np.asarray(b, dtype=np.intp) for b in buckets]


# -- region programs -------------------------------------------------------


@dataclass
class _KillLevel:
    """One level of the kill-phase sweep.  ``rows`` is the concatenation
    of the non-join and join destination rows (the per-level results are
    stacked in that order)."""

    rows: np.ndarray
    n_nonjoin: int
    nonjoin_plan: Optional[_Plan]  # ∩ over par+seq preds (ACCKillin, non-join)
    join_rows: np.ndarray
    join_par_plan: Optional[_Plan]  # ∪ over par preds (ACCKillin, join)
    join_seq_plan: Optional[_Plan]  # ∩ over seq preds (ACCKillin, join)
    join_fork_idx: Optional[np.ndarray]  # fk-pool row of each join's fork


@dataclass
class RegionProgram:
    """A cyclic region compiled to numpy form: constants, source pools and
    gather plans.  Pure data (arrays + ints) — picklable to pool workers;
    node identities live only in the builder and the write-back."""

    profile: str
    n_rows: int
    n_words: int
    # Flow layer (both profiles): Out is the iterated slot.
    out_pool: np.ndarray  # (R + consts + 1, W); rows [0, R) live
    flow_levels: List[Tuple[np.ndarray, _Plan]]
    gen: np.ndarray  # (R, W)
    out_kill: np.ndarray  # (R, W): what Out subtracts (Kill [| ParallelKill])
    # Kill layer (phase profile only).
    in_sub_plan: Optional[_Plan] = None  # ∪ ACCKillout over par preds
    ako_pool: Optional[np.ndarray] = None
    fk_pool: Optional[np.ndarray] = None
    kill_acc: Optional[np.ndarray] = None  # (R, W): Kill for the ACCKill base
    is_fork: Optional[np.ndarray] = None  # (R,) bool
    kill_levels: Optional[List[_KillLevel]] = None


@dataclass
class RegionSolution:
    """Converged packed rows plus iteration accounting for one region."""

    profile: str
    in_rows: np.ndarray
    out_rows: np.ndarray
    aki_rows: Optional[np.ndarray] = None
    ako_rows: Optional[np.ndarray] = None
    fk_rows: Optional[np.ndarray] = None
    sweeps: int = 0
    rounds: int = 0
    cycle: bool = False
    node_updates: int = 0
    changed_updates: int = 0


def build_region_program(
    system, rnodes: Sequence, profile: str, min_width: float = 0.0
) -> Optional[RegionProgram]:
    """Compile one cyclic region of ``system`` (nodes in sweep-priority
    order) into a :class:`RegionProgram`.  External values are read from
    the system's current state — the scc driver guarantees they are final
    when the region is reached.

    Returns ``None`` when the region's width (rows per flow level) is
    below ``min_width`` — auto mode's narrow-region fallback, decided
    before the region's rows are converted to words."""
    bulk = BulkView(system.ops)
    words = bulk.backend.to_words
    n_words = bulk.n_words
    n_rows = len(rnodes)
    pos = {n: i for i, n in enumerate(rnodes)}

    if profile == "plain":
        graph = system.graph
        out_slot, gen_slot, kill_slot = system._out, system._gen, system._kill
        out_consts = _ConstPool(n_rows)
        flow_families: List[List[int]] = []
        flow_pred_rows: List[List[int]] = []
        for n in rnodes:
            fam: List[int] = []
            inreg: List[int] = []
            for p in graph.control_preds(n):
                r = pos.get(p)
                if r is not None:
                    fam.append(r)
                    inreg.append(r)
                else:
                    fam.append(out_consts.row_for(p, lambda p=p: words(out_slot[p])))
            flow_families.append(fam)
            flow_pred_rows.append(inreg)
        levels = _levelize(n_rows, flow_pred_rows)
        if n_rows / max(1, len(levels)) < min_width:
            return None
        zeros = out_consts.zeros_row
        flow_levels = [
            (rows, _make_plan([flow_families[r] for r in rows], zeros))
            for rows in levels
        ]
        gen = np.stack([words(gen_slot[n]) for n in rnodes])
        out_kill = np.stack([words(kill_slot[n]) for n in rnodes])
        return RegionProgram(
            profile=profile,
            n_rows=n_rows,
            n_words=n_words,
            out_pool=out_consts.build(n_words),
            flow_levels=flow_levels,
            gen=gen,
            out_kill=out_kill,
        )

    if profile != "phase":
        raise ValueError(f"unknown dense profile {profile!r}")

    out_consts = _ConstPool(n_rows)
    ako_consts = _ConstPool(n_rows)
    fk_consts = _ConstPool(n_rows)
    flow_families = []
    flow_pred_rows = []
    par_families: List[List[int]] = []
    seq_families: List[List[int]] = []
    kill_pred_rows: List[List[int]] = []
    for n in rnodes:
        fam, inreg = [], []
        for p in system._all_preds[n]:
            r = pos.get(p)
            if r is not None:
                fam.append(r)
                inreg.append(r)
            else:
                fam.append(out_consts.row_for(p, lambda p=p: words(system.Out[p])))
        flow_families.append(fam)
        flow_pred_rows.append(inreg)

        pfam, sfam, kpreds = [], [], []
        for p in system._par_preds[n]:
            r = pos.get(p)
            if r is not None:
                pfam.append(r)
                kpreds.append(r)
            else:
                pfam.append(ako_consts.row_for(p, lambda p=p: words(system.ACCKillout[p])))
        for p in system._seq_preds[n]:
            r = pos.get(p)
            if r is not None:
                sfam.append(r)
                kpreds.append(r)
            else:
                sfam.append(ako_consts.row_for(p, lambda p=p: words(system.ACCKillout[p])))
        if n.is_join and not n.is_fork and n.fork is not None and n.fork in pos:
            kpreds.append(pos[n.fork])
        par_families.append(pfam)
        seq_families.append(sfam)
        kill_pred_rows.append(kpreds)

    flow_level_rows = _levelize(n_rows, flow_pred_rows)
    if n_rows / max(1, len(flow_level_rows)) < min_width:
        return None
    kill_level_rows = _levelize(n_rows, kill_pred_rows)

    # Flow plans must be built before the pools: registering constants
    # moves the zeros sentinel, so plans snapshot it only after every
    # family for that pool has been walked (done above).
    flow_levels = [
        (rows, _make_plan([flow_families[r] for r in rows], out_consts.zeros_row))
        for rows in flow_level_rows
    ]
    in_sub_plan = _make_plan(par_families, ako_consts.zeros_row)

    is_fork = np.array([bool(n.is_fork) for n in rnodes])
    is_join = [bool(n.is_join and not n.is_fork) for n in rnodes]
    join_fork_pool_row: Dict[int, int] = {}
    for i, n in enumerate(rnodes):
        if is_join[i]:
            assert n.fork is not None
            r = pos.get(n.fork)
            if r is None:
                r = fk_consts.row_for(
                    n.fork, lambda f=n.fork: words(system.ForkKill[f])
                )
            join_fork_pool_row[i] = r

    ako_zeros = ako_consts.zeros_row
    kill_levels: List[_KillLevel] = []
    for rows in kill_level_rows:
        nonjoin = [r for r in rows.tolist() if not is_join[r]]
        joins = [r for r in rows.tolist() if is_join[r]]
        kill_levels.append(
            _KillLevel(
                rows=np.asarray(nonjoin + joins, dtype=np.intp),
                n_nonjoin=len(nonjoin),
                nonjoin_plan=_make_plan(
                    [par_families[r] + seq_families[r] for r in nonjoin], ako_zeros
                )
                if nonjoin
                else None,
                join_rows=np.asarray(joins, dtype=np.intp),
                join_par_plan=_make_plan([par_families[r] for r in joins], ako_zeros)
                if joins
                else None,
                join_seq_plan=_make_plan([seq_families[r] for r in joins], ako_zeros)
                if joins
                else None,
                join_fork_idx=np.asarray(
                    [join_fork_pool_row[r] for r in joins], dtype=np.intp
                )
                if joins
                else None,
            )
        )

    gen = np.stack([words(system._gen[n]) for n in rnodes])
    kill_acc = np.stack([words(system._kill[n]) for n in rnodes])
    parkill = np.stack([words(system._parkill[n]) for n in rnodes])
    return RegionProgram(
        profile=profile,
        n_rows=n_rows,
        n_words=n_words,
        out_pool=out_consts.build(n_words),
        flow_levels=flow_levels,
        gen=gen,
        out_kill=kill_acc | parkill,
        in_sub_plan=in_sub_plan,
        ako_pool=ako_consts.build(n_words),
        fk_pool=fk_consts.build(n_words),
        kill_acc=kill_acc,
        is_fork=is_fork,
        kill_levels=kill_levels,
    )


# -- evaluation ------------------------------------------------------------


@dataclass
class _Counters:
    sweeps: int = 0
    rounds: int = 0
    cycle: bool = False
    node_updates: int = 0
    changed_updates: int = 0


def _flow_phase(
    prog: RegionProgram,
    sub: Optional[np.ndarray],
    counters: _Counters,
    on_sweep: Optional[Callable[[int], None]],
    max_passes: int,
) -> None:
    """Iterate the Out rows from ⊥ to the flow least fixpoint (given the
    frozen kill layer folded into ``sub``)."""
    n_rows = prog.n_rows
    pool = prog.out_pool
    live = pool[:n_rows]
    live[:] = 0
    not_mask = ~prog.out_kill if sub is None else ~(prog.out_kill | sub)
    gen = prog.gen
    passes = 0
    while True:
        if on_sweep is not None:
            on_sweep(n_rows)
        passes += 1
        counters.sweeps += 1
        counters.node_updates += n_rows
        if passes > max_passes:
            raise RegionDiverged(
                f"dense flow phase hit terminal pass cap {max_passes} (equation bug?)"
            )
        prev = live.copy()
        for rows, plan in prog.flow_levels:
            live[rows] = (plan.union(pool) & not_mask[rows]) | gen[rows]
        changed = int(np.any(prev != live, axis=1).sum())
        counters.changed_updates += changed
        if not changed:
            return


def _gather_in(prog: RegionProgram, sub: Optional[np.ndarray]) -> np.ndarray:
    """In rows from the converged Out pool (In is a pure function of the
    flow fixpoint, so one post-convergence gather suffices)."""
    in_rows = np.empty((prog.n_rows, prog.n_words), dtype=np.uint64)
    for rows, plan in prog.flow_levels:
        gathered = plan.union(prog.out_pool)
        in_rows[rows] = gathered if sub is None else gathered & ~sub[rows]
    return in_rows


def _kill_phase(
    prog: RegionProgram,
    aki: np.ndarray,
    counters: _Counters,
    on_sweep: Optional[Callable[[int], None]],
    max_passes: int,
) -> None:
    """Iterate the kill layer (ACCKillout / ForkKill, with ACCKillin
    derived) from ⊥ to its least fixpoint given the frozen Out rows."""
    n_rows = prog.n_rows
    ako_pool, fk_pool = prog.ako_pool, prog.fk_pool
    ako = ako_pool[:n_rows]
    ako[:] = 0
    fk_pool[:n_rows] = 0
    aki[:] = 0
    not_gen = ~prog.gen
    not_out = ~prog.out_pool[:n_rows]
    fork_col = prog.is_fork[:, None]
    zero = np.uint64(0)
    passes = 0
    while True:
        if on_sweep is not None:
            on_sweep(n_rows)
        passes += 1
        counters.sweeps += 1
        counters.node_updates += n_rows
        if passes > max_passes:
            raise RegionDiverged(
                f"dense kill phase hit terminal pass cap {max_passes} (equation bug?)"
            )
        prev = ako.copy()
        for lv in prog.kill_levels:
            parts = []
            if lv.nonjoin_plan is not None:
                parts.append(lv.nonjoin_plan.intersect(ako_pool))
            if lv.join_par_plan is not None:
                parts.append(lv.join_par_plan.union(ako_pool) | lv.join_seq_plan.intersect(ako_pool))
            aki_level = parts[0] if len(parts) == 1 else np.concatenate(parts)
            rows = lv.rows
            base = (aki_level | prog.kill_acc[rows]) & not_gen[rows]
            fork_sel = fork_col[rows]
            fk_pool[rows] = np.where(fork_sel, base, zero)
            vals = np.where(fork_sel, zero, base)
            if lv.join_rows.size:
                carried = fk_pool[lv.join_fork_idx] & not_out[lv.join_rows]
                vals[lv.n_nonjoin :] |= carried
            ako_pool[rows] = vals
            aki[rows] = aki_level
        changed = int(np.any(prev != ako, axis=1).sum())
        counters.changed_updates += changed
        if not changed:
            return


def run_region_program(
    prog: RegionProgram,
    max_passes: int,
    max_rounds: int,
    on_sweep: Optional[Callable[[int], None]] = None,
) -> RegionSolution:
    """Run a compiled region to its converged state.

    For the phase profile this is the full stabilized round protocol of
    the scalar engine — initial flow phase, kill/flow rounds with a
    byte-level round history, and the conservative kill-meet (pointwise
    ∩ over the cycle's kill states) on oscillation — operating on packed
    matrices throughout.  ``on_sweep(n_rows)`` fires once per sweep for
    budget charging; workers run without it and are budget-charged at
    the wave barrier.
    """
    counters = _Counters()
    n_rows = prog.n_rows
    live_out = prog.out_pool[:n_rows]

    if prog.profile == "plain":
        _flow_phase(prog, None, counters, on_sweep, max_passes)
        return RegionSolution(
            profile=prog.profile,
            in_rows=_gather_in(prog, None),
            out_rows=live_out.copy(),
            sweeps=counters.sweeps,
            node_updates=counters.node_updates,
            changed_updates=counters.changed_updates,
        )

    ako = prog.ako_pool[:n_rows]
    fk = prog.fk_pool[:n_rows]
    aki = np.zeros((n_rows, prog.n_words), dtype=np.uint64)

    def snap(in_rows: np.ndarray) -> Tuple[bytes, ...]:
        return (
            in_rows.tobytes(),
            live_out.tobytes(),
            aki.tobytes(),
            ako.tobytes(),
            fk.tobytes(),
        )

    def kill_copies():
        return (aki.copy(), ako.copy(), fk.copy())

    sub = prog.in_sub_plan.union(prog.ako_pool)
    _flow_phase(prog, sub, counters, on_sweep, max_passes)
    in_rows = _gather_in(prog, sub)
    history = [snap(in_rows)]
    kill_history = [kill_copies()]
    converged = False
    for _round in range(max_rounds):
        counters.rounds += 1
        _kill_phase(prog, aki, counters, on_sweep, max_passes)
        sub = prog.in_sub_plan.union(prog.ako_pool)
        _flow_phase(prog, sub, counters, on_sweep, max_passes)
        in_rows = _gather_in(prog, sub)
        current = snap(in_rows)
        if current == history[-1]:
            converged = True
            break
        if current in history:
            # Oscillation: meet the kill layer over the cycle's states
            # (keep only kills justified in every state), then one final
            # flow phase — exactly the scalar cycle resolution.
            start = history.index(current)
            cycle_kills = kill_history[start:] + [kill_copies()]
            for block, slot in ((aki, 0), (ako, 1), (fk, 2)):
                met = cycle_kills[0][slot]
                for other in cycle_kills[1:]:
                    met = met & other[slot]
                block[:] = met
            sub = prog.in_sub_plan.union(prog.ako_pool)
            _flow_phase(prog, sub, counters, on_sweep, max_passes)
            in_rows = _gather_in(prog, sub)
            counters.cycle = True
            converged = True
            break
        history.append(current)
        kill_history.append(kill_copies())
    if not converged:
        raise RegionDiverged(
            f"dense region hit terminal round cap {max_rounds} (equation bug?)"
        )
    return RegionSolution(
        profile=prog.profile,
        in_rows=in_rows,
        out_rows=live_out.copy(),
        aki_rows=aki.copy(),
        ako_rows=ako.copy(),
        fk_rows=fk.copy(),
        sweeps=counters.sweeps,
        rounds=counters.rounds,
        cycle=counters.cycle,
        node_updates=counters.node_updates,
        changed_updates=counters.changed_updates,
    )


def apply_region_solution(system, rnodes: Sequence, sol: RegionSolution) -> None:
    """Write a region's converged packed rows back into the system's
    scalar state (via the backend's ``from_words``, so every backend gets
    its native value type)."""
    unpack = BulkView(system.ops).backend.from_words
    if sol.profile == "plain":
        for i, n in enumerate(rnodes):
            system._in[n] = unpack(sol.in_rows[i])
            system._out[n] = unpack(sol.out_rows[i])
        return
    for i, n in enumerate(rnodes):
        system.In[n] = unpack(sol.in_rows[i])
        system.Out[n] = unpack(sol.out_rows[i])
        system.ACCKillin[n] = unpack(sol.aki_rows[i])
        system.ACCKillout[n] = unpack(sol.ako_rows[i])
        system.ForkKill[n] = unpack(sol.fk_rows[i])


def solve_region_payload(payload) -> RegionSolution:
    """Pool-worker entry point: solve one pickled region program.
    ``payload`` is ``(program, max_passes, max_rounds)``."""
    prog, max_passes, max_rounds = payload
    return run_region_program(prog, max_passes, max_rounds)
