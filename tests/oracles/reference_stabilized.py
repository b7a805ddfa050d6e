"""Reference stabilized solver: round states compared as decoded snapshots.

``repro.dataflow.solver.solve_stabilized`` detects convergence and round
cycles on ``system.state_key()`` — the encoded rows — and re-solves only
the cone each phase changed.  This is the algorithm it replaced, which
restarted every phase from ⊥ over the whole sweep order, swept every node
and compared ``system.snapshot()`` (every row decoded to a frozenset)
after every round.  It is kept, without tracing and budgets, so the
oracle tests can assert both give identical rows, order strings and
convergence, and that the sparse solver's pass and update counts never
exceed these.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.dataflow.framework import SolveStats


def reference_stabilized(
    system,
    order: Optional[Sequence] = None,
    order_name: str = "document",
    max_passes: int = 10_000,
    max_rounds: int = 100,
) -> SolveStats:
    nodes = list(order) if order is not None else list(system.nodes())
    system.initialize()
    stats = SolveStats(order=f"stabilized/{order_name}")

    def sweep_to_fixpoint(update) -> None:
        while True:
            stats.passes += 1
            if stats.passes > max_passes:
                raise RuntimeError(f"reference: pass cap {max_passes} hit")
            changed = False
            for node in nodes:
                stats.node_updates += 1
                if update(node):
                    stats.changed_updates += 1
                    changed = True
            if changed:
                stats.changing_passes += 1
            else:
                return

    sweep_to_fixpoint(system.update_flow)
    history: List[object] = [system.snapshot()]
    kill_history: List[object] = [system.kill_state()]
    for _ in range(max_rounds):
        system.reset_kill_nodes(nodes)
        sweep_to_fixpoint(system.update_kill)
        system.reset_flow_nodes(nodes)
        sweep_to_fixpoint(system.update_flow)
        current = system.snapshot()
        if current == history[-1]:
            stats.converged = True
            return stats
        if current in history:
            start = history.index(current)
            cycle_kills = kill_history[start:] + [system.kill_state()]
            system.set_kill_state(_meet_kill_states(system, cycle_kills))
            system.reset_flow_nodes(nodes)
            sweep_to_fixpoint(system.update_flow)
            stats.order += "+cycle"
            stats.converged = True
            return stats
        history.append(current)
        kill_history.append(system.kill_state())
    raise RuntimeError(f"reference: round cap {max_rounds} hit")


def _meet_kill_states(system, states):
    """Pointwise intersection of kill-layer states (slot -> node -> set)."""
    meet = system.meet_values
    out = {}
    first = states[0]
    for slot in first:
        out[slot] = {}
        for node in first[slot]:
            value = first[slot][node]
            for other in states[1:]:
                value = meet(value, other[slot][node])
            out[slot][node] = value
    return out
