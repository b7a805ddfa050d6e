"""Generic monotone equation-system framework.

The paper's three reaching-definitions systems (sequential, parallel,
synchronized) are *irregular* data-flow problems: several interacting set
variables per node (``In``, ``Out``, ``ACCKillin``, ``ACCKillout``,
``ForkKill``, ``SynchPass``) with node-kind-dependent update rules.  Rather
than force them into a transfer-function/lattice mould, the framework asks
each system for a single ``update(node)`` that recomputes all of the node's
variables from current state (Gauss–Seidel style — updates within a pass
are immediately visible, which is how the paper's worked tables iterate)
and reports whether anything changed.

Monotonicity of the updates guarantees a least fixpoint; the solvers in
:mod:`repro.dataflow.solver` only control *visit order*.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Generic, Hashable, Iterable, List, Optional, Sequence, TypeVar

N = TypeVar("N", bound=Hashable)


class EquationSystem(Generic[N]):
    """One fixpoint problem over nodes of type ``N``."""

    def nodes(self) -> Sequence[N]:
        """All nodes whose equations must reach fixpoint."""
        raise NotImplementedError

    def initialize(self) -> None:
        """Reset all variables to the bottom of their lattices."""
        raise NotImplementedError

    def update(self, node: N) -> bool:
        """Recompute ``node``'s variables from current state; return True
        iff any variable changed.  Must be monotone."""
        raise NotImplementedError

    def dependents(self, node: N) -> Iterable[N]:
        """Nodes whose equations read ``node``'s variables — drives the
        worklist, SCC and stabilized solvers.  Must over-approximate the
        true dependencies.  For a system with a kill layer it must cover
        the readers of *every* slot in both phases and across them (a
        flow row read by a kill equation, a kill row read by a flow
        equation): the stabilized solver re-solves only the forward
        closure of changed rows under this relation, so a missing reader
        keeps a stale row.  The §5/§6 systems return control successors,
        synchronization successors (§6) and fork → join."""
        raise NotImplementedError

    def snapshot(self) -> object:
        """An immutable view of current state (for per-pass traces); optional."""
        return None

    # -- stabilized-solver protocol (systems with a kill layer) -------------

    def state_key(self, nodes: Optional[Iterable[N]] = None) -> Hashable:
        """A hashable key of the current state, restricted to ``nodes``
        when given; two states have equal keys iff they have equal
        snapshots.  The stabilized solver compares it after every round,
        so it must not decode: return the encoded rows.  Required only of
        systems that expose ``update_kill``."""
        raise NotImplementedError(f"{type(self).__name__} does not implement state_key()")

    # -- provenance protocol (opt-in; see repro.provenance) -----------------

    #: When True, every solver calls :meth:`record_justifications` once
    #: after convergence (and never during iteration — recording is a pure
    #: function of the converged state, so all solvers that reach the same
    #: fixpoint record identical justifications).  The flag is read with
    #: one ``getattr`` per solve, so the disabled default costs nothing.
    wants_provenance: bool = False

    def record_justifications(self) -> object:
        """Derive and retain the justification graph of the current
        (converged) state; returns it.  Systems that set
        ``wants_provenance`` must implement this."""
        raise NotImplementedError(
            f"{type(self).__name__} set wants_provenance but does not "
            "implement record_justifications()"
        )


@dataclass
class SolveStats:
    """Fixpoint iteration statistics.

    ``passes`` counts *all* round-robin sweeps including the final sweep
    that verifies nothing changed; ``changing_passes`` counts only sweeps
    that changed some variable.  The paper's "converges on the second
    iteration" for Figure 8 is ``changing_passes == 1, passes == 2``;
    "fixpoint reached in the third iteration" for Figures 11/12 is
    ``changing_passes == 2, passes == 3``.

    ``snapshots`` (filled only under ``snapshot_passes=True``) holds one
    full copy of every node variable per sweep — memory is
    O(passes × nodes × set size), which is why the round-robin solver
    caps it (``max_snapshots``) instead of letting a long run exhaust
    memory.

    ``span`` is the tracer :class:`repro.obs.Span` that timed this solve
    when an observability session was installed (``None`` otherwise); it
    carries wall time and the per-pass child spans.  It is deliberately
    excluded from :meth:`as_dict`, which stays a flat, JSON-ready record.

    ``sweepless`` marks solvers with no notion of a global sweep (the
    worklist and SCC-scheduled solvers): pass counts are meaningless
    there, so :meth:`as_dict` (and hence ``repro stats`` rendering and
    span annotations) omits ``passes``/``changing_passes`` instead of
    reporting a misleading ``0``.

    ``regions_reused`` / ``regions_solved`` are filled only by the
    incremental re-analysis engine (:mod:`repro.incremental`): clean
    condensation regions whose rows were installed verbatim from the
    base solve vs. dirty-cone regions actually re-solved.  Both stay 0
    (and out of :meth:`as_dict`) on ordinary from-scratch solves.
    """

    order: str = ""
    passes: int = 0
    changing_passes: int = 0
    node_updates: int = 0
    changed_updates: int = 0
    converged: bool = False
    snapshots: List[object] = field(default_factory=list)
    span: Optional[object] = None
    sweepless: bool = False
    regions_reused: int = 0
    regions_solved: int = 0

    def as_dict(self) -> Dict[str, object]:
        record: Dict[str, object] = {"order": self.order}
        if not self.sweepless:
            record["passes"] = self.passes
            record["changing_passes"] = self.changing_passes
        record.update(
            node_updates=self.node_updates,
            changed_updates=self.changed_updates,
            converged=self.converged,
        )
        if self.regions_reused or self.regions_solved:
            record["regions_reused"] = self.regions_reused
            record["regions_solved"] = self.regions_solved
        return record


class FixpointDiverged(RuntimeError):
    """The solver hit its pass budget without converging — with monotone
    updates over finite lattices this indicates a bug in the equations."""

    def __init__(self, stats: SolveStats):
        self.stats = stats
        super().__init__(f"no fixpoint after {stats.passes} passes ({stats.node_updates} updates)")


@dataclass
class VariableMap(Generic[N]):
    """Tiny helper: one named set-variable per node, with change tracking
    delegated to a backend ``equals``."""

    name: str
    values: Dict[N, object] = field(default_factory=dict)

    def get(self, node: N) -> object:
        return self.values[node]

    def set(self, node: N, value: object, equals) -> bool:
        """Store ``value``; return True iff it differs from the old value."""
        old = self.values.get(node)
        if old is not None and equals(old, value):
            return False
        self.values[node] = value
        return True
