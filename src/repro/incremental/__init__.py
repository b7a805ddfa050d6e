"""Incremental SCC-region re-analysis (delta solving).

Public surface::

    from repro.incremental import IncrementalBase, incremental_analyze

    base = IncrementalBase.from_result(prog_v1, analyze(prog_v1, solver="scc"))
    outcome = incremental_analyze(base, prog_v2)
    outcome.result          # byte-identical to analyze(prog_v2)
    outcome.regions_reused  # condensation regions skipped verbatim

See :mod:`repro.incremental.engine` for the reuse/soundness argument,
:mod:`repro.incremental.diff` for the version matcher, and
``docs/incremental.md`` for the dirty-frontier algorithm and the
fallback matrix.
"""

from .diff import GraphMatch, dirty_regions, match_graphs, node_fingerprint
from .engine import (
    FALLBACK_SYNC,
    FALLBACK_SYSTEM,
    FALLBACK_UNMAPPED,
    FALLBACK_UNMATCHED,
    IncrementalBase,
    IncrementalOutcome,
    incremental_analyze,
)

__all__ = [
    "GraphMatch",
    "IncrementalBase",
    "IncrementalOutcome",
    "FALLBACK_SYNC",
    "FALLBACK_SYSTEM",
    "FALLBACK_UNMAPPED",
    "FALLBACK_UNMATCHED",
    "dirty_regions",
    "incremental_analyze",
    "match_graphs",
    "node_fingerprint",
]
