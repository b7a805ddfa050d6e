"""The Parallel Flow Graph (paper §4) and its supporting analyses."""

from .builder import PFGBuilder, build_pfg
from .concurrency import concurrent, mutually_exclusive
from .dot import to_dot
from .edges import CONTROL_KINDS, EdgeKind
from .graph import ParallelFlowGraph
from .node import NodeKind, PFGNode
from .regions import ParallelConstruct, RegionInfo, compute_regions
from .validate import PFGInvariantError, validate_pfg

__all__ = [
    "PFGBuilder",
    "build_pfg",
    "concurrent",
    "mutually_exclusive",
    "to_dot",
    "CONTROL_KINDS",
    "EdgeKind",
    "ParallelFlowGraph",
    "NodeKind",
    "PFGNode",
    "ParallelConstruct",
    "RegionInfo",
    "compute_regions",
    "PFGInvariantError",
    "validate_pfg",
]
