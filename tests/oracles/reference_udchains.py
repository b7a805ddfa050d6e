"""Reference ud-chains: every ``In`` row grouped by variable.

:meth:`repro.reachdefs.result.ReachingDefsResult.ud_chains` intersects
each node's encoded ``In`` row with one definition mask per used
variable and decodes only those intersections.  This module keeps the
algorithm it replaced: read the decoded ``In`` row (a frozenset of
definitions), bucket it by the variables the node reads, and walk the
body in order so a same-block definition shadows the inflowing ones for
every later use.  It reads only ``graph``, ``in_sets`` and each node's
statements, so the oracle can run it on any result.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List

from repro.ir.defs import Definition, Use
from repro.lang import ast


def reference_uses(node) -> List[Use]:
    """All variable reads in ``node``, in execution order, each
    expression walked with ``Expr.variables()``."""
    out: List[Use] = []
    for ordinal, stmt in enumerate(node.stmts):
        if isinstance(stmt, ast.Assign):
            for var in stmt.expr.variables():
                out.append(Use(var=var, site=node.name, ordinal=ordinal))
    if node.cond is not None:
        for var in node.cond.variables():
            out.append(Use(var=var, site=node.name, ordinal=len(node.stmts)))
    return out


def reference_ud_chains(result) -> Dict[Use, FrozenSet[Definition]]:
    chains: Dict[Use, FrozenSet[Definition]] = {}
    for node in result.graph.nodes:
        uses = reference_uses(node)
        if not uses:
            continue
        inflow: Dict[str, List[Definition]] = {use.var: [] for use in uses}
        for d in result.in_sets[node]:
            bucket = inflow.get(d.var)
            if bucket is not None:
                bucket.append(d)
        reaching = {var: frozenset(ds) for var, ds in inflow.items()}
        def_of = {id(d.stmt): d for d in node.defs}
        local: Dict[str, FrozenSet[Definition]] = {}
        walked = 0  # statements whose definition is already in ``local``
        for use in uses:
            while walked < use.ordinal:
                d = def_of.get(id(node.stmts[walked]))
                if d is not None:
                    local[d.var] = frozenset((d,))
                walked += 1
            chains[use] = local.get(use.var) or reaching[use.var]
    return chains
