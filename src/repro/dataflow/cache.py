"""The program digest and the per-AST graph memo.

* :func:`program_digest` — SHA-256 of a program's canonical
  pretty-printing: structurally identical programs digest identically
  regardless of how their ASTs were produced.  It is what batch and serve
  records and the fuzz manifest carry as ``digest``; nothing keys a cache
  on it.
* :func:`cached_build_pfg` — :func:`repro.pfg.build_pfg` memoized **on
  the AST object** (``program._pfg``), the way the graph memoizes its own
  facts (``graph._index``, ``graph._genkill_memo``).  PFG nodes hold
  statement objects and the interpreter links runtime events to blocks by
  statement identity, so a graph is only valid for the exact AST it was
  built from; keying it on that object needs no digest and no validity
  check.  The graph keeps no pointer back to its program, so a dropped
  AST frees its graph by reference counting.

Repeated analyses of one program inside a process (``report`` running the
ladder and then the clients, ``check``, the incremental engine's
fallback) share one graph, and through it one gen/kill table.  An AST
mutated in place after analysis is outside the contract: build a new one.
Requests that repeat across processes are answered by serve's completed-
record cache (:mod:`repro.serve.worker`), the only place they come back.
"""

from __future__ import annotations

import hashlib

from ..obs import get_metrics


def program_digest(program) -> str:
    """A stable content digest of ``program``: SHA-256 over its canonical
    pretty-printing.  Structurally identical programs digest identically
    regardless of AST provenance or formatting of the original source."""
    from ..lang.pretty import pretty  # deferred: keeps this module importable from anywhere

    text = pretty(program)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def cached_build_pfg(program):
    """:func:`repro.pfg.build_pfg`, built once per AST object.

    The graph is stored on ``program`` and shared by every later call —
    safe because the analysis pipeline treats graphs as immutable after
    construction.  Hit/miss totals land in ``cache.pfg.*`` when an
    observability session is installed.
    """
    graph = getattr(program, "_pfg", None)
    if graph is not None:
        get_metrics().inc("cache.pfg.hits")
        return graph
    get_metrics().inc("cache.pfg.misses")
    from ..pfg import build_pfg

    graph = program._pfg = build_pfg(program)
    return graph
