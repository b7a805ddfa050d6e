"""Regression: the incremental fallback contract.

Every fallback condition — sync-touching edits, structurally unmatched
diffs, base-system mismatches — must produce a *full* solve with
``solve.incr.fallbacks`` counted.  A fallback is never an error: the
outcome carries the ordinary result plus ``fallback`` naming the reason.
Serve has no delta form: a request carrying ``base_digest`` is a
``bad-request``."""

import pytest

from repro import analyze, obs, parse_program
from repro.incremental import (
    FALLBACK_SYNC,
    FALLBACK_SYSTEM,
    FALLBACK_UNMATCHED,
    IncrementalBase,
    incremental_analyze,
)
from repro.serve.protocol import ProtocolError, validate_request
from repro.synthetic import workloads

SYNC_SRC = """
program synced
  event e
  x = 1
  parallel sections
    section a
      x = 2
      post(e)
    section b
      wait(e)
      y = x
  end parallel sections
end program
"""


def _base_for(program, **kw):
    return IncrementalBase.from_result(
        program, analyze(program, cache=False, **kw)
    )


def _sets(result):
    return {
        (n.name, "In"): frozenset(d.name for d in result.In(n))
        for n in result.graph.nodes
    } | {
        (n.name, "Out"): frozenset(d.name for d in result.Out(n))
        for n in result.graph.nodes
    }


def test_sync_edit_falls_back_full_and_counted():
    """An edit that introduces synchronization: the §6 system stays
    whole-program, so the engine must full-solve with the fallback
    counted — and the answer must equal a from-scratch solve."""
    base = _base_for(workloads.diamond_chain(5))
    edited = parse_program(SYNC_SRC)
    with obs.session() as sess:
        outcome = incremental_analyze(base, edited, cache=False)
        counters = sess.metrics.export_state()["counters"]
    assert outcome.fallback == FALLBACK_SYNC
    assert outcome.regions_reused == 0
    assert counters.get("solve.incr.fallbacks") == 1
    assert _sets(outcome.result) == _sets(analyze(edited, cache=False))


def test_sync_base_falls_back_even_for_sync_free_edit():
    """Sync on the *base* side also disqualifies reuse: the retained rows
    came from the non-monotone §6 system."""
    base = _base_for(parse_program(SYNC_SRC))
    edited = workloads.diamond_chain(5)
    outcome = incremental_analyze(base, edited, cache=False)
    assert outcome.fallback == FALLBACK_SYNC
    assert _sets(outcome.result) == _sets(analyze(edited, cache=False))


def test_structurally_unmatched_diff_falls_back():
    """Diffing against a completely different program matches nothing —
    full solve, counted, correct."""
    base = _base_for(workloads.diamond_chain(6))
    edited = workloads.chain(10)
    with obs.session() as sess:
        outcome = incremental_analyze(base, edited, cache=False)
        counters = sess.metrics.export_state()["counters"]
    assert outcome.fallback == FALLBACK_UNMATCHED
    assert counters.get("solve.incr.fallbacks") == 1
    assert _sets(outcome.result) == _sets(analyze(edited, cache=False))


def test_system_family_change_falls_back():
    """Base solved sequentially, edit introduces Parallel Sections: the
    §5 kill layer has no retained rows to reuse."""
    base = _base_for(workloads.diamond_chain(4))
    edited = workloads.wide_parallel(3, 2)
    outcome = incremental_analyze(base, edited, cache=False)
    assert outcome.fallback in (FALLBACK_SYSTEM, FALLBACK_UNMATCHED)
    assert _sets(outcome.result) == _sets(analyze(edited, cache=False))


# ---------------------------------------------------------------------------
# Serve has no delta form
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("bad", [7, "", "   ", ["d"], {"d": 1}])
def test_protocol_rejects_bad_base_digest(bad):
    """``base_digest`` is an unknown option, whatever its value."""
    with pytest.raises(ProtocolError, match="base_digest"):
        validate_request(
            {"id": 1, "params": {"source": "program p\nx = 1\nend program",
                                 "base_digest": bad}}
        )
