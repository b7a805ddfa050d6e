"""Mask-propagating clients against the frozenset reference clients.

``UDChains`` keeps each chain as an int mask over definition indices,
and constprop, deadcode, copyprop and cse propagate over those masks;
``reference_clients`` keeps the pair-by-pair algorithms they replaced
(FIFO constprop over dependents, mark-and-sweep deadcode, copyprop over
decoded singleton chains, the frozenset CSE key).  On every program,
both backends and plain-dict rows, the two must agree on ``ud``/``du``
and the ``UDChains`` queries, constant values (type included, so
``True`` and ``1`` differ) and ``value_at``, the live/dead/roots
partition with and without exit observability, and the copy and CSE
lists, in order; the anomaly reports and available expressions' wait
kills, which test ``concurrent_defs`` bits, must equal the pairwise
``concurrent()`` versions.
"""

from dataclasses import replace

import pytest

from repro import analyze
from repro.analysis.anomalies import find_anomalies
from repro.analysis.availexpr import AvailableExpressionsSystem
from repro.analysis.constprop import VARYING, propagate_constants
from repro.analysis.copyprop import find_copy_propagations
from repro.analysis.cse import find_common_subexpressions
from repro.analysis.deadcode import find_dead_code
from repro.analysis.udchains import compute_ud_chains
from repro.lang import parse_program
from repro.paper import SOURCES
from repro.synthetic import (
    diamond_chain,
    fig3_repeated,
    par_diamond_loop,
    par_loop_chain,
    random_mix,
)

from .reference_clients import (
    ReferenceChains,
    reference_constants,
    reference_copies,
    reference_anomalies,
    reference_dead_code,
    reference_subexpressions,
    reference_value_at,
    reference_wait_kills,
)

HAND_WRITTEN = {
    # loop definitions that read themselves: x stays 0, w turns VARYING
    "self-read": """program p
(1) x = 0
(1) w = 0
loop
  (2) x = x * 1
  (2) w = w + 1
  (2) v = x + w
endloop
(3) z = x + w
end""",
    # True and 1 are different constants, and a bool op on them is none
    "true-vs-1": """program p
(1) a = true
(1) b = 1
if c then
  (2) t = true
  (2) s = 1
else
  (3) t = 1
  (3) s = 1
endif
(4) u = t
(4) v = s + b
(4) w = a and true
end""",
    "div-by-zero": """program p
(1) z = 0
(1) k = 7
(2) q = k / z
(2) r = k % z
(2) s = k / 7
end""",
    # a read no definition reaches is an unknown input
    "free-read": """program p
(1) x = input + 1
(2) y = x
(2) m = y * 0
if input then
  (3) y = 2
endif
(4) n = y
end""",
    # copies and common subexpressions across a parallel construct
    "copies-and-cse": """program p
(1) a = 4
(1) b = a
(1) c = a + n
parallel sections
  section A
    (2) d = b
    (2) e = a + n
  section B
    (3) f = a + n
end parallel sections
(4) g = d + c
(4) h = a + n
end""",
    # the second a + b follows the first over a sync edge, but the two
    # sections may run concurrently: no CSE
    "cse-across-sync": """program p
event e
(1) a = 1
(1) b = 2
parallel sections
  section one
    (3) x = a + b
    (3) post(e)
  section two
    (4) wait(e)
    (4) y = a + b
end parallel sections
end""",
    # x1 and x5 meet at the join; x5 races with itself across
    # iterations, but not with x1: multiple values, not a race
    "pardo-in-branch": """program p
(1) x = 0
parallel sections
  section a
    if c then
      parallel do i
        (5) x = i
      end parallel do
    endif
  section b
    (7) y = 1
end parallel sections
(8) z = x + y
end""",
}

PROGRAMS = {
    **{name: lambda src=src: parse_program(src) for name, src in SOURCES.items()},
    **{name: lambda src=src: parse_program(src) for name, src in HAND_WRITTEN.items()},
    "diamond12": lambda: diamond_chain(12),
    "pdloop4x3": lambda: par_diamond_loop(4, 3),
    "plchain3x3": lambda: par_loop_chain(3, 3),
    "fig3x3": lambda: fig3_repeated(3),
    **{f"mix{seed}": lambda seed=seed: random_mix(seed, 60) for seed in range(6)},
}


def plain(result):
    fields = ("in_sets", "out_sets", "acc_killin", "acc_killout", "fork_kill", "synch_pass")
    return replace(
        result,
        **{f: dict(getattr(result, f)) for f in fields if getattr(result, f) is not None},
    )


def check_clients(result):
    graph = result.graph
    ref = ReferenceChains(result)
    chains = compute_ud_chains(result)

    assert chains.ud == ref.ud and list(chains.ud) == list(ref.ud)
    assert chains.du == ref.du and list(chains.du) == list(ref.du)
    assert chains.unused_defs() == [d for d, uses in ref.du.items() if not uses]
    assert chains.multi_def_uses() == [(u, ds) for u, ds in ref.ud.items() if len(ds) > 1]
    assert chains.singleton_uses() == [
        (u, next(iter(ds))) for u, ds in ref.ud.items() if len(ds) == 1
    ]

    cp = propagate_constants(result, chains)
    values, _ = reference_constants(result, ref)
    assert list(cp.values) == list(values)
    for d, value in cp.values.items():
        assert type(value) is type(values[d]) and value == values[d], d
    for node in graph.nodes:
        for var in graph.defs.variables():
            got, want = cp.value_at(node, var), reference_value_at(result, values, node, var)
            assert type(got) is type(want) and got == want, (node, var)

    for observable in (True, False):
        assert find_dead_code(result, observable, chains) == reference_dead_code(
            result, ref, observable
        )
    assert find_copy_propagations(result, chains) == reference_copies(result, ref)
    assert find_common_subexpressions(result, chains) == reference_subexpressions(result, ref)
    assert find_anomalies(result) == reference_anomalies(result)
    avail = AvailableExpressionsSystem(graph)
    kills = reference_wait_kills(graph, avail.universe)
    assert {n: avail._entry_kill[n] for n in graph.waits} == kills


@pytest.mark.parametrize("backend", ["bitset", "set"])
@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_mask_clients_equal_the_reference(name, backend):
    result = analyze(PROGRAMS[name](), backend=backend)
    check_clients(result)
    check_clients(plain(result))


def test_hand_written_cases_reach_the_lattice_corners():
    """The hand-written programs exercise what they are named for."""

    def values(name):
        cp = propagate_constants(analyze(parse_program(HAND_WRITTEN[name])))
        return {d.name: v for d, v in cp.values.items()}

    self_read = values("self-read")
    assert self_read["x2"] == 0 and self_read["w2"] is VARYING
    flags = values("true-vs-1")
    assert flags["a1"] is True and type(flags["b1"]) is int and flags["b1"] == 1
    assert flags["u4"] is VARYING and flags["v4"] == 2 and flags["w4"] is True
    div = values("div-by-zero")
    assert div["q2"] is VARYING and div["r2"] is VARYING and div["s2"] == 1
    free = values("free-read")
    assert free["x1"] is VARYING and free["m2"] is VARYING

    result = analyze(parse_program(HAND_WRITTEN["copies-and-cse"]))
    assert len(find_copy_propagations(result)) == 2
    assert len(find_common_subexpressions(result)) == 5
    # as a fragment nothing is observable but branch conditions, and this
    # program has none
    assert not find_dead_code(result).dead
    assert find_dead_code(result, observable_at_exit=False).dead == frozenset(result.graph.defs)
