"""Shrinker-minimized fuzz counterexamples, pinned.

Each program below was found by the ``repro fuzz`` campaign and reduced
by :func:`repro.fuzz.shrink.shrink` under "the original oracle still
fires"; the golden In sets pin the stabilized-solver answer so a future
precision change shows up as a diff here, not just as a fuzz flake.

``CEX_SEED125`` — found by the campaign at seed 125 (29 statements,
minimized to 10): on this loop-carried wait/post pattern chaotic
iteration (round-robin / worklist) converges to a strictly *larger*
fixpoint than the deterministic engines — the known multiple-fixpoint
behaviour of the non-monotone synchronized system
(``test_fixpoint_multiplicity.py``), rediscovered by the fuzzer at
scale.  The pins assert the bounded-agreement contract the
``solver-agreement`` oracle enforces: stabilized == scc exactly, and
each chaotic engine's sets contain the stabilized ones.

``CEX_DRILL1`` — an injected-fault drill carrier (80 statements,
minimized to 10 under "a seeded ``corrupt_result`` corruption is still
detected by the dynamic self-check"): the smallest program from that
campaign on which the detect-and-shrink loop is exercised end to end.
"""

from repro.fuzz import run_oracles
from repro.fuzz.oracles import solver_agreement_mode
from repro.lang import parse_program
from repro.pfg import build_pfg
from repro.reachdefs import solve_system

CEX_SEED125 = """program fuzz125
  event e0
  loop
    loop
    endloop
    clear(e0)
    parallel sections
      section S0_1
        wait(e0)
        v1 = 3
      section S0_2
        v1 = 8
        post(e0)
    end parallel sections
  endloop
end program
"""

#: Stabilized-solver In sets (nodes with non-empty In only).  n6 is
#: ``v1 = 3`` after the wait: the posted ``v1n7`` reaches it, but is
#: killed across the guaranteed wait/post ordering everywhere else —
#: including around the loop back edge, which is exactly the fact the
#: chaotic engines lose.
GOLDEN_SEED125 = {
    "n1": ["v1n6"],
    "n2": ["v1n6"],
    "n3": ["v1n6"],
    "n4": ["v1n6"],
    "n5": ["v1n6"],
    "n6": ["v1n6", "v1n7"],
    "n7": ["v1n6"],
    "n8": ["v1n6"],
    "n9": ["v1n6"],
    "Exit": ["v1n6"],
}

CEX_DRILL1 = """program drill1
  event e1
  clear(e1)
  parallel sections
    section S1_0
      loop
        v2 = v2
      endloop
    section S1_1
      parallel sections
        section S1_0
        section S1_1
          v3 = (4 + 4)
      end parallel sections
  end parallel sections
end program
"""

GOLDEN_DRILL1 = {
    "n2": ["v2n3"],
    "n3": ["v2n3"],
    "n4": ["v2n3"],
    "n8": ["v3n7"],
    "n9": ["v2n3", "v3n7"],
    "Exit": ["v2n3", "v3n7"],
}


def _golden_in(source):
    graph = build_pfg(parse_program(source))
    result = solve_system(graph, backend="bitset")
    return {n.name: sorted(result.in_names(n)) for n in graph.nodes if result.in_names(n)}


def test_seed125_golden_in_sets():
    assert _golden_in(CEX_SEED125) == GOLDEN_SEED125


def test_seed125_is_bounded_agreement_territory():
    program = parse_program(CEX_SEED125)
    assert solver_agreement_mode(program) == "bounded"
    # The distilled multiplicity: chaotic iteration keeps the loop-carried
    # v1n7 token that the deterministic engines kill.
    graph = build_pfg(program)
    stab = solve_system(graph, backend="bitset", solver="stabilized")
    rr = solve_system(graph, backend="bitset", solver="round-robin")
    n2 = graph.node("n2")
    assert stab.in_names(n2) < rr.in_names(n2)


def test_seed125_oracles_hold():
    report = run_oracles(parse_program(CEX_SEED125))
    assert report.ok, report.format()


def test_drill1_golden_in_sets():
    assert _golden_in(CEX_DRILL1) == GOLDEN_DRILL1


def test_drill1_oracles_hold():
    report = run_oracles(parse_program(CEX_DRILL1))
    assert report.ok, report.format()


def test_drill1_corruption_detected_and_minimal():
    """The drill predicate still fires on the minimized program: a seeded
    corruption of its analysis is caught by the dynamic self-check."""
    from repro.interp.interp import run_program
    from repro.interp.scheduler import RandomScheduler
    from repro.robust.chaos import corrupt_result
    from repro.robust.selfcheck import verify_result

    program = parse_program(CEX_DRILL1)
    result = solve_system(build_pfg(program), backend="bitset")
    run = run_program(
        program, scheduler=RandomScheduler(seed=0, max_loop_iters=2), graph=result.graph
    )
    tampered, _ = corrupt_result(result, run, seed=1)
    violations, _ = verify_result(tampered, program, seeds=(0,))
    assert violations
