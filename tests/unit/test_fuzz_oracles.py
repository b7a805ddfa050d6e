"""Oracle registry (:mod:`repro.fuzz.oracles`): clean programs pass every
oracle, seeded corruptions are detected, and the report/registry plumbing
behaves (crash containment, opt-in dynamic oracle, metrics).
"""

import pytest

from repro.fuzz.oracles import (
    DETERMINISTIC_SOLVERS,
    ORACLES,
    OracleConfig,
    OracleFailure,
    OracleReport,
    default_oracle_names,
    register,
    run_oracles,
    solver_agreement_mode,
)
from repro.lang import parse_program
from repro.synthetic import GeneratorConfig, generate_program

SYNC_PROGRAM = """program sync
  event e
  a = 1
  parallel sections
    section W
      wait(e)
      b = a
    section P
      a = 2
      post(e)
  end parallel sections
end program
"""

SEQ_PROGRAM = """program seq
  a = 1
  b = a
end program
"""


def test_registry_has_the_documented_oracles():
    assert set(default_oracle_names()) == {
        "solver-agreement",
        "system-bounds",
        "pipeline-invariants",
        "metamorphic",
        "provenance-chains",
        "incremental-equivalence",
    }
    assert set(default_oracle_names(dynamic=True)) == set(default_oracle_names()) | {
        "dynamic-selfcheck"
    }
    assert set(default_oracle_names()) <= set(ORACLES)


@pytest.mark.parametrize("seed", range(8))
def test_clean_generated_programs_pass_all_oracles(seed):
    program = generate_program(
        seed, GeneratorConfig(target_stmts=18, p_parallel=0.3), name=f"ok{seed}"
    )
    report = run_oracles(program, names=default_oracle_names(dynamic=True))
    assert report.ok, report.format()
    assert set(report.oracles_run) == set(default_oracle_names(dynamic=True))


def test_clean_handwritten_programs_pass():
    for src in (SYNC_PROGRAM, SEQ_PROGRAM):
        report = run_oracles(parse_program(src))
        assert report.ok, report.format()


def test_solver_agreement_mode():
    assert solver_agreement_mode(parse_program(SYNC_PROGRAM)) == "bounded"
    assert solver_agreement_mode(parse_program(SEQ_PROGRAM)) == "exact"
    assert DETERMINISTIC_SOLVERS == {"stabilized", "scc"}


def test_unknown_oracle_name_raises():
    with pytest.raises(ValueError, match="no-such-oracle"):
        run_oracles(parse_program(SEQ_PROGRAM), names=("no-such-oracle",))


def test_oracle_crash_is_contained_as_failure():
    name = "crashy-test-oracle"

    @register(name)
    def _crashy(program, cfg):
        raise RuntimeError("boom")

    try:
        report = run_oracles(parse_program(SEQ_PROGRAM), names=(name,))
        assert not report.ok
        [failure] = report.failures
        assert failure.oracle == name
        assert "oracle crashed" in failure.detail and "boom" in failure.detail
    finally:
        del ORACLES[name]


def test_report_formatting_and_accessors():
    report = OracleReport(
        oracles_run=("a", "b"),
        failures=(
            OracleFailure("a", "first"),
            OracleFailure("a", "second"),
            OracleFailure("b", "third"),
        ),
    )
    assert not report.ok
    assert report.failing_oracles() == ("a", "b")
    text = report.format()
    assert "first" in text and "third" in text
    assert OracleReport(oracles_run=("a",), failures=()).ok


def test_dynamic_selfcheck_flags_injected_corruption():
    """End-to-end detection: corrupt a sound result the way the chaos
    drills do, and check the selfcheck machinery the oracle wraps flags
    it.  (The oracle itself recomputes the analysis, so corruption is
    injected at the verify layer.)"""
    from repro.reachdefs import solve_system
    from repro.interp.interp import run_program
    from repro.interp.scheduler import RandomScheduler
    from repro.pfg import build_pfg
    from repro.robust.chaos import corrupt_result
    from repro.robust.selfcheck import verify_result

    program = generate_program(
        900_000, GeneratorConfig(target_stmts=60, n_vars=4, p_parallel=0.3, p_loop=0.1)
    )
    result = solve_system(build_pfg(program), backend="bitset")
    run = run_program(
        program, scheduler=RandomScheduler(seed=0, max_loop_iters=2), graph=result.graph
    )
    tampered, injected = corrupt_result(result, run, seed=0)
    violations, _ = verify_result(tampered, program, seeds=(0,))
    assert violations, f"corruption at {injected} went undetected"


def test_metamorphic_oracle_runs_all_mutators():
    from repro import obs

    program = generate_program(4, GeneratorConfig(target_stmts=20, p_parallel=0.4))
    with obs.session() as session:
        report = run_oracles(program, names=("metamorphic",))
        assert report.ok, report.format()
        counters = {k: c.value for k, c in session.metrics.counters.items()}
    assert counters.get("fuzz.oracle.metamorphic") == 1
    assert counters.get("fuzz.mutants", 0) >= 2


def test_oracle_config_defaults():
    cfg = OracleConfig()
    assert cfg.engines == ("stabilized", "round-robin", "worklist", "scc")
    assert cfg.backend == "bitset"
    assert cfg.dynamic_runs == 3
