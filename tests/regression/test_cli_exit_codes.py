"""Regression: the full CLI exit-code contract, pinned in one place.

The CLI module docstring promises a stable contract for CI use:

====  ===========================================================
0     success
1     usage / front-end / I/O error (batch: no inputs, bad manifest)
2     analysis failure (batch: any task recorded a nonzero code)
3     graph invariant violation
4     dynamic failure (run/batch --run: interpreter deadlock)
====  ===========================================================

Every row below exercises one (command, outcome) cell end to end via
``main()``.  If a change moves any of these codes, it breaks consumers'
CI scripts — update the docstring table, docs/robustness.md, and
docs/batch.md together with this file, deliberately.
"""

import pytest

from repro.tools.cli import main

GOOD_SRC = """program demo
(1) x = 1
(2) parallel sections
  (3) section A
    (3) x = 2
  (4) section B
    (4) y = x
(5) end parallel sections
end
"""

SYNC_SRC = """program sync
  event ready
  (1) x = 1
  (2) parallel sections
    (3) section producer
      (3) data = x + 1
      (3) post(ready)
    (4) section consumer
      (4) wait(ready)
      (4) y = data
  (5) end parallel sections
  (5) z = y
end program
"""

DEADLOCK_SRC = """program dl
  event e
  (1) a = 1
  (2) parallel sections
    (3) section one
      (3) wait(e)
      (3) b = a
    (4) section two
      (4) c = 2
  (5) end parallel sections
end program
"""

BAD_SRC = "program bad\nx = = 1\nend\n"


@pytest.fixture
def good_file(tmp_path):
    path = tmp_path / "good.pcf"
    path.write_text(GOOD_SRC)
    return str(path)


@pytest.fixture
def sync_file(tmp_path):
    path = tmp_path / "sync.pcf"
    path.write_text(SYNC_SRC)
    return str(path)


@pytest.fixture
def deadlock_file(tmp_path):
    path = tmp_path / "dl.pcf"
    path.write_text(DEADLOCK_SRC)
    return str(path)


@pytest.fixture
def bad_file(tmp_path):
    path = tmp_path / "bad.pcf"
    path.write_text(BAD_SRC)
    return str(path)


@pytest.fixture
def diverge_file(tmp_path):
    from repro import pretty
    from repro.synthetic import loop_nest

    path = tmp_path / "diverge.pcf"
    path.write_text(pretty(loop_nest(8)))
    return str(path)


# -- 0: success -------------------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        ["parse", "{f}"],
        ["graph", "{f}"],
        ["analyze", "{f}"],
        ["cssa", "{f}"],
        ["report", "{f}"],
        ["check", "{f}", "--runs", "2"],
        ["run", "{f}"],
        ["stats", "{f}"],
        ["batch", "{f}"],
        ["analyze", "{f}", "--max-passes", "500", "--deadline", "30"],
        ["batch", "{f}", "--max-passes", "500", "--deadline", "0.5e2"],
    ],
)
def test_success_is_0(argv, good_file, capsys):
    assert main([a.format(f=good_file) for a in argv]) == 0


def test_degraded_report_is_still_0(sync_file, capsys):
    # degradation is a flagged success, not a failure
    assert main(["report", sync_file, "--max-passes", "1"]) == 0


# -- 1: usage / front-end / I-O --------------------------------------------


@pytest.mark.parametrize(
    "command", ["parse", "graph", "analyze", "cssa", "report", "check", "run", "stats"]
)
def test_missing_file_is_1(command, capsys):
    assert main([command, "/nonexistent/prog.pcf"]) == 1
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("command", ["parse", "analyze", "report", "check", "run"])
def test_bad_syntax_is_1(command, bad_file, capsys):
    assert main([command, bad_file]) == 1
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("command", ["analyze", "report", "check", "batch"])
@pytest.mark.parametrize(
    "flag,value",
    [
        ("--max-passes", "0"),
        ("--max-passes", "-1"),
        ("--deadline", "nan"),
        ("--deadline", "inf"),
        ("--deadline", "-1"),
        ("--deadline", "0"),
    ],
)
def test_budget_values_serve_rejects_are_usage_errors(command, flag, value, good_file, capsys):
    # The same values ``repro serve`` answers with bad-request; argparse
    # exits with its own usage code before any analysis runs.
    with pytest.raises(SystemExit) as exc:
        main([command, good_file, flag, value])
    assert exc.value.code == 2
    assert f"argument {flag}:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "--base", "{f}", "{f}"],
    ],
)
def test_unknown_options_are_usage_errors(argv, good_file, capsys):
    # argparse rejects an option the command does not offer with its
    # usage code, before any analysis runs.
    with pytest.raises(SystemExit) as exc:
        main([a.format(f=good_file) for a in argv])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_batch_without_inputs_is_1(capsys):
    assert main(["batch"]) == 1


def test_batch_unreadable_manifest_is_1(tmp_path, capsys):
    assert main(["batch", "--manifest", str(tmp_path / "absent.txt")]) == 1


# -- 2: analysis failure ----------------------------------------------------


def test_analyze_budget_exhaustion_is_2(sync_file, capsys):
    assert main(["analyze", sync_file, "--max-passes", "1"]) == 2
    assert "did not converge" in capsys.readouterr().err


def test_report_no_degrade_exhaustion_is_2(sync_file, capsys):
    assert main(["report", sync_file, "--max-passes", "1", "--no-degrade"]) == 2
    assert "did not converge" in capsys.readouterr().err


def test_check_degrades_under_budget_and_stays_0(sync_file, capsys):
    # check has no --no-degrade: it validates whatever level the ladder
    # lands on, so budget exhaustion is absorbed, not an exit-2 failure
    assert main(["check", sync_file, "--max-passes", "1"]) == 0
    assert "degraded" in capsys.readouterr().out


def test_batch_with_any_failing_task_is_2(good_file, bad_file, capsys):
    assert main(["batch", good_file, bad_file]) == 2


def test_batch_no_degrade_exhaustion_is_2(good_file, diverge_file, capsys):
    code = main(
        ["batch", good_file, diverge_file, "--max-passes", "8", "--no-degrade"]
    )
    assert code == 2
    assert "failed" in capsys.readouterr().out


def test_batch_degrade_absorbs_exhaustion_to_0(good_file, diverge_file, capsys):
    # same corpus, ladder on: the diverging program degrades instead
    code = main(["batch", good_file, diverge_file, "--max-passes", "8"])
    assert code == 0
    assert "degraded" in capsys.readouterr().out


# -- 3: graph invariant violation -------------------------------------------


def test_invariant_violation_is_3(good_file, capsys, monkeypatch):
    from repro.pfg.validate import PFGInvariantError
    from repro.tools import cli

    def boom(*args, **kwargs):
        raise PFGInvariantError(["fork (2) without matching join"])

    monkeypatch.setattr("repro.driver.analyze", boom)
    assert main(["analyze", good_file]) == 3


# -- 4: dynamic failure ------------------------------------------------------


def test_run_deadlock_is_4(deadlock_file, capsys):
    assert main(["run", deadlock_file]) == 4
    assert "DEADLOCK" in capsys.readouterr().out


def test_run_clean_is_0(good_file, capsys):
    assert main(["run", good_file]) == 0


def test_batch_run_deadlock_rolls_up_to_2(deadlock_file, good_file, capsys):
    # the per-task record carries 4; the batch-level contract says any
    # nonzero task makes the whole batch exit 2
    assert main(["batch", good_file, deadlock_file, "--run"]) == 2
    assert "dynamic-failure" in capsys.readouterr().out
