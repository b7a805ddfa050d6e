"""Compare two run logs: is the change better, unchanged, worse or unresolved?

    python -m benchmarks.e2e compare PARENT.json CHANGE.json

Both files are run logs written by ``python -m benchmarks.e2e run --out``,
from runs made in alternating order (parent, change, change, parent, ...)
with the same seeds and run length; the i-th run of a workload in one
file is paired with the i-th run of that workload in the other.  Each
(end-to-end metric, workload) cell gets one verdict:

* **better** — the change wins at least 9 of every 10 pairs (ties count
  for neither side) and the medians differ, in the change's favour, by
  more than the parent's own spread (the distance between its quartiles);
* **unresolved** — the parent's spread, as a share of its median, is
  wider than the metric's bound, and not every change run beats every
  parent run;
* **worse** — the change's median is worse than the parent's by more
  than the bound;
* **unchanged** — otherwise.

At least ten pairs per workload are required.  One row per workload.
Exit status: 0, or 1 if any cell is worse or the change fails more ops
than the parent, or 2 if a workload has too few pairs.

    python -m benchmarks.e2e spread FIRST.json [SECOND.json]

summarises the runs of one commit instead: per (workload, metric) the
median and the interquartile range as a share of it, and with a second
set of runs how far its median moved from the first's, in the metric's
worse direction.  That is the measurement the bounds rest on.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path
from typing import Dict, List, Tuple

MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_runs(path: Path) -> Dict[str, List[dict]]:
    """Untraced runs of a run log, grouped by workload in file order (a
    traced run carries per-layer metrics, not the end-to-end ones)."""
    grouped: Dict[str, List[dict]] = {}
    for run in json.loads(Path(path).read_text())["runs"]:
        if not run.get("traced"):
            grouped.setdefault(run["workload"], []).append(run)
    return grouped


def _spread(values: List[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def spread(first_path: Path, second_path, spec: dict) -> dict:
    """Per workload and end-to-end metric: ``median``, ``spread`` (IQR ÷
    median) and, given a second run log, ``second_median``,
    ``second_spread`` and ``moved`` (how much worse the second median is,
    as a share of the first; negative is better)."""
    first = load_runs(first_path)
    second = load_runs(second_path) if second_path is not None else {}
    out: Dict[str, dict] = {}
    for workload, runs in sorted(first.items()):
        cells = out[workload] = {"runs": len(runs)}
        for metric in spec["end_to_end"]:
            name = metric["name"]
            values = [r["metrics"][name] for r in runs]
            cell = cells[name] = {"median": statistics.median(values), "spread": _spread(values),
                                  "bound": metric["bound"]}
            if workload in second:
                again = [r["metrics"][name] for r in second[workload]]
                cell.update(second_median=statistics.median(again), second_spread=_spread(again))
                moved = cell["second_median"] / cell["median"] - 1.0
                cell["moved"] = moved if metric["better"] == "lower" else -moved
    return out


def classify(parent: List[float], change: List[float], better: str, bound: float) -> Tuple[str, float]:
    """``(verdict, relative change of the median)`` for one cell."""
    n = min(len(parent), len(change))
    parent, change = parent[:n], change[:n]

    def improves(old: float, new: float) -> bool:
        return new < old if better == "lower" else new > old

    p_median, c_median = statistics.median(parent), statistics.median(change)
    q1, _, q3 = statistics.quantiles(parent, n=4)
    delta = (c_median - p_median) / p_median
    wins = sum(improves(p, c) for p, c in zip(parent, change))
    if wins >= WIN_SHARE * n and improves(p_median, c_median) and abs(c_median - p_median) > q3 - q1:
        return "better", delta
    every_run_better = (max(change) < min(parent)) if better == "lower" else (min(change) > max(parent))
    if (q3 - q1) / p_median > bound and not every_run_better:
        return "unresolved", delta
    worse_by = delta if better == "lower" else -delta
    if worse_by > bound:
        return "worse", delta
    return "unchanged", delta


def compare(parent_path: Path, change_path: Path, spec: dict) -> Tuple[List[str], int]:
    """Report lines and exit status (see module docstring)."""
    parent, change = load_runs(parent_path), load_runs(change_path)
    lines, status = [], 0
    for workload in sorted(set(parent) & set(change)):
        p_runs, c_runs = parent[workload], change[workload]
        n = min(len(p_runs), len(c_runs))
        if n < MIN_PAIRS:
            lines.append(f"{workload}: {n} pairs, need at least {MIN_PAIRS}")
            status = max(status, 2)
            continue
        cells = []
        for metric in spec["end_to_end"]:
            name = metric["name"]
            verdict, delta = classify(
                [r["metrics"][name] for r in p_runs], [r["metrics"][name] for r in c_runs],
                metric["better"], metric["bound"],
            )
            cells.append(f"{name}={verdict}({delta:+.1%})")
            if verdict == "worse":
                status = max(status, 1)
        p_failed = sum(r["failed"] for r in p_runs[:n])
        c_failed = sum(r["failed"] for r in c_runs[:n])
        if c_failed > p_failed:
            cells.append(f"failed-ops={c_failed} vs parent {p_failed}")
            status = max(status, 1)
        lines.append(f"{workload} ({n} pairs): " + "  ".join(cells))
    return lines, status
