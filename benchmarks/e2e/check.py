"""Output correctness: paper goldens, semantic digests, expected files.

Every timed op's output is reduced to a **semantic digest** and compared
with a reference:

* ``rows``     — sorted In/Out definition names per node (``analyze``,
  ``incremental_analyze``);
* ``report``   — ``rows`` plus anomalies, constant definitions and dead
  definitions from ``optimize``;
* ``envelope`` — equation system, anomaly and sync-issue counts from a
  serve response (what the wire carries).

The reference for seeds 0 and 1 is frozen in ``expected/<workload>-seed
{0,1}.json``; for any other seed it is recomputed untimed after the run.
Either way it comes from a second configuration (``solver="scc"``,
``backend="set"``), so an engine or backend bug shows as a mismatch, and
the frozen files were recorded only where both configurations agreed.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, List, Optional

from repro import analyze, optimize, parse_program
from repro.paper import golden, programs

from . import corpus

EXPECTED_DIR = Path(__file__).resolve().parent / "expected"

#: The reference configuration (differs from the timed default in both
#: solver and set backend).
REFERENCE = {"solver": "scc", "backend": "set"}

#: Paper goldens checked before every run: name -> (figure, table), with
#: tables as ``node -> column -> definition (or block) names``.
GOLDENS = {
    "TABLE1_FIXPOINT": ("fig1a", golden.TABLE1_FIXPOINT),
    "FIG8_FIXPOINT": ("fig6", golden.FIG8_FIXPOINT),
    "FIG9_JOIN_IN": ("fig9", {"6": {"In": golden.FIG9_JOIN_IN}}),
    "FIG3_PRESERVED_8": ("fig3", {"8": {"Preserved": golden.FIG3_PRESERVED_8}}),
}


def _sha(lines: List[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def _row_lines(result) -> List[str]:
    return sorted(
        f"{node.name}|{','.join(sorted(d.name for d in result.in_sets[node]))}"
        f"|{','.join(sorted(d.name for d in result.out_sets[node]))}"
        for node in result.graph.nodes
    )


def rows_digest(result) -> str:
    return _sha(_row_lines(result))


def report_digest(report) -> str:
    consts = report.constants.constant_defs()
    return _sha(
        [report.result.system]
        + _row_lines(report.result)
        + sorted(f"anomaly {a.format()}" for a in report.anomalies)
        + sorted(f"const {d.name}={v}" for d, v in consts.items())
        + sorted(f"dead {d.name}" for d in report.dead_code.dead)
    )


def envelope_digest(system: str, anomalies: int, sync_issues: int) -> str:
    return _sha([system, str(anomalies), str(sync_issues)])


def check_goldens() -> List[str]:
    """Analyze each paper figure and compare with its hand-derived golden
    table; returns one line per mismatch."""
    failures = []
    for name, (figure, table) in GOLDENS.items():
        result = analyze(parse_program(programs.SOURCES[figure]))
        for node, row in table.items():
            for column, want in row.items():
                got = result.set_names(column, node)
                if got != want:
                    failures.append(
                        f"{name}: {column}({node}) = {sorted(got)}, golden {sorted(want)}"
                    )
    return failures


def reference(workload: str, entries: corpus.Corpus) -> Dict[str, Dict[str, str]]:
    """Digests of every program version in ``entries`` under
    :data:`REFERENCE` — the same fields the workload's ops produce.  One
    ``optimize`` per program gives its rows too."""
    out: Dict[str, Dict[str, str]] = {}
    for entry in entries:
        if isinstance(entry, corpus.Chain):
            for step in entry.steps:
                out[step.key] = {"rows": rows_digest(analyze(parse_program(step.source), cache=False, **REFERENCE))}
        elif isinstance(entry, corpus.Request):
            item = entry.item
            if item.key not in out:
                report = optimize(item.source, **REFERENCE)
                out[item.key] = {
                    "rows": rows_digest(report.result),
                    "envelope": envelope_digest(
                        report.result.system, len(report.anomalies), len(report.sync_issues)
                    ),
                }
        else:
            report = optimize(entry.source, **REFERENCE)
            out[entry.key] = {"rows": rows_digest(report.result), "report": report_digest(report)}
    return out


def expected_path(workload: str, seed: int) -> Path:
    return EXPECTED_DIR / f"{workload}-seed{seed}.json"


def load_expected(workload: str, seed: int, entries: corpus.Corpus) -> Optional[Dict[str, Dict[str, str]]]:
    """The frozen digests for this exact corpus, or ``None`` (no file, or
    the file was recorded from different corpus text)."""
    path = expected_path(workload, seed)
    if not path.exists():
        return None
    doc = json.loads(path.read_text())
    if doc.get("corpus_sha256") != corpus.sha256(entries):
        return None
    return doc["digests"]


def write_expected(workload: str, seed: int, entries: corpus.Corpus, digests: Dict[str, Dict[str, str]]) -> Path:
    path = expected_path(workload, seed)
    path.parent.mkdir(parents=True, exist_ok=True)
    doc = {
        "workload": workload,
        "seed": seed,
        "corpus_sha256": corpus.sha256(entries),
        "reference": REFERENCE,
        "digests": digests,
    }
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return path
