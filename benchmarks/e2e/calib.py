"""Speed normalisation: a fixed calibration spin timed around every op.

A shared 2-core VM changes speed by 20-30 % within a minute, more than any
bound the benchmark could hold.  So every timed operation is bracketed by
a ~2 ms calibration spin, and its wall time is rescaled to the speed at
which the spin takes :data:`CALIB_REF_MS`:

    ref_ms = raw_ms * CALIB_REF_MS / calib_ms

where ``calib_ms`` is the mean of the spins just before and just after
the op.  The spin fills a dict with int keys from an integer LCG stream:
hashing, allocation and a working set of a few hundred KB slow down with
the host the way the analysis does (a spin of integer arithmetic alone
slowed about half as much, in log terms, in the host's slow spells, and
left 10-15 % of them in the medians).  A dict holding only ints is not
tracked by the cyclic collector, and the spin touches no code under
``src/`` — a change to the program cannot move it.

``CALIB_REF_MS`` is a fixed reference, the spin's typical time on the
machine that recorded ``baseline/seed0.json`` (1.6-3 ms there as its
speed drifted); being fixed, ref-ms from different days and commits
compare directly.

Set-up is different work: a fresh interpreter, mostly importing modules,
then building the corpus.  The spin tracks it badly (in the host's slow
spells set-up slowed by a different factor than the spin did, taken
before, during or after it).  So set-up time is rescaled by a cold start
instead: a fresh interpreter that imports a fixed list of standard
library modules and parses some of their source, timed just before and
after each set-up (:func:`cold_start_s`):

    setup_s = raw_s * COLD_REF_S / cold_s

Like the spin, it runs no code of the program under test.  Over 40
set-ups each of diamonds, edits and serve, this cut the spread of
set-up times from 15-34 % raw to 9-10 %, and to 6-9 % for the median of
three.

The cyclic garbage collector is the other big source of noise.  It stays
on, so CPython's own thresholds decide how often it runs, as they do for
any caller of the program; each op pays the young-generation collections
that land inside it.  A full collection, though (~100 ms over the heap
the analysis cache holds), lands on whichever op happens to trip it, and
which op that is changes from pass to pass.  So its time is taken off
that op and shared out evenly over the ops since the previous full
collection.  A change that grows the long-lived heap, or makes full
collections more frequent, shows in every op's time.
"""

from __future__ import annotations

import gc
import subprocess
import sys
import time

#: Iterations of the spin loop (~2 ms on the recording machine).
SPIN_ITERS = 9_000

#: Reference spin time (ms); see module docstring.
CALIB_REF_MS = 2.0

#: The cold start: standard library only, isolated from the environment.
COLD_START = (
    "import argparse, ast, asyncio, csv, dataclasses, decimal, difflib, email.parser, "
    "fractions, http.client, inspect, json, logging, pathlib, pickle, sqlite3, statistics, "
    "textwrap, tokenize, typing, unittest, xml.dom.minidom; "
    "ast.parse(inspect.getsource(decimal) * 2)"
)

#: Reference cold-start time (s), its typical time on the recording machine.
COLD_REF_S = 0.15


def _spin(n: int) -> int:
    table = {}
    x = 1
    for _ in range(n):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        key = x & 0xFFFF
        table[key] = table.get(key, 0) + 1
    return len(table)


def spin_ms() -> float:
    """Run the calibration spin once; its wall time in ms."""
    t0 = time.perf_counter()
    _spin(SPIN_ITERS)
    return (time.perf_counter() - t0) * 1e3


def to_ref(raw_ms: float, calib_ms: float) -> float:
    """Rescale a raw wall time to reference speed (ref-ms)."""
    return raw_ms * CALIB_REF_MS / calib_ms


def cold_start_s() -> float:
    """Run the cold start once; its wall time in s.  (No timeout: with
    one, the wait polls in sleeps of up to 50 ms, and the time with it.)"""
    t0 = time.monotonic()
    subprocess.run([sys.executable, "-I", "-c", COLD_START], check=True, stdin=subprocess.DEVNULL,
                   stdout=subprocess.DEVNULL)
    return time.monotonic() - t0


def setup_to_ref(raw_s: float, cold_s: float) -> float:
    """Rescale a raw set-up time to reference speed."""
    return raw_s * COLD_REF_S / cold_s


class Calibrated:
    """Times ops between spins: ``spin, op, spin, op, spin, ...``, and
    shares out full collections while it is entered as a context.

    Each spin closes the previous op's bracket and opens the next one,
    so the cost is one spin per op.
    """

    def __init__(self):
        self.last_spin = spin_ms()
        self._uncharged: list = []  # timings since the last full collection
        self._full_ms = 0.0  # full-collection time not yet shared out
        self._full_start = 0.0
        self._shared_ms = self._shared_ops = 0.0

    def _on_gc(self, phase: str, info: dict) -> None:
        if info["generation"] != 2:
            return
        if phase == "start":
            self._full_start = time.perf_counter()
        else:
            self._full_ms += (time.perf_counter() - self._full_start) * 1e3

    def __enter__(self) -> "Calibrated":
        gc.collect()
        gc.callbacks.append(self._on_gc)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self._on_gc)
        # Ops after the last full collection pay the run's mean share.
        self._share(self._shared_ms / self._shared_ops * len(self._uncharged) if self._shared_ops else 0.0)

    def time(self, timing: dict, fn, *args, **kwargs):
        """Run ``fn`` and return its value; ``raw_ms``, ``calib_ms`` and
        ``ref_ms`` go into ``timing``.  A full collection inside the op is
        not charged to it; its share of one is added later."""
        before = self.last_spin
        full_before = self._full_ms
        t0 = time.perf_counter()
        value = fn(*args, **kwargs)
        raw_ms = (time.perf_counter() - t0) * 1e3 - (self._full_ms - full_before)
        self.last_spin = spin_ms()
        calib_ms = (before + self.last_spin) / 2.0
        timing.update(raw_ms=raw_ms, calib_ms=calib_ms, ref_ms=to_ref(raw_ms, calib_ms))
        self._uncharged.append(timing)
        if self._full_ms:
            self._share(self._full_ms)
        return value

    def _share(self, total_ms: float) -> None:
        """Add ``total_ms`` of full collections evenly to the ops since
        the previous one."""
        if not self._uncharged:
            return
        share = total_ms / len(self._uncharged)
        for timing in self._uncharged:
            timing["gc_ms"] = share
            timing["raw_ms"] += share
            timing["ref_ms"] = to_ref(timing["raw_ms"], timing["calib_ms"])
        self._shared_ms += total_ms
        self._shared_ops += len(self._uncharged)
        self._uncharged, self._full_ms = [], 0.0
