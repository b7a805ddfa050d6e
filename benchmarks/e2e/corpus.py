"""Seeded workload corpora.

Every corpus is a pure function of ``(workload, seed)``: the program under
test only ever receives the pretty-printed source text built here.

What sets the cost is the same for every seed, so a percentile moves
only when the program's speed does: shape parameters (diamond count,
copies of Figure 3, loop/section grid) cover a fixed grid, and the random
programs come from a fixed ``random_mix`` stream, picked to a grid of
statement counts.  (At equal size, random programs still differ in cost
by ~18 %, enough to move a median between seeds by more than a bound.)
The seed picks everything else: the per-item variation (section order
and alpha-renaming from :mod:`repro.fuzz.mutate`, which leave the cost
unchanged, and a tag on the program name), the edit scripts, the serve
re-send pattern, and the order of the items (except the edit chains,
whose order is fixed).
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import List, Tuple, Union

from repro import parse_program, pretty
from repro.fuzz.mutate import EDIT_KINDS, random_edit_script, rename_variables, reorder_sections
from repro.lang import ast
from repro.lang.errors import LangError
from repro.synthetic import (
    chain,
    diamond_chain,
    fig3_repeated,
    par_diamond_loop,
    par_loop_chain,
    random_mix,
    sync_pipeline,
)

#: Every fifth serve request re-sends a recent program.
RESEND_EVERY = 5
#: Candidate edits drawn per edit step (the one nearest its spot is kept).
EDIT_DRAWS = 10
#: ``random_mix`` programs drawn per program needed (the nearest in size are kept).
MIX_DRAWS = 4


@dataclass(frozen=True)
class Sizes:
    """Corpus sizes: items per pass of each in-process workload, edit
    chains and edits per chain, requests per serve pass.

    The program shapes are the full ranges of the workload definitions;
    the counts are what fits two passes of each workload, and the
    reference check after them, in one run of about 25 s."""

    diamonds: int = 36
    sync: int = 60
    cyclic: int = 44
    chains: int = 16
    steps: int = 10
    requests: int = 300


FULL = Sizes()
#: Tiny corpora for a quick end-to-end check of every code path.
SMOKE = Sizes(diamonds=5, sync=5, cyclic=4, chains=4, steps=2, requests=10)


@dataclass(frozen=True)
class Item:
    """One program version: a stable key, its source text and size."""

    key: str
    source: str
    stmts: int


@dataclass(frozen=True)
class Chain:
    """An edit chain: a base program and its successive one-statement edits."""

    key: str
    base: Item
    steps: Tuple[Item, ...]


@dataclass(frozen=True)
class Request:
    """One serve request; ``resend`` marks a repeat of a recent program."""

    item: Item
    resend: bool


Corpus = Union[List[Item], List[Chain], List[Request]]


def count_stmts(program: ast.Program) -> int:
    return sum(1 for _ in program.walk())


def _item(key: str, program: ast.Program) -> Item:
    return Item(key=key, source=pretty(program), stmts=count_stmts(program))


def _grid(lo: int, hi: int, count: int) -> List[int]:
    """``count`` values spread evenly over ``lo..hi`` inclusive."""
    return [lo + (i * (hi - lo + 1)) // count for i in range(count)]


def _vary(program: ast.Program, rng: random.Random) -> ast.Program:
    """A distinct variant that costs the same to analyze: sections
    reordered, variables renamed, and a seeded tag on the program name
    (so its source and digest are its own)."""
    shuffled = reorder_sections(program, rng.randrange(2**31))
    if shuffled is not None:
        program = shuffled.program
    program = rename_variables(program, rng.randrange(2**31)).program
    program.name = f"{program.name}_{rng.randrange(16**6):06x}"
    return program


def _mix_programs(
    rng: random.Random, label: str, lengths: Tuple[int, int], targets: List[Tuple[int, bool]]
) -> List[ast.Program]:
    """One ``random_mix(seed, n)`` program per ``(statements,
    synchronized)`` target: of :data:`MIX_DRAWS` draws per target, with
    ``n`` over the ``lengths`` range and seeds from the fixed stream
    ``label`` names, the unused one nearest in size with the right
    synchronization (drawing more while none has it), varied by ``rng``.
    (``n`` is the generator's target length; the programs it makes have
    a median of ~48 statements whatever ``n``.)"""
    draws = random.Random(f"random_mix:{label}")
    pool: List[Tuple[int, bool, ast.Program]] = []

    def draw(length: int) -> None:
        program = random_mix(draws.randrange(2**31), length)
        pool.append((count_stmts(program), bool(program.events), program))

    for length in _grid(*lengths, MIX_DRAWS * len(targets)):
        draw(length)
    out: List[ast.Program] = []
    for size, synchronized in targets:
        while not any(has_sync == synchronized for _, has_sync, _ in pool):
            draw(lengths[0])
        fitting = [i for i, (_, has_sync, _) in enumerate(pool) if has_sync == synchronized]
        best = min(fitting, key=lambda i: abs(pool[i][0] - size))
        out.append(_vary(pool.pop(best)[2], rng))
    return out


def _spread(rng: random.Random, programs: List[ast.Program], prefix: str, strata: int = 10) -> List[Item]:
    """Seeded order in which every size decile is spread evenly, so any
    stretch of the corpus (and what the caches hold at that point) has
    the same size mix."""
    ranked = sorted(programs, key=count_stmts)
    keyed = []
    for s in range(strata):
        stratum = ranked[s * len(ranked) // strata:(s + 1) * len(ranked) // strata]
        rng.shuffle(stratum)
        keyed += [((j + rng.random()) / len(stratum), p) for j, p in enumerate(stratum)]
    keyed.sort(key=lambda pair: pair[0])
    return [_item(f"{prefix}{i:03d}", p) for i, (_, p) in enumerate(keyed)]


def diamonds(rng: random.Random, sizes: Sizes) -> List[Item]:
    """Acyclic merge-heavy CFGs: local sets, materialisation, constprop."""
    programs = [_vary(diamond_chain(n), rng) for n in _grid(10, 80, sizes.diamonds)]
    return _spread(rng, programs, "d")


def sync(rng: random.Random, sizes: Sizes) -> List[Item]:
    """§6 programs: Preserved, stabilisation rounds, sync lint."""
    n_fig3, n_pipe = sizes.sync * 2 // 5, sizes.sync // 5
    programs = [_vary(fig3_repeated(n), rng) for n in _grid(2, 24, n_fig3)]
    programs += [_vary(sync_pipeline(n), rng) for n in _grid(4, 48, n_pipe)]
    n_mix = sizes.sync - n_fig3 - n_pipe
    programs += _mix_programs(rng, "sync", (100, 600), [(n, True) for n in _grid(24, 96, n_mix)])
    return _spread(rng, programs, "s")


def _cells(ks: range, ms: range, count: int) -> List[Tuple[int, int]]:
    cells = [(k, m) for k in ks for m in ms]
    return [cells[i * len(cells) // count] for i in range(count)]


def cyclic(rng: random.Random, sizes: Sizes) -> List[Item]:
    """Large cyclic SCCs through the §5 kill layer: the solver's share."""
    half = sizes.cyclic // 2
    programs = [_vary(par_diamond_loop(k, m), rng) for k, m in _cells(range(4, 11), range(3, 9), half)]
    programs += [
        _vary(par_loop_chain(n, s), rng)
        for n, s in _cells(range(3, 9), range(4, 11), sizes.cyclic - half)
    ]
    return _spread(rng, programs, "c")


def _edit_bases(rng: random.Random, count: int) -> List[ast.Program]:
    """plchain 50 %, pdloop 25 %, random_mix 15 % (two in three
    synchronized), fig3x 10 %.  Each plchain size has a quarter of the
    plchain bases, so the costliest steps (the p95) are one shape."""
    n_pl, n_pd, n_mix = count // 2, count // 4, count * 3 // 20
    bases = [_vary(par_loop_chain(4, s), rng) for s in _grid(3, 6, n_pl)]
    bases += [_vary(par_diamond_loop(k, m), rng) for k, m in _cells(range(3, 5), range(2, 4), n_pd)]
    bases += _mix_programs(rng, "edits", (40, 80), [(n, i % 3 != 1) for i, n in enumerate(_grid(40, 80, n_mix))])
    bases += [_vary(fig3_repeated(n), rng) for n in _grid(2, 5, count - n_pl - n_pd - n_mix)]
    return bases


def _shape(program: ast.Program) -> List[tuple]:
    """Pre-order statement fingerprints, enough to find where an edit made
    by :func:`random_edit_script` (which clones statements but shares
    their expressions) first differs from its input."""
    return [(type(s), getattr(s, "target", None), id(getattr(s, "expr", None))) for s in program.walk()]


def _edit(program: ast.Program, rng: random.Random, kind: str, where: float) -> ast.Program:
    """A one-statement ``random_edit_script`` edit of ``kind`` that the
    front end accepts (an edit may assign to a ``parallel do`` index, which
    the parser rejects), landing near fraction ``where`` of the program's
    statements.  Where an edit lands decides how much of the program is
    downstream of it, and the kind whether the definitions change, so
    spreading both evenly keeps the incremental cost the same from seed
    to seed.  Every step draws the same number of candidates, so building
    the corpus (part of ``setup_s``) costs the same for every seed too."""
    old = _shape(program)
    while True:
        candidates = []
        for _ in range(EDIT_DRAWS):
            mutation = random_edit_script(program, rng.randrange(2**31), n_edits=1, kinds=(kind,))
            if mutation is None:  # e.g. nothing deletable: any kind will do
                mutation = random_edit_script(program, rng.randrange(2**31), n_edits=1)
            edited = mutation.program
            new = _shape(edited)
            first = next((i for i, (a, b) in enumerate(zip(old, new)) if a != b), min(len(old), len(new)))
            candidates.append((abs(first / len(old) - where), len(candidates), edited))
        for _, _, edited in sorted(candidates, key=lambda c: c[:2]):
            try:
                parse_program(pretty(edited))
            except LangError:
                continue
            return edited


def edits(rng: random.Random, sizes: Sizes) -> List[Chain]:
    """Chained one-statement edits: the incremental engine's reuse path
    (sync bases exercise its fallback)."""
    # A fixed order, one base from each size quartile in turn: the
    # analysis cache holds the last few chains' results, so with a seeded
    # order the peak RSS moved by 5-7 % from seed to seed.
    ranked = sorted(_edit_bases(rng, sizes.chains), key=count_stmts)
    quartiles = [ranked[q * len(ranked) // 4:(q + 1) * len(ranked) // 4] for q in range(4)]
    bases = [part[i] for i in range(len(ranked)) for part in quartiles if i < len(part)]
    chains = []
    for c, base in enumerate(bases):
        key = f"e{c:02d}"
        steps, program = [], base
        spots = [(i + 0.5) / sizes.steps for i in range(sizes.steps)]
        rng.shuffle(spots)
        for s, where in enumerate(spots):
            kind = EDIT_KINDS[(c * sizes.steps + s) % len(EDIT_KINDS)]
            program = _edit(program, rng, kind, where)
            steps.append(_item(f"{key}.{s}", program))
        chains.append(Chain(key=key, base=_item(f"{key}.base", base), steps=tuple(steps)))
    return chains


def serve(rng: random.Random, sizes: Sizes) -> List[Request]:
    """Closed-loop serve traffic: new programs, and re-sends of a program
    sent 1-4 requests earlier (hits the daemon's result cache)."""
    n_new = sizes.requests - sizes.requests // RESEND_EVERY
    n_mix, n_fig3 = n_new // 2, n_new // 4
    programs = _mix_programs(rng, "serve", (50, 400), [(n, False) for n in _grid(8, 48, n_mix // 2)])
    programs += _mix_programs(
        rng, "serve-sync", (50, 400), [(n, True) for n in _grid(24, 72, n_mix - n_mix // 2)]
    )
    programs += [_vary(fig3_repeated(n), rng) for n in _grid(3, 5, n_fig3)]
    programs += [_vary(chain(n), rng) for n in _grid(50, 200, n_new - n_mix - n_fig3)]
    fresh = _spread(rng, programs, "r")
    requests: List[Request] = []
    for item in fresh:
        requests.append(Request(item=item, resend=False))
        if len(requests) % RESEND_EVERY == RESEND_EVERY - 1:
            back = rng.randint(1, min(4, len(requests)))
            requests.append(Request(item=requests[-back].item, resend=True))
    return requests


_BUILDERS = {"diamonds": diamonds, "sync": sync, "cyclic": cyclic, "edits": edits, "serve": serve}


def build(workload: str, seed: int, sizes: Sizes = FULL) -> Corpus:
    """The corpus of ``workload`` for ``seed`` (deterministic)."""
    return _BUILDERS[workload](random.Random(f"{workload}:{seed}"), sizes)


def sources(corpus: Corpus) -> List[str]:
    """Every distinct program text of ``corpus``, in corpus order."""
    out: List[str] = []
    for entry in corpus:
        if isinstance(entry, Chain):
            out.append(entry.base.source)
            out.extend(step.source for step in entry.steps)
        elif isinstance(entry, Request):
            if not entry.resend:
                out.append(entry.item.source)
        else:
            out.append(entry.source)
    return out


def sha256(corpus: Corpus) -> str:
    """Digest of the concatenated corpus sources (baseline provenance)."""
    h = hashlib.sha256()
    for text in sources(corpus):
        h.update(text.encode("utf-8"))
    return h.hexdigest()
