"""The PFG builder and validator against the reference ones.

``build_pfg`` checks the event rules during its own walk and creates each
node with its final concurrency label; ``reference_builder`` is the
builder it replaced, which ran the whole-program ``check_events`` walk
first.  Both get the same AST object, and must give the same graph, down
to statement identity and edge order, or the same ``SemanticError``
(type, message and span).  ``validate_pfg`` must report the violations
of ``reference_validate``, in its order, on graphs broken at random.
"""

import random
from pathlib import Path

import pytest
from hypothesis import given, settings

from benchmarks.e2e import corpus
from repro.lang import ast, parse_program
from repro.lang.errors import SemanticError
from repro.paper import SOURCES
from repro.pfg import EdgeKind, NodeKind, PFGInvariantError, build_pfg, validate_pfg
from repro.synthetic import WORKLOADS, generate_program, random_mix
from repro.synthetic.generator import GeneratorConfig

from ..property.conftest import generated_programs
from .reference_builder import reference_build_pfg, reference_validate

ROOT = Path(__file__).resolve().parents[2]


def dump(graph):
    """Everything the builder decides, with nodes by id and AST objects
    by identity."""

    def ids(nodes):
        return [n.id for n in nodes]

    def ref(node):
        return None if node is None else node.id

    nodes = [
        (
            n.id, n.kind, n.name, n.note,
            n.wait_event, n.post_event, id(n.cond), n.implicit_branch,
            n.section_path, n.pardo_ids,
            [id(s) for s in n.stmts],
            [(d.index, d.name, d.var, d.site, id(d.stmt)) for d in n.defs],
            ref(n.fork), ref(n.join), n.construct_id,
            [(m.id, k) for m, k in graph.out_edges(n)],
            [(m.id, k) for m, k in graph.in_edges(n)],
        )
        for n in graph.nodes
    ]
    return (
        graph.program_name, ref(graph.entry), ref(graph.exit), nodes,
        [(d.index, d.name) for d in graph.defs], graph.defs.names(),
        {v: [d.index for d in graph.defs.of_var(v)] for v in graph.defs.variables()},
        {e: ids(ns) for e, ns in graph.posts_of_event.items()},
        {e: ids(ns) for e, ns in graph.waits_of_event.items()},
        {e: ids(ns) for e, ns in graph.clears_of_event.items()},
        list(graph.section_names.items()),
        [(p.construct_id, p.index, p.header.id, p.merge.id) for p in graph.pardos],
        graph.has_retreating_edge,
        graph.names(),
    )


def outcome(build, program):
    try:
        return ("graph", dump(build(program)))
    except SemanticError as exc:
        return (type(exc).__name__, exc.message, exc.span, str(exc))


def assert_same(program):
    expected = outcome(reference_build_pfg, program)
    assert outcome(build_pfg, program) == expected


@pytest.mark.parametrize("workload", ["diamonds", "sync", "cyclic", "edits", "serve"])
@pytest.mark.parametrize("seed", [0, 1])
def test_e2e_corpus_graphs(workload, seed):
    for source in corpus.sources(corpus.build(workload, seed)):
        assert_same(parse_program(source))


@pytest.mark.parametrize("name", sorted(SOURCES))
def test_paper_figures(name):
    assert_same(parse_program(SOURCES[name]))


@pytest.mark.parametrize("path", sorted((ROOT / "examples").glob("*.pcf")), ids=lambda p: p.name)
def test_examples(path):
    assert_same(parse_program(path.read_text()))


SHAPES = {
    "chain": (40,),
    "diamond": (12,),
    "wide": (4, 3),
    "nested": (3,),
    "loopnest": (3,),
    "dloop": (4,),
    "pdloop": (3, 3),
    "plchain": (3, 3),
    "pipeline": (4,),
    "fig3x": (3,),
    "pardo": (3, 2),
}


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_synthetic_shapes(shape):
    assert_same(WORKLOADS[shape](*SHAPES[shape]))


@pytest.mark.parametrize("seed", range(8))
def test_random_mix(seed):
    assert_same(random_mix(seed, 40 + 30 * seed))


@pytest.mark.parametrize("seed", range(12))
def test_generated_with_sync_and_loops(seed):
    config = GeneratorConfig(target_stmts=60, with_sync=True, p_parallel=0.3, p_loop=0.2)
    assert_same(generate_program(seed, config))


@settings(max_examples=60, deadline=None)
@given(generated_programs(with_sync=True))
def test_generated_programs(program):
    assert_same(program)


#: Shapes the generators rarely or never make: labels on every kind of
#: statement and terminator, empty branches, sections and bodies, a wait
#: that reuses a fresh block, repeated clears, and while loops.
HAND_WRITTEN = [
    "program p\n(2) if c then\n(3) y=1\n(5) endif\n(5) z=2\nend",
    "program p\nx = 1\nif c then\nelse\nendif\nif c then\nx = 2\nelse\nendif\nend",
    "program p\n(1) x = 1\n(1) y = x\n(2) z = y\n(2) skip\n(4) skip\nend",
    "program p\nevent e\nx = 1\nwait(e)\n(7) wait(e)\nclear(e)\nclear(e)\npost(e)\nwait(e)\nend",
    "program p\nevent e\n(3) loop\n(4) post(e)\n(5) endloop\n(6) wait(e)\nx = 1\nend",
    "program p\nwhile i < 10 do\ni = i + 1\nendwhile\n(9) while j do\n(10) endwhile\nend",
    "program p\nparallel sections\nsection a\nsection b\nx = 1\n(7) section c\nskip\n"
    "(8) end parallel sections\ny = x\nend",
    "program p\nparallel sections\nsection a\nparallel sections\nsection b\nx = 1\n"
    "section c\nparallel do i\ny = i\nparallel sections\nsection d\nz = y\n"
    "end parallel sections\nend parallel do\nend parallel sections\nend parallel sections\nend",
    "program p\nparallel do i\nend parallel do\n(4) parallel do j\nx = j\n(5) end parallel do\nend",
    "program p\nloop\nendloop\nloop\nloop\nx = 1\nendloop\nendloop\nend",
    "program p\nevent e, f\nparallel sections\nsection a\npost(e)\npost(f)\nsection b\n"
    "wait(e)\nwait(f)\nx = 1\nsection c\nwait(e)\nend parallel sections\nend",
]


@pytest.mark.parametrize("index", range(len(HAND_WRITTEN)))
def test_hand_written(index):
    assert_same(parse_program(HAND_WRITTEN[index]))


#: One misuse per event rule (as in ``tests/unit/test_symbols.py``).
MISUSES = [
    "wait(e)",
    "post(e)",
    "clear(e)",
    "ev = 1",
    "x = ev + 1",
    "if ev < 1 then\nx = 1\nendif",
    "while ev do\nx = 1\nendwhile",
]

#: Where the misuse goes: ``{}`` is replaced by it.
NESTINGS = [
    "{}",
    "if c then\n{}\nendif",
    "if c then\nx = 1\nelse\n{}\nendif",
    "loop\n{}\nendloop",
    "while c do\n{}\nendwhile",
    "parallel sections\nsection a\nx = 1\nsection b\n{}\nend parallel sections",
    "parallel do i\nif c then\nloop\n{}\nendloop\nendif\nend parallel do",
]


def _program(body, events="event ev"):
    return parse_program(f"program p\n{events}\n{body}\nend")


@pytest.mark.parametrize("nesting", range(len(NESTINGS)))
@pytest.mark.parametrize("misuse", range(len(MISUSES)))
def test_event_misuse(misuse, nesting):
    body = NESTINGS[nesting].format(MISUSES[misuse])
    assert outcome(build_pfg, _program(body))[0] == "SemanticError"
    assert_same(_program(body))
    assert_same(_program(body, events=""))


@pytest.mark.parametrize("nesting", range(len(NESTINGS)))
@pytest.mark.parametrize("first", range(len(MISUSES)))
def test_first_of_two_misuses_wins(first, nesting):
    second = MISUSES[(first + 3) % len(MISUSES)]
    before = NESTINGS[nesting].format(MISUSES[first])
    after = NESTINGS[(nesting + 2) % len(NESTINGS)].format(second)
    for body in (f"{before}\n{after}", f"{after}\n{before}"):
        assert_same(_program(body))


def test_a_statement_the_builder_cannot_lower():
    """The event rules still come first, over the whole program."""
    misuse = _program("x = 1\npost(g)")
    misuse.body.insert(1, ast.Section(name="s", body=[]))
    assert_same(misuse)
    clean = _program("x = 1")
    clean.body.append(ast.Section(name="s", body=[]))
    assert outcome(build_pfg, clean)[1] == "cannot lower statement Section"
    assert_same(clean)


def violations(graph):
    try:
        validate_pfg(graph)
    except PFGInvariantError as exc:
        return exc.violations
    return []


def _break(graph, rng):
    """One random structural fault, of a kind ``validate_pfg`` checks."""
    nodes = graph.nodes
    node = rng.choice(nodes)
    fault = rng.randrange(13)
    if fault == 0:
        node.post_event, node.cond = "e", ast.Var("c")
    elif fault == 1:
        node.kind = rng.choice(list(NodeKind))
    elif fault == 2:
        graph.add_edge(node, rng.choice(nodes), rng.choice(list(EdgeKind)))
    elif fault == 3:
        node.name = rng.choice(nodes).name
    elif fault == 4 and node.defs:
        node.defs[0] = type(node.defs[0])(index=0, var="x", site="elsewhere")
    elif fault == 5:
        graph.new_node(NodeKind.BASIC, name="orphan")
    elif fault == 6:
        node.fork = node.join = None
        node.construct_id = None
    elif fault == 7:
        node.wait_event = rng.choice([None, "e", "f"])
        node.post_event = rng.choice([None, "e", "f"])
    elif fault == 8:
        graph.entry = rng.choice([None, node])
    elif fault == 9:
        graph.exit = None
    elif fault == 10:
        (rng.choice(graph.forks) if graph.forks else node).join = rng.choice(nodes)
    elif fault == 11:
        node.defs = node.defs[1:]
    else:
        other = rng.choice(nodes)
        node.post_event, other.wait_event = "e", rng.choice(["e", "f"])
        graph.add_edge(node, other, EdgeKind.SYNC)


@pytest.mark.parametrize("seed", range(40))
def test_validate_reports_the_reference_violations(seed):
    rng = random.Random(seed)
    sources = [*SOURCES.values(), *HAND_WRITTEN]
    graph = build_pfg(parse_program(sources[seed % len(sources)]))
    assert violations(graph) == reference_validate(graph) == []
    for _ in range(1 + seed % 5):
        _break(graph, rng)
        assert violations(graph) == reference_validate(graph)
