"""Named workload families for benchmarks.

Deterministic program shapes that isolate one scaling dimension each:

* ``chain(n)``            — n sequential assignments (universe scaling);
* ``diamond_chain(n)``    — n if/else diamonds (merge-heavy CFG);
* ``wide_parallel(k, m)`` — one construct, k sections × m statements
  (``ParallelKill``/MHP scaling);
* ``nested_parallel(d)``  — d-deep nested constructs (ForkKill nesting);
* ``loop_nest(d, m)``     — d nested loops (back-edge iteration pressure);
* ``diamond_loop(n)``     — n diamonds inside one loop (one large cyclic
  SCC through the sequential system);
* ``par_diamond_loop(k, m)`` — m parallel constructs × k diamond sections
  inside one loop (one large cyclic SCC through the §5 kill layer);
* ``sync_pipeline(k)``    — k sections chained producer→consumer with
  events (SynchPass/Preserved scaling);
* ``fig3_repeated(n)``    — n copies of the paper's Figure 3 body in one
  loop (the paper's own shape, scaled);
* ``random_mix(seed, n)`` — generator output sized to ~n statements.
"""

from __future__ import annotations

from ..lang import ast
from .generator import GeneratorConfig, generate_program


def chain(n: int) -> ast.Program:
    body = [ast.Assign(target=f"v{i % 8}", expr=ast.IntLit(i)) for i in range(n)]
    return ast.Program(name=f"chain{n}", events=[], body=body)


def diamond_chain(n: int) -> ast.Program:
    body: list = [ast.Assign(target="x", expr=ast.IntLit(0))]
    for i in range(n):
        body.append(
            ast.If(
                cond=ast.BinOp("<", ast.Var("x"), ast.IntLit(i)),
                then_body=[ast.Assign(target="x", expr=ast.BinOp("+", ast.Var("x"), ast.IntLit(1)))],
                else_body=[ast.Assign(target="y", expr=ast.Var("x"))],
            )
        )
    return ast.Program(name=f"diamond{n}", events=[], body=body)


def wide_parallel(n_sections: int, stmts_per_section: int) -> ast.Program:
    sections = []
    for s in range(n_sections):
        stmts = [
            ast.Assign(target=f"v{(s + i) % (n_sections + 1)}", expr=ast.IntLit(i))
            for i in range(stmts_per_section)
        ]
        sections.append(ast.Section(name=f"S{s}", body=stmts))
    body = [
        ast.Assign(target=f"v{i}", expr=ast.IntLit(0)) for i in range(n_sections + 1)
    ] + [ast.ParallelSections(sections=sections)]
    return ast.Program(name=f"wide{n_sections}x{stmts_per_section}", events=[], body=body)


def nested_parallel(depth: int) -> ast.Program:
    def construct(level: int) -> ast.Stmt:
        left = [ast.Assign(target=f"v{level % 4}", expr=ast.IntLit(level))]
        if level < depth:
            right: list = [construct(level + 1)]
        else:
            right = [ast.Assign(target=f"v{(level + 1) % 4}", expr=ast.IntLit(level))]
        return ast.ParallelSections(
            sections=[
                ast.Section(name=f"L{level}", body=left),
                ast.Section(name=f"R{level}", body=right),
            ]
        )

    body = [ast.Assign(target=f"v{i}", expr=ast.IntLit(0)) for i in range(4)]
    body.append(construct(1))
    return ast.Program(name=f"nested{depth}", events=[], body=body)


def loop_nest(depth: int, stmts: int = 2) -> ast.Program:
    def nest(level: int) -> list:
        inner = [
            ast.Assign(target=f"v{level % 4}", expr=ast.BinOp("+", ast.Var(f"v{level % 4}"), ast.IntLit(1)))
            for _ in range(stmts)
        ]
        if level < depth:
            inner.append(ast.Loop(body=nest(level + 1)))
        return inner

    body = [ast.Assign(target=f"v{i}", expr=ast.IntLit(0)) for i in range(4)]
    body.append(ast.Loop(body=nest(1)))
    return ast.Program(name=f"loopnest{depth}", events=[], body=body)


def sync_pipeline(n_stages: int) -> ast.Program:
    """Producer→consumer chain over ONE shared variable: stage ``i`` waits
    on ``e_{i-1}``, increments ``x``, and posts ``e_i``.  The stages are
    concurrent sections, fully ordered only by the events — the showcase
    for the §6 machinery: with the Preserved approximation exactly the
    last stage's definition reaches the join (race-free, constant out);
    with ``preserved="none"`` every stage's definition reaches and the
    join reports a race."""
    events = [f"e{i}" for i in range(n_stages - 1)]
    sections = []
    for i in range(n_stages):
        body: list = []
        if i > 0:
            body.append(ast.Wait(event=f"e{i - 1}"))
        body.append(ast.Assign(target="x", expr=ast.BinOp("+", ast.Var("x"), ast.IntLit(1))))
        if i < n_stages - 1:
            body.append(ast.Post(event=f"e{i}"))
        sections.append(ast.Section(name=f"stage{i}", body=body))
    body = [ast.Assign(target="x", expr=ast.IntLit(1))]
    body.append(ast.ParallelSections(sections=sections))
    body.append(ast.Assign(target="out", expr=ast.Var("x")))
    return ast.Program(name=f"pipeline{n_stages}", events=events, body=body)


def fig3_repeated(n_copies: int) -> ast.Program:
    """n copies of the paper's Figure 3 construct inside one loop, each
    with its own event (and a correctness-restoring clear)."""
    events = [f"ev{i}" for i in range(n_copies)]
    loop_body: list = []
    for i in range(n_copies):
        ev = events[i]
        loop_body.append(ast.Clear(event=ev))
        section_a = ast.Section(
            name=f"A{i}",
            body=[
                ast.If(
                    cond=ast.BinOp("<", ast.Var("condition"), ast.IntLit(1)),
                    then_body=[ast.Assign(target="x", expr=ast.IntLit(7)), ast.Post(event=ev)],
                    else_body=[ast.Assign(target="x", expr=ast.IntLit(8)), ast.Post(event=ev)],
                ),
                ast.Assign(target="z", expr=ast.BinOp("*", ast.Var("y"), ast.IntLit(7))),
            ],
        )
        section_b = ast.Section(
            name=f"B{i}",
            body=[
                ast.ParallelSections(
                    sections=[
                        ast.Section(
                            name=f"B1_{i}",
                            body=[
                                ast.Wait(event=ev),
                                ast.Assign(target="x", expr=ast.BinOp("*", ast.Var("x"), ast.IntLit(32))),
                            ],
                        ),
                        ast.Section(
                            name=f"B2_{i}",
                            body=[ast.Assign(target="z", expr=ast.BinOp("*", ast.Var("y"), ast.IntLit(54)))],
                        ),
                    ]
                )
            ],
        )
        loop_body.append(ast.ParallelSections(sections=[section_a, section_b]))
        loop_body.append(ast.Assign(target="y", expr=ast.BinOp("*", ast.Var("x"), ast.Var("z"))))
    body = [
        ast.Assign(target="x", expr=ast.IntLit(2)),
        ast.Assign(target="y", expr=ast.IntLit(5)),
        ast.Loop(body=loop_body),
    ]
    return ast.Program(name=f"fig3x{n_copies}", events=events, body=body)


def diamond_loop(n_diamonds: int) -> ast.Program:
    """n if/else diamonds inside ONE loop.  Unlike ``diamond_chain``
    (acyclic — every region is a singleton) the enclosing back edge puts
    all the diamonds into a single large cyclic SCC of the sequential
    system."""
    loop_body: list = []
    for i in range(n_diamonds):
        loop_body.append(
            ast.If(
                cond=ast.BinOp("<", ast.Var("x"), ast.IntLit(i)),
                then_body=[ast.Assign(target="x", expr=ast.BinOp("+", ast.Var("x"), ast.IntLit(1)))],
                else_body=[ast.Assign(target=f"y{i % 16}", expr=ast.Var("x"))],
            )
        )
    body = [ast.Assign(target="x", expr=ast.IntLit(0)), ast.Loop(body=loop_body)]
    body.append(ast.Assign(target="out", expr=ast.Var("x")))
    return ast.Program(name=f"dloop{n_diamonds}", events=[], body=body)


def par_diamond_loop(n_sections: int, n_constructs: int) -> ast.Program:
    """``n_constructs`` parallel-sections constructs (each with
    ``n_sections`` sections holding an if/else diamond) inside ONE loop:
    a single cyclic SCC exercising the full §5 kill layer."""
    loop_body: list = []
    for j in range(n_constructs):
        sections = []
        for i in range(n_sections):
            sections.append(
                ast.Section(
                    name=f"S{j}_{i}",
                    body=[
                        ast.If(
                            cond=ast.Var("c"),
                            then_body=[ast.Assign(target=f"a{j}_{i}", expr=ast.Var("x"))],
                            else_body=[ast.Assign(target=f"b{j}_{i}", expr=ast.Var(f"a{j}_{i}"))],
                        )
                    ],
                )
            )
        loop_body.append(ast.ParallelSections(sections=sections))
        loop_body.append(ast.Assign(target="x", expr=ast.Var(f"a{j}_0")))
    body = [
        ast.Assign(target="x", expr=ast.IntLit(0)),
        ast.Assign(target="c", expr=ast.IntLit(0)),
        ast.Loop(body=loop_body),
        ast.Assign(target="out", expr=ast.Var("x")),
    ]
    return ast.Program(name=f"pdloop{n_sections}x{n_constructs}", events=[], body=body)


def par_loop_chain(n_loops: int, n_sections: int) -> ast.Program:
    """``n_loops`` *separate* loops in sequence, each wrapping one wide
    parallel-sections construct over its own variable family.  Where
    ``par_diamond_loop`` fuses everything into ONE cyclic SCC, this shape
    yields ``n_loops`` independent expensive cyclic regions through the
    §5 kill layer — the incremental engine's target shape: a one-statement
    edit in the last loop leaves the other ``n_loops - 1`` regions clean
    and reusable, with solving (not graph build) dominating wall clock."""
    body: list = []
    for j in range(n_loops):
        body.append(ast.Assign(target=f"x{j}", expr=ast.IntLit(0)))
        body.append(ast.Assign(target=f"c{j}", expr=ast.IntLit(0)))
        sections = []
        for i in range(n_sections):
            sections.append(
                ast.Section(
                    name=f"L{j}_{i}",
                    body=[
                        ast.If(
                            cond=ast.Var(f"c{j}"),
                            then_body=[ast.Assign(target=f"a{j}_{i}", expr=ast.Var(f"x{j}"))],
                            else_body=[ast.Assign(target=f"b{j}_{i}", expr=ast.Var(f"a{j}_{i}"))],
                        )
                    ],
                )
            )
        body.append(
            ast.Loop(
                body=[
                    ast.ParallelSections(sections=sections),
                    ast.Assign(target=f"x{j}", expr=ast.Var(f"a{j}_0")),
                ]
            )
        )
    body.append(ast.Assign(target="out", expr=ast.Var(f"x{n_loops - 1}")))
    return ast.Program(name=f"plchain{n_loops}x{n_sections}", events=[], body=body)


def pardo_grid(n_constructs: int, body_stmts: int) -> ast.Program:
    """n sequential ``parallel do`` constructs, each with an m-statement
    body reading its private index — iteration-parallelism pressure for
    the concurrency machinery and cross-iteration race reporting."""
    body: list = [ast.Assign(target="seed", expr=ast.IntLit(1))]
    for c in range(n_constructs):
        inner: list = []
        for s in range(body_stmts):
            inner.append(
                ast.Assign(
                    target=f"cell{c}_{s}",
                    expr=ast.BinOp("*", ast.Var(f"it{c}"), ast.IntLit(s + 1)),
                )
            )
        inner.append(
            ast.Assign(target="seed", expr=ast.BinOp("+", ast.Var("seed"), ast.IntLit(1)))
        )
        body.append(ast.ParallelDo(index=f"it{c}", body=inner))
    body.append(ast.Assign(target="out", expr=ast.Var("seed")))
    return ast.Program(name=f"pardo{n_constructs}x{body_stmts}", events=[], body=body)


def random_mix(seed: int, n_stmts: int) -> ast.Program:
    return generate_program(
        seed, GeneratorConfig(target_stmts=n_stmts, n_vars=6, max_depth=4), name=f"mix{seed}_{n_stmts}"
    )


#: Registry for CLI/bench parameterization.
WORKLOADS = {
    "chain": chain,
    "diamond": diamond_chain,
    "wide": wide_parallel,
    "nested": nested_parallel,
    "loopnest": loop_nest,
    "dloop": diamond_loop,
    "pdloop": par_diamond_loop,
    "plchain": par_loop_chain,
    "pipeline": sync_pipeline,
    "fig3x": fig3_repeated,
    "pardo": pardo_grid,
    "mix": random_mix,
}
