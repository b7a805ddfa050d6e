"""Metamorphic transforms: program rewrites with a known answer.

A metamorphic oracle needs no ground truth: it applies a semantics-
preserving rewrite and checks that the analysis answer is *unchanged
modulo the rewrite*.  Each transform here returns a :class:`Mutation`
carrying, besides the mutated program, the evidence needed to state that
equivalence precisely:

``stmt_map``
    original statement → its counterpart in the mutant, by object
    identity (``id``).  Reaching-definition sets are compared at
    statement granularity through this map, so transforms are free to
    change block structure (padding splits blocks, reordering renumbers
    them) — the comparison in :mod:`repro.fuzz.oracles` follows the
    statements, not the block names.

``var_map``
    original variable name → mutant variable name (identity except for
    :func:`rename_variables`).

The four transforms:

* :func:`rename_variables` — bijective α-renaming of every program
  variable (events untouched).  In sets must be equal node-for-node
  modulo the induced definition renaming.
* :func:`pad_dead_code` — insert assignments to *fresh* variables that
  are never read.  Chains of original uses cannot change (the new
  definitions belong to variables no original use reads).
* :func:`reorder_sections` — permute the sections of ``Parallel
  Sections`` constructs that contain no synchronization anywhere below
  them.  The parallel equations are symmetric in the sections, so the
  fixpoint is permutation-invariant.
* :func:`pad_noop_sync` — insert a self-contained ``clear(f); post(f);
  wait(f)`` triple on a *fresh* event ``f`` in sequential context (never
  inside a ``parallel do``, whose iterations share events — the §6
  staleness class).  No other statement touches ``f``, so the triple
  neither blocks dynamically nor carries any cross-thread flow.

Determinism: every transform takes a ``seed`` and uses its own
``random.Random``, so a (program, seed) pair always yields the same
mutant — campaign failures replay exactly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..lang import ast

# ---------------------------------------------------------------------------
# Cloning with a statement map
# ---------------------------------------------------------------------------


def _clone_stmt(stmt: ast.Stmt, smap: Dict[int, ast.Stmt]) -> ast.Stmt:
    """Deep-copy one statement, recording ``id(original) → clone`` for the
    whole subtree.  Expressions are immutable and shared."""
    if isinstance(stmt, ast.Assign):
        clone: ast.Stmt = ast.Assign(
            target=stmt.target, expr=stmt.expr, span=stmt.span, label=stmt.label
        )
    elif isinstance(stmt, ast.Skip):
        clone = ast.Skip(span=stmt.span, label=stmt.label)
    elif isinstance(stmt, ast.Post):
        clone = ast.Post(event=stmt.event, span=stmt.span, label=stmt.label)
    elif isinstance(stmt, ast.Wait):
        clone = ast.Wait(event=stmt.event, span=stmt.span, label=stmt.label)
    elif isinstance(stmt, ast.Clear):
        clone = ast.Clear(event=stmt.event, span=stmt.span, label=stmt.label)
    elif isinstance(stmt, ast.If):
        clone = ast.If(
            cond=stmt.cond,
            then_body=[_clone_stmt(s, smap) for s in stmt.then_body],
            else_body=[_clone_stmt(s, smap) for s in stmt.else_body],
            span=stmt.span,
            label=stmt.label,
            end_label=stmt.end_label,
        )
    elif isinstance(stmt, ast.While):
        clone = ast.While(
            cond=stmt.cond,
            body=[_clone_stmt(s, smap) for s in stmt.body],
            span=stmt.span,
            label=stmt.label,
            end_label=stmt.end_label,
        )
    elif isinstance(stmt, ast.Loop):
        clone = ast.Loop(
            body=[_clone_stmt(s, smap) for s in stmt.body],
            span=stmt.span,
            label=stmt.label,
            end_label=stmt.end_label,
        )
    elif isinstance(stmt, ast.Section):
        clone = ast.Section(
            name=stmt.name,
            body=[_clone_stmt(s, smap) for s in stmt.body],
            span=stmt.span,
            label=stmt.label,
        )
    elif isinstance(stmt, ast.ParallelSections):
        clone = ast.ParallelSections(
            sections=[_clone_stmt(s, smap) for s in stmt.sections],  # type: ignore[misc]
            span=stmt.span,
            label=stmt.label,
            end_label=stmt.end_label,
        )
    elif isinstance(stmt, ast.ParallelDo):
        clone = ast.ParallelDo(
            index=stmt.index,
            body=[_clone_stmt(s, smap) for s in stmt.body],
            span=stmt.span,
            label=stmt.label,
            end_label=stmt.end_label,
        )
    else:  # pragma: no cover - future node kinds
        raise TypeError(f"cannot clone {type(stmt).__name__}")
    smap[id(stmt)] = clone
    return clone


def clone_program(program: ast.Program) -> Tuple[ast.Program, Dict[int, ast.Stmt]]:
    """Deep-copy ``program``; returns the clone and the identity map
    ``id(original stmt) → cloned stmt`` over every statement."""
    smap: Dict[int, ast.Stmt] = {}
    body = [_clone_stmt(s, smap) for s in program.body]
    clone = ast.Program(
        name=program.name, events=list(program.events), body=body, span=program.span
    )
    return clone, smap


@dataclass
class Mutation:
    """One applied metamorphic transform (see module docstring)."""

    name: str
    program: ast.Program
    stmt_map: Dict[int, ast.Stmt]
    var_map: Dict[str, str] = field(default_factory=dict)
    detail: str = ""

    def mapped(self, stmt: ast.Stmt) -> ast.Stmt:
        """The mutant counterpart of an original statement."""
        return self.stmt_map[id(stmt)]

    def mapped_var(self, var: str) -> str:
        return self.var_map.get(var, var)


# ---------------------------------------------------------------------------
# Transform helpers
# ---------------------------------------------------------------------------


def _program_variables(program: ast.Program) -> List[str]:
    """Every variable name the program mentions (assigned, read, or a
    ``parallel do`` index), in first-appearance order."""
    seen: Dict[str, None] = {}
    for stmt in program.walk():
        if isinstance(stmt, ast.Assign):
            seen.setdefault(stmt.target, None)
            for v in stmt.expr.variables():
                seen.setdefault(v, None)
        elif isinstance(stmt, (ast.If, ast.While)):
            for v in stmt.cond.variables():
                seen.setdefault(v, None)
        elif isinstance(stmt, ast.ParallelDo):
            seen.setdefault(stmt.index, None)
    return list(seen)


def _rename_expr(expr: ast.Expr, vmap: Dict[str, str]) -> ast.Expr:
    return expr.fold(
        lambda leaf: ast.Var(vmap.get(leaf.name, leaf.name)) if isinstance(leaf, ast.Var) else leaf,
        lambda node, inner: ast.UnaryOp(node.op, inner),
        lambda node, left, right: ast.BinOp(node.op, left, right),
    )


def _blocks(program: ast.Program, *, skip_pardo: bool = False) -> List[List[ast.Stmt]]:
    """All statement lists of the program, in deterministic pre-order.
    ``skip_pardo=True`` excludes every list inside a ``parallel do``
    (iterations share events; sync padding there would be unsound)."""
    out: List[List[ast.Stmt]] = [program.body]

    def visit(stmts: List[ast.Stmt]) -> None:
        for s in stmts:
            if isinstance(s, ast.If):
                out.append(s.then_body)
                visit(s.then_body)
                out.append(s.else_body)
                visit(s.else_body)
            elif isinstance(s, (ast.While, ast.Loop)):
                out.append(s.body)
                visit(s.body)
            elif isinstance(s, ast.ParallelSections):
                for sec in s.sections:
                    out.append(sec.body)
                    visit(sec.body)
            elif isinstance(s, ast.ParallelDo):
                if not skip_pardo:
                    out.append(s.body)
                    visit(s.body)

    visit(program.body)
    return out


def _fresh_names(prefix: str, n: int, taken: set) -> List[str]:
    names, i = [], 0
    while len(names) < n:
        cand = f"{prefix}{i}"
        if cand not in taken:
            names.append(cand)
            taken.add(cand)
        i += 1
    return names


# ---------------------------------------------------------------------------
# The transforms
# ---------------------------------------------------------------------------


def rename_variables(program: ast.Program, seed: int = 0) -> Optional[Mutation]:
    """Bijective α-renaming of every variable; events keep their names."""
    variables = _program_variables(program)
    if not variables:
        return None
    rng = random.Random(seed)
    taken = set(variables)
    fresh = _fresh_names("rn", len(variables), taken)
    shuffled = list(variables)
    rng.shuffle(shuffled)
    vmap = dict(zip(shuffled, fresh))
    clone, smap = clone_program(program)
    for stmt in clone.walk():
        if isinstance(stmt, ast.Assign):
            stmt.target = vmap.get(stmt.target, stmt.target)
            stmt.expr = _rename_expr(stmt.expr, vmap)
        elif isinstance(stmt, (ast.If, ast.While)):
            stmt.cond = _rename_expr(stmt.cond, vmap)
        elif isinstance(stmt, ast.ParallelDo):
            stmt.index = vmap.get(stmt.index, stmt.index)
    return Mutation(
        name="rename",
        program=clone,
        stmt_map=smap,
        var_map=vmap,
        detail=f"renamed {len(vmap)} variables",
    )


def pad_dead_code(program: ast.Program, seed: int = 0) -> Optional[Mutation]:
    """Insert assignments to fresh, never-read variables at seeded points."""
    rng = random.Random(seed)
    clone, smap = clone_program(program)
    blocks = _blocks(clone)
    taken = set(_program_variables(program))
    n = rng.randint(2, 4)
    fresh = _fresh_names("dead", n, taken)
    for var in fresh:
        block = rng.choice(blocks)
        at = rng.randint(0, len(block))
        block.insert(at, ast.Assign(target=var, expr=ast.IntLit(rng.randint(0, 9))))
    return Mutation(
        name="dead-pad",
        program=clone,
        stmt_map=smap,
        detail=f"inserted {n} dead definitions",
    )


def _subtree_has_sync(stmts: List[ast.Stmt]) -> bool:
    for s in stmts:
        for sub in s.walk():
            if isinstance(sub, (ast.Post, ast.Wait, ast.Clear)):
                return True
    return False


def reorder_sections(program: ast.Program, seed: int = 0) -> Optional[Mutation]:
    """Permute the sections of every sync-free ``Parallel Sections``
    construct.  Returns None when no construct is eligible (synchronization
    anywhere below a construct pins its sections)."""
    rng = random.Random(seed)
    clone, smap = clone_program(program)
    changed = 0
    for stmt in clone.walk():
        if (
            isinstance(stmt, ast.ParallelSections)
            and len(stmt.sections) >= 2
            and not _subtree_has_sync(stmt.sections)  # type: ignore[arg-type]
        ):
            perm = list(stmt.sections)
            rng.shuffle(perm)
            if perm == stmt.sections:
                perm = perm[1:] + perm[:1]
            stmt.sections = perm
            changed += 1
    if not changed:
        return None
    return Mutation(
        name="reorder-sections",
        program=clone,
        stmt_map=smap,
        detail=f"permuted {changed} construct(s)",
    )


def pad_noop_sync(program: ast.Program, seed: int = 0) -> Optional[Mutation]:
    """Insert ``clear(f); post(f); wait(f)`` triples on fresh events in
    sequential context (never inside a ``parallel do``)."""
    rng = random.Random(seed)
    clone, smap = clone_program(program)
    blocks = _blocks(clone, skip_pardo=True)
    if not blocks:
        return None
    n = rng.randint(1, 2)
    taken = set(clone.events)
    fresh = _fresh_names("nf", n, taken)
    for event in fresh:
        block = rng.choice(blocks)
        at = rng.randint(0, len(block))
        block[at:at] = [
            ast.Clear(event=event),
            ast.Post(event=event),
            ast.Wait(event=event),
        ]
        clone.events.append(event)
    return Mutation(
        name="sync-pad",
        program=clone,
        stmt_map=smap,
        detail=f"inserted {n} no-op sync triple(s)",
    )


#: Registry: transform name → callable ``(program, seed) → Optional[Mutation]``.
MUTATORS: Dict[str, Callable[[ast.Program, int], Optional[Mutation]]] = {
    "rename": rename_variables,
    "dead-pad": pad_dead_code,
    "reorder-sections": reorder_sections,
    "sync-pad": pad_noop_sync,
}


def apply_mutators(
    program: ast.Program,
    seed: int = 0,
    names: Optional[Tuple[str, ...]] = None,
) -> List[Mutation]:
    """Apply every (named) applicable transform; skip the inapplicable."""
    out: List[Mutation] = []
    for name in names if names is not None else tuple(MUTATORS):
        try:
            fn = MUTATORS[name]
        except KeyError:
            raise ValueError(
                f"unknown mutator {name!r}; choose from {', '.join(MUTATORS)}"
            ) from None
        mutation = fn(program, seed)
        if mutation is not None:
            out.append(mutation)
    return out


# ---------------------------------------------------------------------------
# Edit scripts (NOT semantics-preserving)
# ---------------------------------------------------------------------------

#: The statement-level edit kinds :func:`random_edit_script` draws from.
EDIT_KINDS: Tuple[str, ...] = ("insert", "delete", "replace")


def random_edit_script(
    program: ast.Program,
    seed: int = 0,
    n_edits: int = 1,
    kinds: Tuple[str, ...] = EDIT_KINDS,
) -> Optional[Mutation]:
    """Apply ``n_edits`` random statement edits — the *version-to-version*
    churn the incremental engine (:mod:`repro.incremental`) consumes.

    Unlike the metamorphic transforms above these deliberately **change
    the analysis answer**: an oracle using them must compare against a
    from-scratch solve of the edited program, not against the original.
    Edits are simple-statement-level so the program stays well-formed:

    * ``insert`` — a new assignment at a random block position, to an
      existing variable (kill-universe perturbation) or a fresh one
      (adds a variable entirely);
    * ``delete`` — remove a random ``Assign``/``Skip`` from a block that
      keeps at least one statement (deleting a variable's only
      definition removes it from every kill set);
    * ``replace`` — rewrite an ``Assign`` in place: new right-hand side
      (the def survives at the same site) or a new target variable (one
      def removed, another added).

    Deterministic per ``(program, seed, n_edits)``; returns ``None``
    only when no edit kind is applicable (e.g. a program too small to
    delete from with ``kinds=("delete",)``).
    """
    rng = random.Random(seed)
    clone, smap = clone_program(program)
    variables = _program_variables(clone)
    taken = set(variables)
    details: List[str] = []
    for _ in range(n_edits):
        applied = False
        for kind in rng.sample(kinds, len(kinds)):
            blocks = _blocks(clone)
            if kind == "insert":
                block = rng.choice(blocks)
                at = rng.randrange(len(block) + 1)
                if variables and rng.random() < 0.7:
                    target = rng.choice(variables)
                else:
                    target = _fresh_names("ed", 1, taken)[0]
                    variables.append(target)
                if variables != [target] and rng.random() < 0.5:
                    expr: ast.Expr = ast.Var(rng.choice([v for v in variables if v != target] or [target]))
                else:
                    expr = ast.IntLit(rng.randrange(1000))
                block.insert(at, ast.Assign(target=target, expr=expr))
                details.append(f"insert {target} @{at}")
            elif kind == "delete":
                candidates = [
                    (block, i)
                    for block in blocks
                    if len(block) >= 2
                    for i, s in enumerate(block)
                    if isinstance(s, (ast.Assign, ast.Skip))
                ]
                if not candidates:
                    continue
                block, i = rng.choice(candidates)
                gone = block.pop(i)
                details.append(f"delete {type(gone).__name__.lower()} @{i}")
            else:  # replace
                candidates = [
                    (block, i)
                    for block in blocks
                    for i, s in enumerate(block)
                    if isinstance(s, ast.Assign)
                ]
                if not candidates:
                    continue
                block, i = rng.choice(candidates)
                old = block[i]
                if variables and rng.random() < 0.4:
                    target = rng.choice(variables)  # possibly a retarget
                else:
                    target = old.target
                block[i] = ast.Assign(target=target, expr=ast.IntLit(rng.randrange(1000)))
                details.append(f"replace {old.target}->{target} @{i}")
            applied = True
            break
        if not applied:
            break
    if not details:
        return None
    return Mutation(
        name="edit-script",
        program=clone,
        stmt_map=smap,
        detail="; ".join(details),
    )
