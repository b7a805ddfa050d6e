"""Abstract syntax tree for the mini-PCF language.

The tree mirrors the constructs the paper's analysis consumes:

* straight-line scalar assignments,
* sequential branches (``if .. then .. else .. endif``),
* sequential loops (``loop .. endloop`` — a nondeterministically repeated
  loop, matching the paper's Figure 1/3 examples — and ``while``),
* the ``Parallel Sections`` construct with named sections, arbitrarily
  nested,
* event synchronization: ``post(ev)``, ``wait(ev)``, ``clear(ev)``.

Every node carries a :class:`~repro.lang.errors.SourceSpan`; statements
additionally carry an optional ``label`` used to give PFG nodes the same
numbering as the paper's figures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator, List, Optional, Tuple, TypeVar

from .errors import NO_SPAN, SourceSpan

_V = TypeVar("_V")

#: Sets a field of a frozen expression node.
_setattr = object.__setattr__

# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False, repr=False)
class Expr:
    """Base class for expressions (immutable, hashable).

    Each class sets its fields in its own ``__init__`` through a bound
    ``object.__setattr__`` (the frozen dataclass ``__init__`` looks it up
    once per field), since the parser builds one node per operand.

    :meth:`postorder` is the one walk over an expression's children, on an
    explicit stack, and :meth:`fold` evaluates on top of it.  Equality and
    hashing compare post-order tokens (class, then ``op``/``name``/``value``),
    which every class's fixed arity makes as precise as the tree."""

    def postorder(self) -> List["Expr"]:
        """Every node, children before their parent and left before right
        (so the leaves come in source order)."""
        if type(self) is BinOp and type(self.left) in _LEAVES and type(self.right) in _LEAVES:
            return [self.left, self.right, self]  # the commonest shape, ``x + 1``
        # Built backwards (parent, right, left) down each right spine.
        order: List[Expr] = []
        stack: List[Expr] = [self]
        while stack:
            node = stack.pop()
            while True:
                order.append(node)
                kind = type(node)
                if kind is BinOp:
                    stack.append(node.left)
                    node = node.right
                elif kind is UnaryOp:
                    node = node.operand
                else:
                    break
        order.reverse()
        return order

    def fold(
        self, leaf: Callable[["Expr"], _V], unary: Callable[..., _V], binary: Callable[..., _V]
    ) -> _V:
        """Evaluate bottom-up: ``leaf(node)`` on literals and variables, in
        source order, then ``unary(node, value)`` and ``binary(node, left,
        right)`` on the operators."""
        if type(self) in _LEAVES:
            return leaf(self)
        values: List[_V] = []
        for node in self.postorder():
            kind = type(node)
            if kind is BinOp:
                right = values.pop()
                values[-1] = binary(node, values[-1], right)
            elif kind is UnaryOp:
                values[-1] = unary(node, values[-1])
            else:
                values.append(leaf(node))
        return values[0]

    def _tokens(self) -> Tuple[object, ...]:
        tokens: List[object] = []
        for node in self.postorder():
            kind = type(node)
            tokens.append(kind)
            tokens.append(node.name if kind is Var else node.value if kind in _LEAVES else node.op)
        return tuple(tokens)

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self is other or self._tokens() == other._tokens()

    def __hash__(self) -> int:
        return hash(self._tokens())

    def __repr__(self) -> str:
        """The text the dataclass ``repr`` gave (class, then each field),
        built by :meth:`fold`, so a tree of any depth prints."""

        def leaf(n: Expr) -> str:
            attr = "name" if type(n) is Var else "value"
            return f"{type(n).__qualname__}({attr}={getattr(n, attr)!r})"

        return self.fold(
            leaf,
            lambda n, operand: f"UnaryOp(op={n.op!r}, operand={operand})",
            lambda n, left, right: f"BinOp(op={n.op!r}, left={left}, right={right})",
        )

    def variables(self) -> Tuple[str, ...]:
        """All variable names read by this expression, in source order,
        without duplicates."""
        kind = type(self)
        if kind is Var:
            return (self.name,)
        if kind is not BinOp and kind is not UnaryOp:
            return ()
        return tuple(dict.fromkeys([n.name for n in self.postorder() if type(n) is Var]))


@dataclass(frozen=True, eq=False, repr=False, init=False)
class IntLit(Expr):
    value: int

    def __init__(self, value: int) -> None:
        _setattr(self, "value", value)

    def __str__(self) -> str:
        return str(self.value)


@dataclass(frozen=True, eq=False, repr=False, init=False)
class BoolLit(Expr):
    value: bool

    def __init__(self, value: bool) -> None:
        _setattr(self, "value", value)

    def __str__(self) -> str:
        return "true" if self.value else "false"


@dataclass(frozen=True, eq=False, repr=False, init=False)
class Var(Expr):
    name: str

    def __init__(self, name: str) -> None:
        _setattr(self, "name", name)

    def __str__(self) -> str:
        return self.name


_LEAVES = (IntLit, BoolLit, Var)

#: Binary operators, by surface syntax.
BINARY_OPS = ("+", "-", "*", "/", "%", "==", "/=", "<", "<=", ">", ">=", "and", "or")
UNARY_OPS = ("-", "not")


def apply_binop(op: str, left: object, right: object) -> object:
    """``left op right``, for the interpreter and constant propagation.
    Total: integer ops are Python floor semantics, and division/modulo by
    zero yield 0 (so random programs never crash; constant propagation
    makes no value claim there)."""
    if op == "+":
        return left + right
    if op == "-":
        return left - right
    if op == "*":
        return left * right
    if op == "/":
        return 0 if right == 0 else int(left) // int(right)
    if op == "%":
        return 0 if right == 0 else int(left) % int(right)
    if op == "==":
        return left == right
    if op == "/=":
        return left != right
    if op == "<":
        return left < right
    if op == "<=":
        return left <= right
    if op == ">":
        return left > right
    if op == ">=":
        return left >= right
    if op == "and":
        return bool(left) and bool(right)
    if op == "or":
        return bool(left) or bool(right)
    raise ValueError(f"unknown operator {op!r}")  # pragma: no cover


@dataclass(frozen=True, eq=False, repr=False, init=False)
class BinOp(Expr):
    op: str
    left: Expr
    right: Expr

    def __init__(self, op: str, left: Expr, right: Expr) -> None:
        if op not in BINARY_OPS:
            raise ValueError(f"unknown binary operator {op!r}")
        _setattr(self, "op", op)
        _setattr(self, "left", left)
        _setattr(self, "right", right)

    def __str__(self) -> str:
        return _render(self)


@dataclass(frozen=True, eq=False, repr=False, init=False)
class UnaryOp(Expr):
    op: str
    operand: Expr

    def __init__(self, op: str, operand: Expr) -> None:
        if op not in UNARY_OPS:
            raise ValueError(f"unknown unary operator {op!r}")
        _setattr(self, "op", op)
        _setattr(self, "operand", operand)

    def __str__(self) -> str:
        return _render(self)


def _render(expr: Expr) -> str:
    """``str`` of a compound expression, written back to front over the
    reversed post-order, which meets each operator before its operands:
    its ``)`` goes out at once, and the `` op `` and ``(`` it owes wait on
    a stack until its right and then its left operand are done."""
    out: List[str] = []
    owed: List[str] = []
    for node in reversed(expr.postorder()):
        kind = type(node)
        if kind is BinOp:
            out.append(")")
            owed += ("(", f" {node.op} ")
        elif kind is UnaryOp:
            out.append(")")
            owed.append("(not " if node.op == "not" else "(-")
        else:
            out.append(node.name if kind is Var else str(node))
            # A leaf finishes every operand it is the first leaf of, up to
            # a right operand (an owed " op "): its left sibling is next.
            while owed:
                out.append(owed.pop())
                if out[-1][0] == " ":
                    break
    out.reverse()
    return "".join(out)


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class Stmt:
    """Base class for statements.

    ``label`` is an optional user-facing name for the statement; the paper
    labels statements with the basic-block numbers of its figures (so a
    definition of ``x`` at label ``4`` prints as ``x4``).  The PFG builder
    honours labels when forming extended basic blocks.
    """

    span: SourceSpan = field(default=NO_SPAN, kw_only=True)
    label: Optional[str] = field(default=None, kw_only=True)

    def children(self) -> Iterator["Stmt"]:
        """Immediate sub-statements (for generic walkers)."""
        return iter(())

    def walk(self) -> Iterator["Stmt"]:
        """This statement and all statements below it, pre-order."""
        return _walk([self])


def _walk(stmts: List[Stmt]) -> Iterator[Stmt]:
    """``stmts`` and every statement below them, pre-order, on one
    explicit stack (children pushed last-first, so they pop in order)."""
    stack = stmts[::-1]
    while stack:
        stmt = stack.pop()
        yield stmt
        children = tuple(stmt.children())
        if children:
            stack.extend(reversed(children))


@dataclass(eq=False)
class Assign(Stmt):
    target: str
    expr: Expr

    def __str__(self) -> str:
        return f"{self.target} = {self.expr}"


@dataclass(eq=False)
class Skip(Stmt):
    """No-op statement; useful for labelling otherwise-empty blocks."""

    def __str__(self) -> str:
        return "skip"


@dataclass(eq=False)
class If(Stmt):
    cond: Expr
    then_body: List[Stmt]
    else_body: List[Stmt] = field(default_factory=list)
    end_label: Optional[str] = field(default=None, kw_only=True)
    """Label on the ``endif`` line; names the merge block (paper: ``(6) endif``)."""

    def children(self) -> Iterator[Stmt]:
        yield from self.then_body
        yield from self.else_body


@dataclass(eq=False)
class While(Stmt):
    cond: Expr
    body: List[Stmt]
    end_label: Optional[str] = field(default=None, kw_only=True)
    """Label on the ``endwhile`` line; names the latch block."""

    def children(self) -> Iterator[Stmt]:
        yield from self.body


@dataclass(eq=False)
class Loop(Stmt):
    """``loop .. endloop``: a sequential loop repeated a nondeterministic
    number of times (at least once per the paper's examples, but the
    analysis treats the trip count as unknown: the loop may also exit
    after any iteration)."""

    body: List[Stmt]
    end_label: Optional[str] = field(default=None, kw_only=True)
    """Label on the ``endloop`` line; names the latch block (paper: ``(7) endloop``)."""

    def children(self) -> Iterator[Stmt]:
        yield from self.body


@dataclass(eq=False)
class Section(Stmt):
    """One parallel section (a thread) of a ``Parallel Sections`` construct."""

    name: str
    body: List[Stmt]

    def children(self) -> Iterator[Stmt]:
        yield from self.body


@dataclass(eq=False)
class ParallelSections(Stmt):
    """The PCF ``Parallel Sections`` construct: every section executes,
    conceptually in parallel, and the construct completes when all do."""

    sections: List[Section]
    end_label: Optional[str] = field(default=None, kw_only=True)
    """Label on the ``end parallel sections`` line; names the join block
    (paper: ``(11) End Parallel Sections``)."""

    def children(self) -> Iterator[Stmt]:
        yield from self.sections


@dataclass(eq=False)
class ParallelDo(Stmt):
    """The PCF ``Parallel Do`` construct (the paper's §7 future work).

    ``parallel do i … end parallel do``: the body executes once per
    iteration, iterations conceptually in parallel, each with its own
    copy of the shared variables (copy-in/copy-out) and a private,
    read-only index ``i``.  The trip count is not modelled (it may be
    zero), mirroring how ``loop`` leaves its count open.
    """

    index: str
    body: List[Stmt]
    end_label: Optional[str] = field(default=None, kw_only=True)
    """Label on the ``end parallel do`` line; names the merge block."""

    def children(self) -> Iterator[Stmt]:
        yield from self.body


@dataclass(eq=False)
class Post(Stmt):
    """Mark ``event`` as posted (and, under copy-in/copy-out semantics,
    make this thread's shared-variable copies visible to waiters)."""

    event: str

    def __str__(self) -> str:
        return f"post({self.event})"


@dataclass(eq=False)
class Wait(Stmt):
    """Block until ``event`` is posted; absorb posters' variable copies."""

    event: str

    def __str__(self) -> str:
        return f"wait({self.event})"


@dataclass(eq=False)
class Clear(Stmt):
    """Reset ``event`` to un-posted."""

    event: str

    def __str__(self) -> str:
        return f"clear({self.event})"


def structurally_equal(a: object, b: object) -> bool:
    """Structural AST equality, ignoring source spans.

    Statements compare by identity under ``==`` (so they can live in hash
    maps and ``list.index`` is positional); tests that need tree equality —
    parser/pretty-printer round-trips, generator determinism — use this.
    """
    if isinstance(a, Expr) or isinstance(b, Expr):
        return a == b  # expression equality is structural
    if isinstance(a, (Stmt, Program)) != isinstance(b, (Stmt, Program)):
        return False
    if isinstance(a, (Stmt, Program)):
        if type(a) is not type(b):
            return False
        for name in a.__dataclass_fields__:  # type: ignore[union-attr]
            if name == "span":
                continue
            va, vb = getattr(a, name), getattr(b, name)
            if isinstance(va, list):
                if not isinstance(vb, list) or len(va) != len(vb):
                    return False
                if not all(structurally_equal(x, y) for x, y in zip(va, vb)):
                    return False
            elif not structurally_equal(va, vb):
                return False
        return True
    return a == b


@dataclass(eq=False)
class Program:
    """A complete compilation unit."""

    name: str
    events: List[str]
    body: List[Stmt]
    span: SourceSpan = NO_SPAN

    def walk(self) -> Iterator[Stmt]:
        """Every statement, pre-order."""
        return _walk(self.body)

    def assigned_variables(self) -> Tuple[str, ...]:
        """All variables assigned anywhere in the program, in order."""
        seen = set()
        out: List[str] = []
        for stmt in self.walk():
            if isinstance(stmt, Assign) and stmt.target not in seen:
                seen.add(stmt.target)
                out.append(stmt.target)
        return tuple(out)

    def used_variables(self) -> Tuple[str, ...]:
        """All variables read anywhere in the program, in order."""
        seen = set()
        out: List[str] = []
        for stmt in self.walk():
            exprs: List[Expr] = []
            if isinstance(stmt, Assign):
                exprs.append(stmt.expr)
            elif isinstance(stmt, (If, While)):
                exprs.append(stmt.cond)
            for e in exprs:
                for v in e.variables():
                    if v not in seen:
                        seen.add(v)
                        out.append(v)
        return tuple(out)
