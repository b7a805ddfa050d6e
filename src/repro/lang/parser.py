"""Parser for the mini-PCF language.

Grammar (statements are newline/``;`` separated; ``# .. / ! ..`` comment)::

    program   := "program" IDENT NL decl* stmt* "end" ["program"] NL? EOF
    decl      := "event" IDENT ("," IDENT)* NL
    stmt      := label? core NL
    label     := "(" (INT | IDENT) ")"
    core      := IDENT "=" expr
               | "if" expr "then" NL stmt* ["else" NL stmt*] "endif"
               | "loop" NL stmt* "endloop"
               | "while" expr "do" NL stmt* "endwhile"
               | "parallel" "sections" NL section+ "end" "parallel" "sections"
               | ("post" | "wait" | "clear") "(" IDENT ")"
               | "skip"
    section   := label? "section" IDENT NL stmt*

Statement *labels* let the paper's numbered listings be typed verbatim —
``(4) x = 7`` gives the statement label ``"4"``, and the PFG builder names
blocks after the labels of the statements they contain, so analysis output
lines up with the paper's figures (definition ``x4`` etc.).

Expression precedence, loosest to tightest::

    or  <  and  <  not  <  (== /= < <= > >=)  <  (+ -)  <  (* / %)  <  unary -

Comparisons are non-associative (``a < b < c`` is an error); the other
binary operators associate to the left.

How it reads its input: statements by recursive descent, expressions by
precedence climbing (one call per operand, not one per precedence level).
Both work on the rows of :func:`repro.lang.lexer.scan`, with the current
row and its kind held in attributes.  Rows carry character offsets; a
:class:`~repro.lang.errors.SourceSpan` is built, by bisecting the line
starts, only for a token whose span lands in the AST or in a
:class:`~repro.lang.errors.ParseError`.  Nesting deep enough to exhaust
the interpreter's stack is a ``ParseError`` ("nesting too deep").
"""

from __future__ import annotations

from typing import Callable, List, Optional, TypeVar

from . import ast
from .errors import ParseError, SourceSpan
from .lexer import Row, scan, source_span
from .tokens import TokenKind

_T = TypeVar("_T")

_INT = TokenKind.INT
_IDENT = TokenKind.IDENT
_ASSIGN = TokenKind.ASSIGN
_LPAREN = TokenKind.LPAREN
_RPAREN = TokenKind.RPAREN
_NEWLINE = TokenKind.NEWLINE
_EOF = TokenKind.EOF
_MINUS = TokenKind.MINUS
_NOT = TokenKind.NOT
_TRUE = TokenKind.TRUE
_FALSE = TokenKind.FALSE
_IF = TokenKind.IF
_THEN = TokenKind.THEN
_ELSE = TokenKind.ELSE
_ENDIF = TokenKind.ENDIF

_Var = ast.Var
_IntLit = ast.IntLit
_BinOp = ast.BinOp

# Binding powers, loosest first.  A binary operator's right operand is
# parsed at one more than its own power; a prefix operator's operand at
# the operator's power.
_P_OR, _P_AND, _P_NOT, _P_CMP, _P_ADD, _P_MUL, _P_UNARY = range(1, 8)

#: Binary operator -> binding power.  The key is the operator's spelling
#: in the AST, which is also its token kind's value: looking a kind up by
#: its ``_value_`` string hashes in C, where the kind itself would call
#: ``Enum.__hash__`` once per operand.
_BINARY = {
    TokenKind.OR.value: _P_OR,
    TokenKind.AND.value: _P_AND,
    TokenKind.EQ.value: _P_CMP,
    TokenKind.NE.value: _P_CMP,
    TokenKind.LT.value: _P_CMP,
    TokenKind.LE.value: _P_CMP,
    TokenKind.GT.value: _P_CMP,
    TokenKind.GE.value: _P_CMP,
    TokenKind.PLUS.value: _P_ADD,
    TokenKind.MINUS.value: _P_ADD,
    TokenKind.STAR.value: _P_MUL,
    TokenKind.SLASH.value: _P_MUL,
    TokenKind.PERCENT.value: _P_MUL,
}
assert set(_BINARY) == set(ast.BINARY_OPS)

#: Tokens that terminate a statement list (checked before parsing a stmt).
_BLOCK_ENDERS = (
    TokenKind.END,
    TokenKind.ENDIF,
    TokenKind.ENDLOOP,
    TokenKind.ENDWHILE,
    TokenKind.ELSE,
    TokenKind.SECTION,
    TokenKind.EOF,
)
_SECTION = (TokenKind.SECTION,)


class Parser:
    """One-token-lookahead parser over scanner rows.

    The current row is ``rows[pos]``, also kept as ``tok`` and its kind
    as ``kind``.  :func:`~repro.lang.lexer.scan` never emits two
    ``NEWLINE`` rows in a row, so one ``NEWLINE`` ends a statement.
    """

    def __init__(self, rows: List[Row], lines: List[int]):
        self.rows = rows
        self.lines = lines
        self.pos = 0
        self.tok = rows[0]
        self.kind = self.tok[0]

    # -- token plumbing ---------------------------------------------------

    def _span(self, first: Row, last: Row) -> SourceSpan:
        """From the start of ``first`` to the end of ``last``."""
        return source_span(self.lines, first[3], last[4])

    def _error(self, message: str, tok: Row) -> ParseError:
        return ParseError(message, self._span(tok, tok))

    def _advance(self) -> Row:
        tok = self.tok
        if self.kind is not _EOF:
            self.pos += 1
            self.tok = row = self.rows[self.pos]
            self.kind = row[0]
        return tok

    def _goto(self, pos: int) -> None:
        """Make ``rows[pos]`` the current row."""
        self.pos = pos
        self.tok = row = self.rows[pos]
        self.kind = row[0]

    def _expect(self, kind: TokenKind, what: str = "") -> Row:
        tok = self.tok
        if self.kind is not kind:
            wanted = what or kind.value
            raise self._error(f"expected {wanted}, found {tok[1]!r}", tok)
        if kind is not _EOF:
            self._goto(self.pos + 1)
        return tok

    def _skip_newlines(self) -> None:
        while self.kind is _NEWLINE:
            self._advance()

    def _expect_line(self, kind: TokenKind, what: str = "") -> Row:
        """``_expect(kind, what)`` (never ``EOF``), then the end of the
        statement."""
        tok = self.tok
        if self.kind is not kind:
            wanted = what or kind.value
            raise self._error(f"expected {wanted}, found {tok[1]!r}", tok)
        pos = self.pos + 1
        row = self.rows[pos]
        if row[0] is _NEWLINE:
            pos += 1
            row = self.rows[pos]
        elif row[0] is not _EOF:
            raise self._error(f"expected end of statement, found {row[1]!r}", row)
        self.pos = pos
        self.tok = row
        self.kind = row[0]
        return tok

    def _end_of_statement(self) -> None:
        kind = self.kind
        if kind is _NEWLINE:
            self.pos = pos = self.pos + 1
            self.tok = row = self.rows[pos]
            self.kind = row[0]
        elif kind is not _EOF:
            raise self._error(f"expected end of statement, found {self.tok[1]!r}", self.tok)

    def guarded(self, parse: Callable[[], _T]) -> _T:
        """``parse()``, with a stack overflow reported as a ParseError."""
        try:
            return parse()
        except RecursionError:
            raise self._error("nesting too deep", self.tok) from None

    # -- program ----------------------------------------------------------

    def parse_program(self) -> ast.Program:
        self._skip_newlines()
        start = self._expect(TokenKind.PROGRAM)
        name = self._expect(_IDENT, "program name")[1]
        self._end_of_statement()

        events: List[str] = []
        while self.kind is TokenKind.EVENT:
            self._advance()
            events.append(self._expect(_IDENT, "event name")[1])
            while self.kind is TokenKind.COMMA:
                self._advance()
                events.append(self._expect(_IDENT, "event name")[1])
            self._end_of_statement()
        if len(set(events)) != len(events):
            dupes = sorted({e for e in events if events.count(e) > 1})
            raise self._error(f"duplicate event declaration(s): {', '.join(dupes)}", start)

        body = self._parse_stmt_list()
        self._parse_label()  # a label on 'end program' is allowed, unused
        end_tok = self._expect(TokenKind.END, "'end' / 'end program'")
        if self.kind is TokenKind.PROGRAM:
            self._advance()
        self._skip_newlines()
        self._expect(_EOF, "end of file")
        return ast.Program(name=name, events=events, body=body, span=self._span(start, end_tok))

    def parse_expression(self) -> ast.Expr:
        """One expression, then the end of the input."""
        expr = self._parse_expr()
        self._skip_newlines()
        self._expect(_EOF, "end of expression")
        return expr

    # -- statements -------------------------------------------------------

    def _label_before(self, kinds: tuple) -> bool:
        """True at ``( INT|IDENT )`` followed by a token of ``kinds``.

        The current token is ``(``, so the rows up to the ``)`` exist
        whenever the checks before them pass (``EOF`` is last)."""
        rows, pos = self.rows, self.pos
        return (
            rows[pos + 1][0] in (_INT, _IDENT)
            and rows[pos + 2][0] is _RPAREN
            and rows[pos + 3][0] in kinds
        )

    def _parse_stmt_list(self) -> List[ast.Stmt]:
        """Statements up to a block-terminating keyword, possibly behind
        a label (the paper labels terminators: ``(6) endif``, ``(11) end
        parallel sections``)."""
        stmts: List[ast.Stmt] = []
        append = stmts.append
        while True:  # the caller has just ended a statement: no NEWLINE here
            kind = self.kind
            if kind is _IDENT:
                append(self._parse_assign(None))
            elif kind is _IF:
                append(self._parse_if(None))
            elif kind in _BLOCK_ENDERS or (kind is _LPAREN and self._label_before(_BLOCK_ENDERS)):
                return stmts
            else:
                append(self._parse_stmt())

    def _parse_label(self) -> Optional[str]:
        """``( 4 )`` or ``( Entry )`` prefix, if present, also before a
        block terminator.  Unambiguous: no statement begins with ``(``
        otherwise."""
        if self.kind is not _LPAREN:
            return None
        self._advance()
        if self.kind is not _INT and self.kind is not _IDENT:
            raise self._error("statement label must be a number or name", self.tok)
        label = self._advance()[1]
        self._expect(_RPAREN)
        return label

    def _parse_stmt(self) -> ast.Stmt:
        label = self._parse_label()
        kind = self.kind
        if kind is _IDENT:
            return self._parse_assign(label)
        if kind is _IF:
            return self._parse_if(label)
        if kind is TokenKind.LOOP:
            stmt: ast.Stmt = self._parse_loop()
        elif kind is TokenKind.WHILE:
            stmt = self._parse_while()
        elif kind is TokenKind.PARALLEL:
            if self.rows[self.pos + 1][0] is TokenKind.DO:
                stmt = self._parse_parallel_do()
            else:
                stmt = self._parse_parallel_sections()
        elif kind is TokenKind.POST or kind is TokenKind.WAIT or kind is TokenKind.CLEAR:
            stmt = self._parse_sync()
        elif kind is TokenKind.SKIP:
            tok = self._advance()
            stmt = ast.Skip(span=self._span(tok, tok))
            self._end_of_statement()
        else:
            raise self._error(f"expected a statement, found {self.tok[1]!r}", self.tok)
        stmt.label = label
        return stmt

    def _parse_assign(self, label: Optional[str]) -> ast.Assign:
        target = self.tok
        pos = self.pos + 1
        row = self.rows[pos]
        if row[0] is not _ASSIGN:
            raise self._error(f"expected '=', found {row[1]!r}", row)
        self._goto(pos + 1)
        expr = self._parse_expr()
        if self.kind is _NEWLINE:
            self.pos = pos = self.pos + 1
            self.tok = row = self.rows[pos]
            self.kind = row[0]
        else:
            self._end_of_statement()
        span = source_span(self.lines, target[3], target[4])
        return ast.Assign(target=target[1], expr=expr, span=span, label=label)

    def _parse_if(self, label: Optional[str]) -> ast.If:
        start = self.tok
        self._goto(self.pos + 1)
        cond = self._parse_expr()
        self._expect_line(_THEN, "'then'")
        then_body = self._parse_stmt_list()
        else_body: List[ast.Stmt] = []
        end_label = self._parse_label() if self.kind is _LPAREN else None
        if self.kind is _ELSE:
            self._expect_line(_ELSE)
            else_body = self._parse_stmt_list()
            end_label = self._parse_label() if self.kind is _LPAREN else None
        end = self._expect_line(_ENDIF, "'endif'")
        return ast.If(
            cond=cond,
            then_body=then_body,
            else_body=else_body,
            span=self._span(start, end),
            label=label,
            end_label=end_label,
        )

    def _parse_loop(self) -> ast.Loop:
        start = self._expect_line(TokenKind.LOOP)
        body = self._parse_stmt_list()
        end_label = self._parse_label()
        end = self._expect_line(TokenKind.ENDLOOP, "'endloop'")
        return ast.Loop(body=body, span=self._span(start, end), end_label=end_label)

    def _parse_while(self) -> ast.While:
        start = self._advance()
        cond = self._parse_expr()
        self._expect_line(TokenKind.DO, "'do'")
        body = self._parse_stmt_list()
        end_label = self._parse_label()
        end = self._expect_line(TokenKind.ENDWHILE, "'endwhile'")
        return ast.While(cond=cond, body=body, span=self._span(start, end), end_label=end_label)

    def _parse_parallel_sections(self) -> ast.ParallelSections:
        start = self._advance()
        self._expect_line(TokenKind.SECTIONS, "'sections'")
        sections: List[ast.Section] = []
        while True:
            label = None
            if self.kind is _LPAREN and self._label_before(_SECTION):
                label = self._parse_label()
            if self.kind is not TokenKind.SECTION:
                break
            sec_tok = self._advance()
            name = self._expect_line(_IDENT, "section name")[1]
            body = self._parse_stmt_list()
            section = ast.Section(name=name, body=body, span=self._span(sec_tok, sec_tok))
            section.label = label
            sections.append(section)
        if not sections:
            raise self._error("parallel sections must contain at least one section", start)
        names = [s.name for s in sections]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise self._error(f"duplicate section name(s): {', '.join(dupes)}", start)
        end_label = self._parse_label()
        end = self._expect(TokenKind.END, "'end parallel sections'")
        self._expect(TokenKind.PARALLEL, "'parallel'")
        self._expect_line(TokenKind.SECTIONS, "'sections'")
        return ast.ParallelSections(
            sections=sections, span=self._span(start, end), end_label=end_label
        )

    def _parse_parallel_do(self) -> ast.ParallelDo:
        start = self._advance()
        self._advance()  # "do"
        index = self._expect_line(_IDENT, "parallel do index variable")[1]
        body = self._parse_stmt_list()
        end_label = self._parse_label()
        end = self._expect(TokenKind.END, "'end parallel do'")
        self._expect(TokenKind.PARALLEL, "'parallel'")
        self._expect_line(TokenKind.DO, "'do'")
        for stmt in body:
            for inner in stmt.walk():
                if isinstance(inner, ast.Assign) and inner.target == index:
                    raise ParseError(
                        f"parallel do index {index!r} is read-only inside the construct",
                        inner.span,
                    )
        return ast.ParallelDo(index=index, body=body, span=self._span(start, end), end_label=end_label)

    def _parse_sync(self) -> ast.Stmt:
        tok = self._advance()
        self._expect(_LPAREN, "'('")
        event = self._expect(_IDENT, "event name")[1]
        self._expect_line(_RPAREN, "')'")
        span = self._span(tok, tok)
        if tok[0] is TokenKind.POST:
            return ast.Post(event=event, span=span)
        if tok[0] is TokenKind.WAIT:
            return ast.Wait(event=event, span=span)
        return ast.Clear(event=event, span=span)

    # -- expressions ------------------------------------------------------

    def _parse_expr(self, min_power: int = _P_OR) -> ast.Expr:
        """The longest expression at the current token whose binary
        operators all bind at least as tightly as ``min_power``."""
        tok = self.tok
        kind = self.kind
        rows = self.rows
        ceiling = _P_UNARY  # operators binding at this power or tighter may not follow
        if kind is _IDENT or kind is _INT or kind is _TRUE or kind is _FALSE:
            if kind is _IDENT:
                left: ast.Expr = _Var(tok[1])
            elif kind is _INT:
                left = _IntLit(tok[2])  # type: ignore[arg-type]
            else:
                left = ast.BoolLit(kind is _TRUE)
            pos = self.pos + 1
            row = rows[pos]
        elif kind is _LPAREN:
            self._goto(self.pos + 1)
            left = self._parse_expr()
            if self.kind is not _RPAREN:
                self._expect(_RPAREN, "')'")
            pos = self.pos + 1
            row = rows[pos]
        else:
            if kind is _MINUS:
                self._advance()
                left = ast.UnaryOp("-", self._parse_expr(_P_UNARY))
            elif kind is _NOT and min_power <= _P_NOT:
                self._advance()
                left = ast.UnaryOp("not", self._parse_expr(_P_NOT))
                ceiling = _P_NOT
            else:
                raise self._error(f"expected an expression, found {tok[1]!r}", tok)
            pos = self.pos
            row = self.tok
        while True:
            kind = row[0]
            spelling = kind._value_
            power = _BINARY.get(spelling)
            if power is None or power < min_power or power >= ceiling:
                self.pos = pos
                self.tok = row
                self.kind = kind
                return left
            # The right operand, parsed at ``power + 1``; a variable or
            # integer that no tighter operator follows is read in place.
            operand = rows[pos + 1]
            kind = operand[0]
            if (kind is _IDENT or kind is _INT) and (
                (after := _BINARY.get(rows[pos + 2][0]._value_)) is None or after <= power
            ):
                right: ast.Expr = _Var(operand[1]) if kind is _IDENT else _IntLit(operand[2])
                pos += 2
                row = rows[pos]
            else:
                self._goto(pos + 1)
                right = self._parse_expr(power + 1)
                pos = self.pos
                row = self.tok
            left = _BinOp(spelling, left, right)
            # Every tighter operator went to the right operand; a comparison
            # may not follow another.
            ceiling = power if power == _P_CMP else power + 1


def parse_program(source: str) -> ast.Program:
    """Parse complete source text into a :class:`~repro.lang.ast.Program`.

    Traced as a ``parse`` span (source size, scanner rows, program name)
    when an observability session is installed — see :mod:`repro.obs`.
    """
    from ..obs import get_tracer

    tracer = get_tracer()
    with tracer.span("parse", chars=len(source)) as span:
        rows, lines = scan(source)
        span.annotate(tokens=len(rows))
        parser = Parser(rows, lines)
        program = parser.guarded(parser.parse_program)
        span.annotate(program=program.name)
    return program


def parse_expression(source: str) -> ast.Expr:
    """Parse a standalone expression (used by tests and the CLI)."""
    parser = Parser(*scan(source))
    return parser.guarded(parser.parse_expression)
