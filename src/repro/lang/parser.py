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
_LPAREN = TokenKind.LPAREN
_RPAREN = TokenKind.RPAREN
_NEWLINE = TokenKind.NEWLINE
_EOF = TokenKind.EOF
_MINUS = TokenKind.MINUS
_NOT = TokenKind.NOT
_TRUE = TokenKind.TRUE
_FALSE = TokenKind.FALSE

# Binding powers, loosest first.  A binary operator's right operand is
# parsed at one more than its own power; a prefix operator's operand at
# the operator's power.
_P_OR, _P_AND, _P_NOT, _P_CMP, _P_ADD, _P_MUL, _P_UNARY = range(1, 8)

#: Binary operator kind -> (binding power, spelling in the AST).
_BINARY = {
    TokenKind.OR: (_P_OR, "or"),
    TokenKind.AND: (_P_AND, "and"),
    TokenKind.EQ: (_P_CMP, "=="),
    TokenKind.NE: (_P_CMP, "/="),
    TokenKind.LT: (_P_CMP, "<"),
    TokenKind.LE: (_P_CMP, "<="),
    TokenKind.GT: (_P_CMP, ">"),
    TokenKind.GE: (_P_CMP, ">="),
    TokenKind.PLUS: (_P_ADD, "+"),
    TokenKind.MINUS: (_P_ADD, "-"),
    TokenKind.STAR: (_P_MUL, "*"),
    TokenKind.SLASH: (_P_MUL, "/"),
    TokenKind.PERCENT: (_P_MUL, "%"),
}

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
    """One-token-lookahead parser over scanner rows."""

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

    def _expect(self, kind: TokenKind, what: str = "") -> Row:
        if self.kind is not kind:
            wanted = what or kind.value
            raise self._error(f"expected {wanted}, found {self.tok[1]!r}", self.tok)
        return self._advance()

    def _skip_newlines(self) -> None:
        while self.kind is _NEWLINE:
            self._advance()

    def _end_of_statement(self) -> None:
        if self.kind is _NEWLINE:
            self._advance()
            self._skip_newlines()
        elif self.kind is not _EOF:
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
        self._parse_end_label()  # a label on 'end program' is allowed, unused
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

    def _at_block_end(self) -> bool:
        """True at a block-terminating keyword, possibly behind a label
        (the paper labels terminators: ``(6) endif``, ``(11) end parallel
        sections``)."""
        kind = self.kind
        if kind in _BLOCK_ENDERS:
            return True
        return kind is _LPAREN and self._label_before(_BLOCK_ENDERS)

    def _parse_end_label(self) -> Optional[str]:
        """Consume a label that precedes a block terminator, if present."""
        if self.kind is _LPAREN:
            return self._parse_label()
        return None

    def _parse_stmt_list(self) -> List[ast.Stmt]:
        stmts: List[ast.Stmt] = []
        self._skip_newlines()
        while not self._at_block_end():
            stmts.append(self._parse_stmt())
        return stmts

    def _parse_label(self) -> Optional[str]:
        """``( 4 )`` or ``( Entry )`` prefix.  Unambiguous: no statement
        begins with ``(`` otherwise."""
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
            stmt: ast.Stmt = self._parse_assign()
        elif kind is TokenKind.IF:
            stmt = self._parse_if()
        elif kind is TokenKind.LOOP:
            stmt = self._parse_loop()
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

    def _parse_assign(self) -> ast.Assign:
        target = self._advance()
        self._expect(TokenKind.ASSIGN, "'='")
        expr = self._parse_expr()
        self._end_of_statement()
        return ast.Assign(target=target[1], expr=expr, span=self._span(target, target))

    def _parse_if(self) -> ast.If:
        start = self._advance()
        cond = self._parse_expr()
        self._expect(TokenKind.THEN, "'then'")
        self._end_of_statement()
        then_body = self._parse_stmt_list()
        else_body: List[ast.Stmt] = []
        end_label = self._parse_end_label()
        if self.kind is TokenKind.ELSE:
            self._advance()
            self._end_of_statement()
            else_body = self._parse_stmt_list()
            end_label = self._parse_end_label()
        end = self._expect(TokenKind.ENDIF, "'endif'")
        self._end_of_statement()
        return ast.If(
            cond=cond,
            then_body=then_body,
            else_body=else_body,
            span=self._span(start, end),
            end_label=end_label,
        )

    def _parse_loop(self) -> ast.Loop:
        start = self._advance()
        self._end_of_statement()
        body = self._parse_stmt_list()
        end_label = self._parse_end_label()
        end = self._expect(TokenKind.ENDLOOP, "'endloop'")
        self._end_of_statement()
        return ast.Loop(body=body, span=self._span(start, end), end_label=end_label)

    def _parse_while(self) -> ast.While:
        start = self._advance()
        cond = self._parse_expr()
        self._expect(TokenKind.DO, "'do'")
        self._end_of_statement()
        body = self._parse_stmt_list()
        end_label = self._parse_end_label()
        end = self._expect(TokenKind.ENDWHILE, "'endwhile'")
        self._end_of_statement()
        return ast.While(cond=cond, body=body, span=self._span(start, end), end_label=end_label)

    def _parse_parallel_sections(self) -> ast.ParallelSections:
        start = self._advance()
        self._expect(TokenKind.SECTIONS, "'sections'")
        self._end_of_statement()
        sections: List[ast.Section] = []
        while True:
            self._skip_newlines()
            label = None
            if self.kind is _LPAREN and self._label_before(_SECTION):
                label = self._parse_label()
            if self.kind is not TokenKind.SECTION:
                break
            sec_tok = self._advance()
            name = self._expect(_IDENT, "section name")[1]
            self._end_of_statement()
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
        end_label = self._parse_end_label()
        end = self._expect(TokenKind.END, "'end parallel sections'")
        self._expect(TokenKind.PARALLEL, "'parallel'")
        self._expect(TokenKind.SECTIONS, "'sections'")
        self._end_of_statement()
        return ast.ParallelSections(
            sections=sections, span=self._span(start, end), end_label=end_label
        )

    def _parse_parallel_do(self) -> ast.ParallelDo:
        start = self._advance()
        self._advance()  # "do"
        index = self._expect(_IDENT, "parallel do index variable")[1]
        self._end_of_statement()
        body = self._parse_stmt_list()
        end_label = self._parse_end_label()
        end = self._expect(TokenKind.END, "'end parallel do'")
        self._expect(TokenKind.PARALLEL, "'parallel'")
        self._expect(TokenKind.DO, "'do'")
        self._end_of_statement()
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
        self._expect(_RPAREN, "')'")
        self._end_of_statement()
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
        ceiling = _P_UNARY  # operators binding at this power or tighter may not follow
        if kind is _IDENT:
            self._advance()
            left: ast.Expr = ast.Var(tok[1])
        elif kind is _INT:
            self._advance()
            left = ast.IntLit(tok[2])  # type: ignore[arg-type]
        elif kind is _LPAREN:
            self._advance()
            left = self._parse_expr()
            self._expect(_RPAREN, "')'")
        elif kind is _MINUS:
            self._advance()
            left = ast.UnaryOp("-", self._parse_expr(_P_UNARY))
        elif kind is _NOT and min_power <= _P_NOT:
            self._advance()
            left = ast.UnaryOp("not", self._parse_expr(_P_NOT))
            ceiling = _P_NOT
        elif kind is _TRUE:
            self._advance()
            left = ast.BoolLit(True)
        elif kind is _FALSE:
            self._advance()
            left = ast.BoolLit(False)
        else:
            raise self._error(f"expected an expression, found {tok[1]!r}", tok)
        while True:
            op = _BINARY.get(self.kind)
            if op is None:
                return left
            power, spelling = op
            if power < min_power or power >= ceiling:
                return left
            self._advance()
            left = ast.BinOp(spelling, left, self._parse_expr(power + 1))
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
