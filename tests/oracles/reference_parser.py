"""Reference parser: the original recursive descent over ``Token`` lists.

``repro.lang.parser`` reads scanner rows, keeps the current token in
attributes, climbs operator precedence and builds a ``SourceSpan`` only
for the tokens an AST node or an error keeps; this is the parser it
replaced, kept verbatim and driven by the reference char-by-char lexer,
so the oracle tests can assert both give the same AST (every field,
spans included) or the same ``LangError``.
"""

from __future__ import annotations

from typing import List, Optional

from repro.lang import ast
from repro.lang.errors import ParseError
from repro.lang.tokens import Token, TokenKind

from .reference_lexer import reference_tokenize

_COMPARISONS = {
    TokenKind.EQ: "==",
    TokenKind.NE: "/=",
    TokenKind.LT: "<",
    TokenKind.LE: "<=",
    TokenKind.GT: ">",
    TokenKind.GE: ">=",
}
_ADDITIVE = {TokenKind.PLUS: "+", TokenKind.MINUS: "-"}
_MULTIPLICATIVE = {TokenKind.STAR: "*", TokenKind.SLASH: "/", TokenKind.PERCENT: "%"}

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


class Parser:
    """One-token-lookahead recursive-descent parser."""

    def __init__(self, tokens: List[Token]):
        self.tokens = tokens
        self.pos = 0

    # -- token plumbing ---------------------------------------------------

    def _peek(self, offset: int = 0) -> Token:
        idx = min(self.pos + offset, len(self.tokens) - 1)
        return self.tokens[idx]

    def _at(self, *kinds: TokenKind) -> bool:
        return self._peek().kind in kinds

    def _advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind is not TokenKind.EOF:
            self.pos += 1
        return tok

    def _expect(self, kind: TokenKind, what: str = "") -> Token:
        tok = self._peek()
        if tok.kind is not kind:
            wanted = what or kind.value
            raise ParseError(f"expected {wanted}, found {tok.text!r}", tok.span)
        return self._advance()

    def _skip_newlines(self) -> None:
        while self._at(TokenKind.NEWLINE):
            self._advance()

    def _end_of_statement(self) -> None:
        if self._at(TokenKind.NEWLINE):
            self._advance()
            self._skip_newlines()
        elif not self._at(TokenKind.EOF):
            tok = self._peek()
            raise ParseError(f"expected end of statement, found {tok.text!r}", tok.span)

    # -- program ----------------------------------------------------------

    def parse_program(self) -> ast.Program:
        self._skip_newlines()
        start = self._expect(TokenKind.PROGRAM).span
        name = self._expect(TokenKind.IDENT, "program name").text
        self._end_of_statement()

        events: List[str] = []
        while self._at(TokenKind.EVENT):
            self._advance()
            events.append(self._expect(TokenKind.IDENT, "event name").text)
            while self._at(TokenKind.COMMA):
                self._advance()
                events.append(self._expect(TokenKind.IDENT, "event name").text)
            self._end_of_statement()
        if len(set(events)) != len(events):
            dupes = sorted({e for e in events if events.count(e) > 1})
            raise ParseError(f"duplicate event declaration(s): {', '.join(dupes)}", start)

        body = self._parse_stmt_list()
        self._parse_end_label()  # a label on 'end program' is allowed, unused
        end_tok = self._expect(TokenKind.END, "'end' / 'end program'")
        if self._at(TokenKind.PROGRAM):
            self._advance()
        self._skip_newlines()
        self._expect(TokenKind.EOF, "end of file")
        span = start.merge(end_tok.span)
        return ast.Program(name=name, events=events, body=body, span=span)

    # -- statements -------------------------------------------------------

    def _at_block_end(self) -> bool:
        """True at a block-terminating keyword, possibly behind a label
        (the paper labels terminators: ``(6) endif``, ``(11) end parallel
        sections``)."""
        if self._at(*_BLOCK_ENDERS):
            return True
        if (
            self._at(TokenKind.LPAREN)
            and self._peek(1).kind in (TokenKind.INT, TokenKind.IDENT)
            and self._peek(2).kind is TokenKind.RPAREN
            and self._peek(3).kind in _BLOCK_ENDERS
        ):
            return True
        return False

    def _parse_end_label(self) -> Optional[str]:
        """Consume a label that precedes a block terminator, if present."""
        if self._at(TokenKind.LPAREN):
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
        if not self._at(TokenKind.LPAREN):
            return None
        self._advance()
        tok = self._peek()
        if tok.kind in (TokenKind.INT, TokenKind.IDENT):
            self._advance()
            label = tok.text
        else:
            raise ParseError("statement label must be a number or name", tok.span)
        self._expect(TokenKind.RPAREN)
        return label

    def _parse_stmt(self) -> ast.Stmt:
        label = self._parse_label()
        tok = self._peek()
        if tok.kind is TokenKind.IDENT:
            stmt: ast.Stmt = self._parse_assign()
        elif tok.kind is TokenKind.IF:
            stmt = self._parse_if()
        elif tok.kind is TokenKind.LOOP:
            stmt = self._parse_loop()
        elif tok.kind is TokenKind.WHILE:
            stmt = self._parse_while()
        elif tok.kind is TokenKind.PARALLEL:
            if self._peek(1).kind is TokenKind.DO:
                stmt = self._parse_parallel_do()
            else:
                stmt = self._parse_parallel_sections()
        elif tok.kind in (TokenKind.POST, TokenKind.WAIT, TokenKind.CLEAR):
            stmt = self._parse_sync()
        elif tok.kind is TokenKind.SKIP:
            self._advance()
            stmt = ast.Skip(span=tok.span)
            self._end_of_statement()
        else:
            raise ParseError(f"expected a statement, found {tok.text!r}", tok.span)
        stmt.label = label
        return stmt

    def _parse_assign(self) -> ast.Assign:
        target = self._expect(TokenKind.IDENT)
        self._expect(TokenKind.ASSIGN, "'='")
        expr = self._parse_expr()
        span = target.span
        self._end_of_statement()
        return ast.Assign(target=target.text, expr=expr, span=span)

    def _parse_if(self) -> ast.If:
        start = self._expect(TokenKind.IF).span
        cond = self._parse_expr()
        self._expect(TokenKind.THEN, "'then'")
        self._end_of_statement()
        then_body = self._parse_stmt_list()
        else_body: List[ast.Stmt] = []
        end_label = self._parse_end_label()
        if self._at(TokenKind.ELSE):
            self._advance()
            self._end_of_statement()
            else_body = self._parse_stmt_list()
            end_label = self._parse_end_label()
        end = self._expect(TokenKind.ENDIF, "'endif'").span
        self._end_of_statement()
        return ast.If(
            cond=cond,
            then_body=then_body,
            else_body=else_body,
            span=start.merge(end),
            end_label=end_label,
        )

    def _parse_loop(self) -> ast.Loop:
        start = self._expect(TokenKind.LOOP).span
        self._end_of_statement()
        body = self._parse_stmt_list()
        end_label = self._parse_end_label()
        end = self._expect(TokenKind.ENDLOOP, "'endloop'").span
        self._end_of_statement()
        return ast.Loop(body=body, span=start.merge(end), end_label=end_label)

    def _parse_while(self) -> ast.While:
        start = self._expect(TokenKind.WHILE).span
        cond = self._parse_expr()
        self._expect(TokenKind.DO, "'do'")
        self._end_of_statement()
        body = self._parse_stmt_list()
        end_label = self._parse_end_label()
        end = self._expect(TokenKind.ENDWHILE, "'endwhile'").span
        self._end_of_statement()
        return ast.While(cond=cond, body=body, span=start.merge(end), end_label=end_label)

    def _parse_parallel_sections(self) -> ast.ParallelSections:
        start = self._expect(TokenKind.PARALLEL).span
        self._expect(TokenKind.SECTIONS, "'sections'")
        self._end_of_statement()
        sections: List[ast.Section] = []
        while True:
            self._skip_newlines()
            label = None
            if (
                self._at(TokenKind.LPAREN)
                and self._peek(1).kind in (TokenKind.INT, TokenKind.IDENT)
                and self._peek(2).kind is TokenKind.RPAREN
                and self._peek(3).kind is TokenKind.SECTION
            ):
                label = self._parse_label()
            if not self._at(TokenKind.SECTION):
                break
            sec_tok = self._advance()
            name = self._expect(TokenKind.IDENT, "section name").text
            self._end_of_statement()
            body = self._parse_stmt_list()
            section = ast.Section(name=name, body=body, span=sec_tok.span)
            section.label = label
            sections.append(section)
        if not sections:
            raise ParseError("parallel sections must contain at least one section", start)
        names = [s.name for s in sections]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise ParseError(f"duplicate section name(s): {', '.join(dupes)}", start)
        end_label = self._parse_end_label()
        end = self._expect(TokenKind.END, "'end parallel sections'").span
        self._expect(TokenKind.PARALLEL, "'parallel'")
        self._expect(TokenKind.SECTIONS, "'sections'")
        self._end_of_statement()
        return ast.ParallelSections(sections=sections, span=start.merge(end), end_label=end_label)

    def _parse_parallel_do(self) -> ast.ParallelDo:
        start = self._expect(TokenKind.PARALLEL).span
        self._expect(TokenKind.DO, "'do'")
        index = self._expect(TokenKind.IDENT, "parallel do index variable").text
        self._end_of_statement()
        body = self._parse_stmt_list()
        end_label = self._parse_end_label()
        end = self._expect(TokenKind.END, "'end parallel do'").span
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
        return ast.ParallelDo(index=index, body=body, span=start.merge(end), end_label=end_label)

    def _parse_sync(self) -> ast.Stmt:
        tok = self._advance()
        self._expect(TokenKind.LPAREN, "'('")
        event = self._expect(TokenKind.IDENT, "event name").text
        self._expect(TokenKind.RPAREN, "')'")
        self._end_of_statement()
        if tok.kind is TokenKind.POST:
            return ast.Post(event=event, span=tok.span)
        if tok.kind is TokenKind.WAIT:
            return ast.Wait(event=event, span=tok.span)
        return ast.Clear(event=event, span=tok.span)

    # -- expressions ------------------------------------------------------

    def _parse_expr(self) -> ast.Expr:
        return self._parse_or()

    def _parse_or(self) -> ast.Expr:
        left = self._parse_and()
        while self._at(TokenKind.OR):
            self._advance()
            left = ast.BinOp("or", left, self._parse_and())
        return left

    def _parse_and(self) -> ast.Expr:
        left = self._parse_not()
        while self._at(TokenKind.AND):
            self._advance()
            left = ast.BinOp("and", left, self._parse_not())
        return left

    def _parse_not(self) -> ast.Expr:
        if self._at(TokenKind.NOT):
            self._advance()
            return ast.UnaryOp("not", self._parse_not())
        return self._parse_comparison()

    def _parse_comparison(self) -> ast.Expr:
        left = self._parse_additive()
        if self._peek().kind in _COMPARISONS:
            op = _COMPARISONS[self._advance().kind]
            return ast.BinOp(op, left, self._parse_additive())
        return left

    def _parse_additive(self) -> ast.Expr:
        left = self._parse_multiplicative()
        while self._peek().kind in _ADDITIVE:
            op = _ADDITIVE[self._advance().kind]
            left = ast.BinOp(op, left, self._parse_multiplicative())
        return left

    def _parse_multiplicative(self) -> ast.Expr:
        left = self._parse_unary()
        while self._peek().kind in _MULTIPLICATIVE:
            op = _MULTIPLICATIVE[self._advance().kind]
            left = ast.BinOp(op, left, self._parse_unary())
        return left

    def _parse_unary(self) -> ast.Expr:
        if self._at(TokenKind.MINUS):
            self._advance()
            return ast.UnaryOp("-", self._parse_unary())
        return self._parse_primary()

    def _parse_primary(self) -> ast.Expr:
        tok = self._peek()
        if tok.kind is TokenKind.INT:
            self._advance()
            return ast.IntLit(tok.value)  # type: ignore[arg-type]
        if tok.kind is TokenKind.TRUE:
            self._advance()
            return ast.BoolLit(True)
        if tok.kind is TokenKind.FALSE:
            self._advance()
            return ast.BoolLit(False)
        if tok.kind is TokenKind.IDENT:
            self._advance()
            return ast.Var(tok.text)
        if tok.kind is TokenKind.LPAREN:
            self._advance()
            inner = self._parse_expr()
            self._expect(TokenKind.RPAREN, "')'")
            return inner
        raise ParseError(f"expected an expression, found {tok.text!r}", tok.span)


def reference_parse_program(source: str) -> ast.Program:
    """Parse complete source text into a :class:`~repro.lang.ast.Program`."""
    return Parser(reference_tokenize(source)).parse_program()


def reference_parse_expression(source: str) -> ast.Expr:
    """Parse a standalone expression."""
    parser = Parser(reference_tokenize(source))
    expr = parser._parse_expr()
    parser._skip_newlines()
    parser._expect(TokenKind.EOF, "end of expression")
    return expr
