"""Recursive-descent parser for the toy concrete syntax.

    program  := (stmt | directive)*
    stmt     := IDENT ":=" aexpr ";" | "assert" bexpr ";"
              | "if" "(" bexpr ")" block "else" block
              | "while" "(" bexpr ")" block
              | "par" block block+
              | "#segment" INT block
    block    := "{" stmt* "}"
    directive:= "#outputs" IDENT ("," IDENT)* ";"

"//" starts a comment that runs to end of line.  Each statement that
carries a label gets the next one when its head token is read, which is
preorder.  "#outputs" and "#segment" are recorded as metadata on the
returned SourceFile; the parser is the one place that checks the segment
marker rules.  An expression may nest at most MAX_EXPR_DEPTH levels, in
its tree and in its parentheses and unary operators, since every later
walker recurses once per level.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass

from .errors import (DuplicateSegmentId, EmptySegment, NestedSegments,
                     ParseError, SegmentInsidePar)
from .syntax import (Assert, Assign, BinOp, BoolLit, BoolOp, Cmp, Empty, If,
                     IntLit, Neg, Not, Par, Program, Var, While, expr_depth,
                     seq_of)

MAX_EXPR_DEPTH = 100

KEYWORDS = {"assert", "if", "else", "while", "par", "true", "false"}

_TOKEN_RE = re.compile(r"""
    (?P<ws>[ \t\r\n]+)
  | (?P<comment>//[^\n]*)
  | (?P<int>\d+)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<directive>\#[A-Za-z]+)
  | (?P<op>:=|==|!=|<=|>=|&&|\|\||[+\-*<>!(){},;])
""", re.VERBOSE)


@dataclass(frozen=True)
class Token:
    kind: str  # "int" | "ident" | "directive" | "op" | "eof"
    text: str
    line: int
    column: int


def tokenize(text: str) -> list[Token]:
    tokens = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise ParseError("unexpected character %r" % text[pos], line, col)
        kind = match.lastgroup
        value = match.group()
        if kind not in ("ws", "comment"):
            tokens.append(Token(kind, value, line, col))
        newlines = value.count("\n")
        if newlines:
            line += newlines
            col = len(value) - value.rfind("\n")
        else:
            col += len(value)
        pos = match.end()
    tokens.append(Token("eof", "", line, col))
    return tokens


@dataclass(frozen=True)
class SourceFile:
    program: Program
    outputs: tuple[str, ...]
    segments: dict[int, Program]  # segment id -> its body, a node of `program`


def _too_deep(tok: Token, limit: int) -> ParseError:
    return ParseError("expression nested deeper than %d levels" % limit,
                      tok.line, tok.column)


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0
        self.outputs: list[str] = []
        self.segments: dict[int, Program] = {}
        self.labels = itertools.count(1)
        self.par_depth = 0
        self.in_segment = False
        self.nesting = 0  # open parentheses and unary operators

    # -- token helpers ----------------------------------------------------

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, text: str | None = None) -> Token:
        tok = self.peek()
        if tok.kind != kind or (text is not None and tok.text != text):
            want = text if text is not None else kind
            raise ParseError("expected %r, found %r" % (want, tok.text or "end of input"),
                             tok.line, tok.column)
        return self.advance()

    def labelled_head(self) -> int:
        """Consume a statement's head token and give the statement its label."""
        self.advance()
        return next(self.labels)

    def at_op(self, text: str) -> bool:
        tok = self.peek()
        return tok.kind == "op" and tok.text == text

    def bounded(self, parse, limit: int = MAX_EXPR_DEPTH):
        """parse() a whole expression and check the depth of its tree, which
        is at most the number of its tokens."""
        start = self.pos
        tok = self.peek()
        expr = parse()
        if self.pos - start > limit and expr_depth(expr) > limit:
            raise _too_deep(tok, limit)
        return expr

    def nested(self, parse):
        """parse() the operand of a parenthesis or unary operator, which the
        parser reaches by recursion."""
        if self.nesting >= MAX_EXPR_DEPTH:
            raise _too_deep(self.peek(), MAX_EXPR_DEPTH)
        self.nesting += 1
        try:
            return parse()
        finally:
            self.nesting -= 1

    # -- grammar ----------------------------------------------------------

    def parse_program(self) -> Program:
        stmts = []
        while self.peek().kind != "eof":
            if self.peek().kind == "directive" and self.peek().text == "#outputs":
                self.parse_outputs()
            else:
                stmts.append(self.parse_stmt())
        return seq_of(stmts)

    def parse_outputs(self):
        self.expect("directive", "#outputs")
        self.outputs.append(self.expect("ident").text)
        while self.at_op(","):
            self.advance()
            self.outputs.append(self.expect("ident").text)
        self.expect("op", ";")

    def parse_block(self) -> Program:
        self.expect("op", "{")
        stmts = []
        while not self.at_op("}"):
            if self.peek().kind == "eof":
                tok = self.peek()
                raise ParseError("unterminated block", tok.line, tok.column)
            stmts.append(self.parse_stmt())
        self.expect("op", "}")
        return seq_of(stmts)

    def parse_stmt(self) -> Program:
        tok = self.peek()
        if tok.kind == "directive":
            if tok.text == "#segment":
                return self.parse_segment()
            raise ParseError("unknown directive %r" % tok.text, tok.line, tok.column)
        if tok.kind == "ident" and tok.text not in KEYWORDS:
            label = self.labelled_head()
            self.expect("op", ":=")
            expr = self.bounded(self.parse_aexpr)
            self.expect("op", ";")
            return Assign(label, tok.text, expr)
        if tok.kind == "ident" and tok.text == "assert":
            label = self.labelled_head()
            # One level below the bound: a task turns `assert b` into
            # `while (!(b)) {}`, and must read back.
            cond = self.bounded(self.parse_bexpr, MAX_EXPR_DEPTH - 1)
            self.expect("op", ";")
            return Assert(label, cond)
        if tok.kind == "ident" and tok.text == "if":
            label = self.labelled_head()
            self.expect("op", "(")
            cond = self.bounded(self.parse_bexpr)
            self.expect("op", ")")
            then_branch = self.parse_block()
            self.expect("ident", "else")
            else_branch = self.parse_block()
            return If(label, cond, then_branch, else_branch)
        if tok.kind == "ident" and tok.text == "while":
            label = self.labelled_head()
            self.expect("op", "(")
            cond = self.bounded(self.parse_bexpr)
            self.expect("op", ")")
            body = self.parse_block()
            return While(label, cond, body)
        if tok.kind == "ident" and tok.text == "par":
            self.advance()
            self.par_depth += 1
            branches = [self.parse_block()]
            while self.at_op("{"):
                branches.append(self.parse_block())
            self.par_depth -= 1
            return Par(tuple(branches))
        raise ParseError("expected a statement, found %r" % (tok.text or "end of input"),
                         tok.line, tok.column)

    def parse_segment(self) -> Program:
        tok = self.expect("directive", "#segment")
        seg_id = int(self.expect("int").text)
        if self.par_depth > 0:
            raise SegmentInsidePar("segment %d occurs inside a parallel statement "
                                   "(line %d)" % (seg_id, tok.line))
        if seg_id in self.segments:
            raise DuplicateSegmentId("segment id %d used more than once (line %d)"
                                     % (seg_id, tok.line))
        if self.in_segment:
            raise NestedSegments("segment %d is nested inside another segment "
                                 "(line %d)" % (seg_id, tok.line))
        self.in_segment = True
        body = self.parse_block()
        self.in_segment = False
        if isinstance(body, Empty):
            raise EmptySegment("segment %d has an empty body (line %d)"
                               % (seg_id, tok.line))
        # The body stays a self-contained subprogram node in the tree, and
        # is recorded as that very node.
        self.segments[seg_id] = body
        return body

    # -- expressions ------------------------------------------------------

    def parse_aexpr(self):
        return self.parse_additive()

    def parse_additive(self):
        left = self.parse_multiplicative()
        while self.at_op("+") or self.at_op("-"):
            op = self.advance().text
            left = BinOp(op, left, self.parse_multiplicative())
        return left

    def parse_multiplicative(self):
        left = self.parse_aatom()
        while self.at_op("*"):
            self.advance()
            left = BinOp("*", left, self.parse_aatom())
        return left

    def parse_aatom(self):
        tok = self.peek()
        if tok.kind == "int":
            self.advance()
            return IntLit(int(tok.text))
        if tok.kind == "ident" and tok.text not in KEYWORDS:
            self.advance()
            return Var(tok.text)
        if self.at_op("-"):
            self.advance()
            operand = self.nested(self.parse_aatom)
            # Fold negated literals so "-3" round-trips as the literal -3.
            if isinstance(operand, IntLit):
                return IntLit(-operand.value)
            return Neg(operand)
        if self.at_op("("):
            self.advance()
            expr = self.nested(self.parse_aexpr)
            self.expect("op", ")")
            return expr
        raise ParseError("expected an arithmetic expression, found %r"
                         % (tok.text or "end of input"), tok.line, tok.column)

    _CMP_OPS = ("==", "!=", "<=", ">=", "<", ">")

    def parse_bexpr(self):
        left = self.parse_conjunction()
        while self.at_op("||"):
            self.advance()
            left = BoolOp("||", left, self.parse_conjunction())
        return left

    def parse_conjunction(self):
        left = self.parse_batom()
        while self.at_op("&&"):
            self.advance()
            left = BoolOp("&&", left, self.parse_batom())
        return left

    def parse_batom(self):
        tok = self.peek()
        if tok.kind == "ident" and tok.text in ("true", "false"):
            self.advance()
            return BoolLit(tok.text == "true")
        if self.at_op("!"):
            self.advance()
            return Not(self.nested(self.parse_batom))
        if self.at_op("("):
            # Ambiguous: "(" may open a parenthesized bexpr or the left
            # aexpr of a comparison.  Try the bexpr reading first.
            saved = self.pos
            self.advance()
            try:
                inner = self.nested(self.parse_bexpr)
                self.expect("op", ")")
                return inner
            except ParseError:
                self.pos = saved
        return self.parse_comparison()

    def parse_comparison(self):
        left = self.parse_aexpr()
        tok = self.peek()
        if tok.kind == "op" and tok.text in self._CMP_OPS:
            self.advance()
            return Cmp(tok.text, left, self.parse_aexpr())
        raise ParseError("expected a comparison operator, found %r"
                         % (tok.text or "end of input"), tok.line, tok.column)


def parse(text: str) -> SourceFile:
    """Parse source text into a program plus directive metadata."""
    parser = _Parser(tokenize(text))
    program = parser.parse_program()
    return SourceFile(program, tuple(dict.fromkeys(parser.outputs)),
                      parser.segments)


def parse_program(text: str) -> Program:
    """Parse source text that carries no directives and return the program."""
    return parse(text).program
