"""Abstract syntax for the toy imperative language.

Programs are immutable trees.  A program is either the empty program,
a basic statement (assignment or assertion), a compound statement
(if/while/parallel), or a sequential composition of two programs.
Every basic statement and compound head carries an integer label that is
unique within the program it was parsed into; labels let us identify
subprograms unambiguously and survive variable renaming.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, field, fields, replace
from typing import Iterator, Mapping, Union


def _node(cls):
    """Declare an immutable tree node: a frozen, slotted dataclass that
    computes its structural hash on first use and keeps it in a `_hash`
    slot, so a visited set hashes each node once, not on every lookup.

    The hash is the dataclass one, of the tuple of the fields.  A class that
    defines its own `__hash__` keeps it."""
    cls.__annotations__ = {**cls.__dict__.get("__annotations__", {}),
                           "_hash": "int | None"}
    cls._hash = field(default=None, init=False, repr=False, compare=False)
    own_hash = "__hash__" in cls.__dict__
    cls = dataclass(frozen=True, slots=True)(cls)
    if not own_hash:
        names = [f.name for f in fields(cls) if f.compare]
        key = (operator.attrgetter(*names) if len(names) > 1
               else lambda self: tuple([getattr(self, name) for name in names]))

        def __hash__(self):
            value = self._hash
            if value is None:
                value = hash(key(self))
                object.__setattr__(self, "_hash", value)
            return value

        cls.__hash__ = __hash__
    return cls


# ---------------------------------------------------------------------------
# Expressions

@_node
class IntLit:
    value: int


@_node
class Var:
    name: str


@_node
class Neg:
    operand: "AExpr"


@_node
class BinOp:
    op: str  # "+", "-", "*"
    left: "AExpr"
    right: "AExpr"


AExpr = Union[IntLit, Var, Neg, BinOp]


@_node
class BoolLit:
    value: bool


@_node
class Cmp:
    op: str  # "==", "!=", "<", "<=", ">", ">="
    left: AExpr
    right: AExpr


@_node
class Not:
    operand: "BExpr"


@_node
class BoolOp:
    op: str  # "&&", "||"
    left: "BExpr"
    right: "BExpr"


BExpr = Union[BoolLit, Cmp, Not, BoolOp]


# ---------------------------------------------------------------------------
# Programs

@_node
class Empty:
    pass


@_node
class Assign:
    label: int
    var: str
    expr: AExpr


@_node
class Assert:
    label: int
    cond: BExpr


@_node
class If:
    label: int
    cond: BExpr
    then_branch: "Program"
    else_branch: "Program"


@_node
class While:
    label: int
    cond: BExpr
    body: "Program"


@_node
class Seq:
    first: "Program"
    rest: "Program"

    def __hash__(self):
        if self._hash is None:
            # Hash the not yet hashed part of the spine bottom-up, in a loop,
            # so that no first hash recurses down a sequence.
            spine = [self]
            node = self.rest
            while node.__class__ is Seq and node._hash is None:
                spine.append(node)
                node = node.rest
            for node in reversed(spine):
                object.__setattr__(node, "_hash", hash((node.first, node.rest)))
        return self._hash

    def __eq__(self, other):
        if other.__class__ is not Seq:
            return NotImplemented
        # Compare along the spines in a loop, so that no comparison recurses
        # down a sequence.
        a, b = self, other
        while a.__class__ is Seq and b.__class__ is Seq:
            if a is b:
                return True
            if a.first is not b.first and a.first != b.first:
                return False
            a, b = a.rest, b.rest
        return a is b or a == b


@_node
class Par:
    branches: tuple["Program", ...]

    def __post_init__(self):
        if len(self.branches) < 1:
            raise ValueError("parallel statement needs at least one branch")


Program = Union[Empty, Assign, Assert, If, While, Seq, Par]

EMPTY = Empty()


def seq_of(stmts) -> Program:
    """Right-nested sequence ending in the empty program."""
    prog: Program = EMPTY
    for stmt in reversed(list(stmts)):
        prog = Seq(stmt, prog)
    return prog


def stmts_of(prog: Program) -> list[Program]:
    """Flatten nested sequential composition into a statement list.

    Iterative, so spines of any length are fine."""
    out: list[Program] = []
    stack = [prog]
    while stack:
        node = stack.pop()
        if isinstance(node, Seq):
            stack += (node.rest, node.first)
        elif not isinstance(node, Empty):
            out.append(node)
    return out


# ---------------------------------------------------------------------------
# Tree walking

def children(prog: Program) -> tuple[Program, ...]:
    """The direct subprograms of `prog`, first to last."""
    if isinstance(prog, Seq):
        return (prog.first, prog.rest)
    if isinstance(prog, If):
        return (prog.then_branch, prog.else_branch)
    if isinstance(prog, While):
        return (prog.body,)
    if isinstance(prog, Par):
        return prog.branches
    if isinstance(prog, (Empty, Assign, Assert)):
        return ()
    raise TypeError("not a program: %r" % (prog,))


def nodes(prog: Program) -> Iterator[Program]:
    """Every subprogram of `prog`, itself first, in preorder.

    Iterative, so spines of any length are fine."""
    stack = [prog]
    while stack:
        node = stack.pop()
        yield node
        # Sequences and leaves are most of a tree: skip the call for them.
        if isinstance(node, Seq):
            stack += (node.rest, node.first)
        elif not isinstance(node, (Empty, Assign, Assert)):
            stack.extend(reversed(children(node)))


def map_program(prog: Program, fn) -> Program:
    """Rebuild `prog` top-down, first child to last (preorder).

    `fn(node)` returns `(new, descend)`: `new` takes the place of `node`,
    and when `descend` is true the children of `new` are rebuilt the same
    way.  Loops along each `Seq` spine and recurses once per nesting level
    of blocks, so only the nesting of blocks bounds the depth.
    """
    firsts = []
    new, descend = fn(prog)
    while descend and isinstance(new, Seq):
        firsts.append(map_program(new.first, fn))
        new, descend = fn(new.rest)
    if not descend or isinstance(new, (Empty, Assign, Assert)):
        pass
    elif isinstance(new, If):
        new = If(new.label, new.cond, map_program(new.then_branch, fn),
                 map_program(new.else_branch, fn))
    elif isinstance(new, While):
        new = While(new.label, new.cond, map_program(new.body, fn))
    elif isinstance(new, Par):
        new = Par(tuple(map_program(b, fn) for b in new.branches))
    else:
        raise TypeError("not a program: %r" % (new,))
    for first in reversed(firsts):
        new = Seq(first, new)
    return new


# ---------------------------------------------------------------------------
# Variable collection

def vars_of_expr(expr) -> frozenset[str]:
    if isinstance(expr, (IntLit, BoolLit)):
        return frozenset()
    if isinstance(expr, Var):
        return frozenset({expr.name})
    if isinstance(expr, (Neg, Not)):
        return vars_of_expr(expr.operand)
    if isinstance(expr, (BinOp, Cmp, BoolOp)):
        return vars_of_expr(expr.left) | vars_of_expr(expr.right)
    raise TypeError("not an expression: %r" % (expr,))


def expr_depth(expr) -> int:
    """Levels of an expression tree, 1 for a literal or a variable; counted
    without recursion."""
    depth, stack = 0, [(expr, 1)]
    while stack:
        node, level = stack.pop()
        depth = max(depth, level)
        if isinstance(node, (Neg, Not)):
            stack.append((node.operand, level + 1))
        elif isinstance(node, (BinOp, Cmp, BoolOp)):
            stack += ((node.left, level + 1), (node.right, level + 1))
    return depth


def vars_of(prog: Program) -> frozenset[str]:
    """All variables occurring in expressions or assignment targets."""
    result: set[str] = set()
    for node in nodes(prog):
        if isinstance(node, Assign):
            result.add(node.var)
            result |= vars_of_expr(node.expr)
        elif isinstance(node, (Assert, If, While)):
            result |= vars_of_expr(node.cond)
    return frozenset(result)


def labels_of(prog: Program) -> list[int]:
    return [node.label for node in nodes(prog)
            if isinstance(node, (Assign, Assert, If, While))]


# ---------------------------------------------------------------------------
# Renaming

class RenamingFn:
    """Bijection on variable names with finite support; identity elsewhere."""

    def __init__(self, pairs: Mapping[str, str] | None = None):
        mapping = dict(pairs or {})
        # Drop identity pairs so support is minimal.
        mapping = {v: w for v, w in mapping.items() if v != w}
        inverse: dict[str, str] = {}
        for v, w in mapping.items():
            if w in inverse:
                raise ValueError("renaming is not injective: %s and %s both map to %s"
                                 % (inverse[w], v, w))
            inverse[w] = v
        if set(mapping) != set(inverse):
            missing = sorted(set(inverse) - set(mapping) | set(mapping) - set(inverse))
            raise ValueError("renaming is not bijective on its support: %s" % missing)
        self._map = mapping
        self._inv = inverse

    @classmethod
    def identity(cls) -> "RenamingFn":
        return cls({})

    @classmethod
    def involution(cls, pairs: Mapping[str, str]) -> "RenamingFn":
        """Swap each (v, w) pair in both directions."""
        mapping = {}
        for v, w in pairs.items():
            mapping[v] = w
            mapping[w] = v
        return cls(mapping)

    def __call__(self, name: str) -> str:
        return self._map.get(name, name)

    def inverse(self, name: str) -> str:
        return self._inv.get(name, name)

    @property
    def support(self) -> frozenset[str]:
        return frozenset(self._map)

    def pairs(self) -> list[tuple[str, str]]:
        return sorted(self._map.items())

    def __eq__(self, other):
        return isinstance(other, RenamingFn) and self._map == other._map

    def __hash__(self):
        return hash(frozenset(self._map.items()))

    def __repr__(self):
        return "RenamingFn(%r)" % (self._map,)


def rename_expr(expr, rho: RenamingFn):
    if isinstance(expr, (IntLit, BoolLit)):
        return expr
    if isinstance(expr, Var):
        return Var(rho(expr.name))
    if isinstance(expr, Neg):
        return Neg(rename_expr(expr.operand, rho))
    if isinstance(expr, Not):
        return Not(rename_expr(expr.operand, rho))
    if isinstance(expr, BinOp):
        return BinOp(expr.op, rename_expr(expr.left, rho), rename_expr(expr.right, rho))
    if isinstance(expr, Cmp):
        return Cmp(expr.op, rename_expr(expr.left, rho), rename_expr(expr.right, rho))
    if isinstance(expr, BoolOp):
        return BoolOp(expr.op, rename_expr(expr.left, rho), rename_expr(expr.right, rho))
    raise TypeError("not an expression: %r" % (expr,))


def rename_program(prog: Program, rho: RenamingFn) -> Program:
    """Replace every variable occurrence v by rho(v); labels are preserved."""
    def rename(node):
        if isinstance(node, Assign):
            node = Assign(node.label, rho(node.var), rename_expr(node.expr, rho))
        elif isinstance(node, (Assert, If, While)):
            node = replace(node, cond=rename_expr(node.cond, rho))
        return node, True

    return map_program(prog, rename)


# ---------------------------------------------------------------------------
# Relabeling and label-insensitive comparison

def relabel(prog: Program, start: int = 1) -> Program:
    """Assign fresh labels in preorder."""
    labels = itertools.count(start)

    def fresh(node):
        if isinstance(node, (Seq, Empty, Par)):   # the unlabelled nodes
            return node, True
        if isinstance(node, Assign):
            node = Assign(next(labels), node.var, node.expr)
        elif isinstance(node, Assert):
            node = Assert(next(labels), node.cond)
        elif isinstance(node, If):
            node = If(next(labels), node.cond, node.then_branch, node.else_branch)
        elif isinstance(node, While):
            node = While(next(labels), node.cond, node.body)
        return node, True

    return map_program(prog, fresh)


def skeleton(prog: Program, segments: Mapping[int, Program] | None = None):
    """Canonical label-free form: nested sequences flattened, labels dropped.

    Two programs are label-isomorphic iff their skeletons are equal.  Each
    subprogram equal to a body in `segments` (id -> body) is collapsed to
    ("segment", id) before sequences are flattened, so a segment body, itself
    a nested sequence, stays one statement.
    """
    seg_id = _segment_id(prog, segments)
    if seg_id is not None:
        return ("segment", seg_id)
    if isinstance(prog, Assign):
        return ("assign", prog.var, prog.expr)
    if isinstance(prog, Assert):
        return ("assert", prog.cond)
    if isinstance(prog, If):
        return ("if", prog.cond, skeleton(prog.then_branch, segments),
                skeleton(prog.else_branch, segments))
    if isinstance(prog, While):
        return ("while", prog.cond, skeleton(prog.body, segments))
    if isinstance(prog, Par):
        return ("par", tuple(skeleton(b, segments) for b in prog.branches))
    if isinstance(prog, (Empty, Seq)):
        stmts, stack = [], list(reversed(children(prog)))
        while stack:
            node = stack.pop()
            if isinstance(node, Seq) and _segment_id(node, segments) is None:
                stack += [node.rest, node.first]
            elif not isinstance(node, Empty):
                stmts.append(skeleton(node, segments))
        return ("seq", tuple(stmts))
    raise TypeError("not a program: %r" % (prog,))


def _segment_id(prog: Program, segments: Mapping[int, Program] | None) -> int | None:
    for seg_id, body in (segments or {}).items():
        if prog == body:
            return seg_id
    return None


def label_isomorphic(a: Program, b: Program) -> bool:
    return skeleton(a) == skeleton(b)


def substitute(prog: Program, target: Program, replacement: Program) -> Program:
    """Replace every subprogram equal to `target` by `replacement`."""
    return map_program(prog, lambda node: (replacement, False) if node == target
                       else (node, True))


# ---------------------------------------------------------------------------
# Pretty printing

_AEXPR_PREC = {"+": 1, "-": 1, "*": 2}


def format_aexpr(expr, parent_prec: int = 0) -> str:
    if isinstance(expr, IntLit):
        return str(expr.value)
    if isinstance(expr, Var):
        return expr.name
    if isinstance(expr, Neg):
        inner = format_aexpr(expr.operand, 3)
        return "-%s" % inner
    if isinstance(expr, BinOp):
        prec = _AEXPR_PREC[expr.op]
        # Left-associative: right child of same precedence needs parens.
        text = "%s %s %s" % (format_aexpr(expr.left, prec), expr.op,
                             format_aexpr(expr.right, prec + 1))
        if prec < parent_prec:
            text = "(%s)" % text
        return text
    raise TypeError("not an arithmetic expression: %r" % (expr,))


def format_bexpr(expr, parent_prec: int = 0) -> str:
    # Precedence: || (1) < && (2) < ! (3) < atoms.
    if isinstance(expr, BoolLit):
        return "true" if expr.value else "false"
    if isinstance(expr, Cmp):
        return "%s %s %s" % (format_aexpr(expr.left), expr.op, format_aexpr(expr.right))
    if isinstance(expr, Not):
        inner = expr.operand
        if isinstance(inner, (BoolLit, Not)):
            return "!%s" % format_bexpr(inner, 3)
        return "!(%s)" % format_bexpr(inner)
    if isinstance(expr, BoolOp):
        prec = 1 if expr.op == "||" else 2
        text = "%s %s %s" % (format_bexpr(expr.left, prec), expr.op,
                             format_bexpr(expr.right, prec + 1))
        if prec < parent_prec:
            text = "(%s)" % text
        return text
    raise TypeError("not a boolean expression: %r" % (expr,))


def pretty_print(prog: Program, indent: int = 0) -> str:
    """Canonical concrete syntax; parses back to a label-isomorphic program."""
    lines = _pp_stmts(prog, indent)
    return "".join(line + "\n" for line in lines)


def _pp_block(prog: Program, indent: int) -> list[str]:
    inner = _pp_stmts(prog, indent + 1)
    pad = "  " * indent
    if not inner:
        return [pad + "{", pad + "}"]
    return [pad + "{"] + inner + [pad + "}"]


def _pp_stmts(prog: Program, indent: int) -> list[str]:
    lines: list[str] = []
    pad = "  " * indent
    for stmt in stmts_of(prog):
        if isinstance(stmt, Assign):
            lines.append("%s%s := %s;" % (pad, stmt.var, format_aexpr(stmt.expr)))
        elif isinstance(stmt, Assert):
            lines.append("%sassert (%s);" % (pad, format_bexpr(stmt.cond)))
        elif isinstance(stmt, If):
            lines.append("%sif (%s)" % (pad, format_bexpr(stmt.cond)))
            lines.extend(_pp_block(stmt.then_branch, indent))
            lines.append("%selse" % pad)
            lines.extend(_pp_block(stmt.else_branch, indent))
        elif isinstance(stmt, While):
            lines.append("%swhile (%s)" % (pad, format_bexpr(stmt.cond)))
            lines.extend(_pp_block(stmt.body, indent))
        elif isinstance(stmt, Par):
            lines.append("%spar" % pad)
            for branch in stmt.branches:
                lines.extend(_pp_block(branch, indent))
        else:
            raise TypeError("not a statement: %r" % (stmt,))
    return lines
