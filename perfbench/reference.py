"""Answers computed apart from the package, used to check its verdicts.

The reference evaluator reads the parsed tree (the node classes of
`equicheck.syntax`) but none of the package's semantics, checker or
analyses.  It compiles each program once into numbered statements and
closures over a state tuple, and enumerates interleavings with its own
small-step relation.  A configuration is a pair of interned continuation
ids and a state tuple, so the visited set never hashes a program tree.
"""

from __future__ import annotations

import itertools
import operator

from equicheck.syntax import (Assert, Assign, BinOp, BoolLit, BoolOp, Cmp,
                              Empty, If, IntLit, Neg, Not, Par, Seq, Var,
                              While)

# A bound on configurations per (program, initial state).  Every input the
# benchmark generates stays far below it; hitting it is a benchmark error.
MAX_CONFIGS = 2_000_000

_ARITH = {"+": operator.add, "-": operator.sub, "*": operator.mul}
_COMPARE = {"==": operator.eq, "!=": operator.ne, "<": operator.lt,
            "<=": operator.le, ">": operator.gt, ">=": operator.ge}


class Undecided(Exception):
    """The reference evaluator could not decide an input."""


# ---------------------------------------------------------------------------
# Tree walking

def statements(prog) -> list:
    """The statements of a right-nested (or left-nested) Seq spine, in order.

    Iterative, so spines of any length are fine."""
    out, stack = [], [prog]
    while stack:
        node = stack.pop()
        if isinstance(node, Seq):
            stack.append(node.rest)
            stack.append(node.first)
        elif not isinstance(node, Empty):
            out.append(node)
    return out


def _expr_vars(expr, acc: set):
    stack = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, Var):
            acc.add(node.name)
        elif isinstance(node, (Neg, Not)):
            stack.append(node.operand)
        elif isinstance(node, (BinOp, Cmp, BoolOp)):
            stack.append(node.left)
            stack.append(node.right)


def program_vars(prog) -> set[str]:
    """Every variable read or assigned anywhere in the program."""
    acc: set[str] = set()
    stack = [prog]
    while stack:
        node = stack.pop()
        if isinstance(node, Seq):
            stack += [node.first, node.rest]
        elif isinstance(node, Assign):
            acc.add(node.var)
            _expr_vars(node.expr, acc)
        elif isinstance(node, Assert):
            _expr_vars(node.cond, acc)
        elif isinstance(node, If):
            _expr_vars(node.cond, acc)
            stack += [node.then_branch, node.else_branch]
        elif isinstance(node, While):
            _expr_vars(node.cond, acc)
            stack.append(node.body)
        elif isinstance(node, Par):
            stack += list(node.branches)
    return acc


def count_nodes(prog) -> int:
    """Statements in a program tree, compound heads included."""
    count, stack = 0, [prog]
    while stack:
        node = stack.pop()
        if isinstance(node, Seq):
            stack += [node.first, node.rest]
        elif isinstance(node, Empty):
            continue
        else:
            count += 1
            if isinstance(node, If):
                stack += [node.then_branch, node.else_branch]
            elif isinstance(node, While):
                stack.append(node.body)
            elif isinstance(node, Par):
                stack += list(node.branches)
    return count


# ---------------------------------------------------------------------------
# Compilation

def _compile_arith(expr, index):
    if isinstance(expr, IntLit):
        value = expr.value
        return lambda s: value
    if isinstance(expr, Var):
        return operator.itemgetter(index[expr.name])
    if isinstance(expr, Neg):
        inner = _compile_arith(expr.operand, index)
        return lambda s: -inner(s)
    if isinstance(expr, BinOp):
        fn = _ARITH[expr.op]
        left, right = _compile_arith(expr.left, index), _compile_arith(expr.right, index)
        return lambda s: fn(left(s), right(s))
    raise TypeError("not an arithmetic expression: %r" % (expr,))


def _compile_bool(expr, index):
    if isinstance(expr, BoolLit):
        value = expr.value
        return lambda s: value
    if isinstance(expr, Cmp):
        fn = _COMPARE[expr.op]
        left, right = _compile_arith(expr.left, index), _compile_arith(expr.right, index)
        return lambda s: fn(left(s), right(s))
    if isinstance(expr, Not):
        inner = _compile_bool(expr.operand, index)
        return lambda s: not inner(s)
    if isinstance(expr, BoolOp):
        left, right = _compile_bool(expr.left, index), _compile_bool(expr.right, index)
        if expr.op == "&&":
            return lambda s: left(s) and right(s)
        return lambda s: left(s) or right(s)
    raise TypeError("not a boolean expression: %r" % (expr,))


class Machine:
    """Small-step interleaving semantics of one program over fixed names.

    A continuation is an interned id: 0 is "nothing left", any other id
    names a (head, tail) pair where the head is a statement still to run
    (`("s", n)`) or a running parallel statement with one continuation per
    branch (`("p", ks)`).
    """

    def __init__(self, prog, names):
        self.index = {name: i for i, name in enumerate(names)}
        self.nodes: list = []
        self._conts: list = [None]
        self._ids: dict = {}
        self.start = self._push(self._compile_block(prog), 0)

    def _compile_block(self, prog) -> tuple[int, ...]:
        return tuple(self._compile_stmt(stmt) for stmt in statements(prog))

    def _compile_stmt(self, stmt) -> int:
        index = self.index
        if isinstance(stmt, Assign):
            node = ("asg", index[stmt.var], _compile_arith(stmt.expr, index))
        elif isinstance(stmt, Assert):
            node = ("assert", _compile_bool(stmt.cond, index))
        elif isinstance(stmt, If):
            node = ("if", _compile_bool(stmt.cond, index),
                    self._compile_block(stmt.then_branch),
                    self._compile_block(stmt.else_branch))
        elif isinstance(stmt, While):
            node = ("while", _compile_bool(stmt.cond, index),
                    self._compile_block(stmt.body))
        elif isinstance(stmt, Par):
            node = ("par", tuple(self._compile_block(b) for b in stmt.branches))
        else:
            raise TypeError("not a statement: %r" % (stmt,))
        self.nodes.append(node)
        return len(self.nodes) - 1

    def _cons(self, head, tail: int) -> int:
        key = (head, tail)
        cid = self._ids.get(key)
        if cid is None:
            cid = len(self._conts)
            self._ids[key] = cid
            self._conts.append(key)
        return cid

    def _push(self, block, tail: int) -> int:
        for sid in reversed(block):
            tail = self._cons(("s", sid), tail)
        return tail

    def successors(self, k: int, s: tuple) -> list:
        head, tail = self._conts[k]
        if head[0] == "p":
            branches = head[1]
            if not any(branches):
                return [(tail, s)]
            out = []
            for i, branch in enumerate(branches):
                if branch:
                    for branch2, s2 in self.successors(branch, s):
                        out.append((self._cons(
                            ("p", branches[:i] + (branch2,) + branches[i + 1:]),
                            tail), s2))
            return out
        sid = head[1]
        node = self.nodes[sid]
        kind = node[0]
        if kind == "asg":
            s2 = list(s)
            s2[node[1]] = node[2](s)
            return [(tail, tuple(s2))]
        if kind == "assert":
            return [(tail, s)] if node[1](s) else []
        if kind == "if":
            return [(self._push(node[2] if node[1](s) else node[3], tail), s)]
        if kind == "while":
            if node[1](s):
                return [(self._push(node[2], k), s)]
            return [(tail, s)]
        return [(self._cons(("p", tuple(self._push(b, 0) for b in node[1])),
                            tail), s)]

    def terminals(self, s0: tuple) -> set:
        """States of all normally terminating runs from (program, s0)."""
        start = (self.start, s0)
        seen = {start}
        stack = [start]
        done = set()
        while stack:
            k, s = stack.pop()
            if k == 0:
                done.add(s)
                continue
            for succ in self.successors(k, s):
                if succ not in seen:
                    seen.add(succ)
                    stack.append(succ)
            if len(seen) > MAX_CONFIGS:
                raise Undecided("more than %d configurations" % MAX_CONFIGS)
        return done


# ---------------------------------------------------------------------------
# Partial equivalence

class PartialEquivalence:
    """The paper's partial equivalence of two programs over a domain.

    For every initial state over the variables of both programs and the
    outputs, every pair of normally terminating runs (one of each program)
    must agree on every output.  `decide` returns None when the programs
    are equivalent, else the first (initial state, output) that shows the
    difference in this evaluator's own enumeration order.
    """

    def __init__(self, prog1, prog2, outputs, domain):
        self.outputs = sorted(set(outputs))
        self.names = sorted(program_vars(prog1) | program_vars(prog2)
                            | set(self.outputs))
        self.domain = list(domain)
        self.m1 = Machine(prog1, self.names)
        self.m2 = Machine(prog2, self.names)
        self._cache: dict = {}

    def state(self, values: dict) -> tuple:
        return tuple(values.get(name, 0) for name in self.names)

    def terminals(self, s0: tuple) -> tuple[set, set]:
        found = self._cache.get(s0)
        if found is None:
            found = self._cache[s0] = (self.m1.terminals(s0), self.m2.terminals(s0))
        return found

    def differs(self, s0: tuple, var: str) -> bool:
        t1, t2 = self.terminals(s0)
        if not t1 or not t2:
            return False
        i = self.names.index(var)
        return len({s[i] for s in t1} | {s[i] for s in t2}) > 1

    def decide(self):
        for s0 in itertools.product(self.domain, repeat=len(self.names)):
            for var in self.outputs:
                if self.differs(s0, var):
                    return s0, var
        return None

    def witness_holds(self, initial: dict, term1: dict, term2: dict, var: str) -> bool:
        """True iff term1 and term2 are terminal states of the two programs
        from `initial` that disagree on `var`."""
        s0 = self.state(initial)
        if any(v not in self.domain for v in s0):
            return False
        t1, t2 = self.terminals(s0)
        return (self.state(term1) in t1 and self.state(term2) in t2
                and term1.get(var, 0) != term2.get(var, 0))


# ---------------------------------------------------------------------------
# sum2 closed forms

def sum2_out(version: str, n: int) -> int:
    """`out` after the paper's reduction pair from input N = n.

    sum2_seq adds N, N-1, ..., 0 starting from sum := N; sum2_par adds
    1..N into sum := 0; both finish with out := sum + 2."""
    if n >= 0:
        return n * (n + 1) // 2 + 2
    return n + 2 if version == "seq" else 2


# ---------------------------------------------------------------------------
# Straight-line analysis sets

def straight_line_sets(seg1, seg2, suffix, outputs) -> tuple[set, set]:
    """The task sets I and C for two straight-line segments in a shared
    straight-line context.

    Each statement is a (target, variables read) pair.  M is the set of
    targets; U the variables read before the segment assigns them; L the
    variables live after the segment, by backward liveness over the suffix
    from the outputs.  I = (U1 & U2) & (M1 | M2), C = (M1 | M2) & (L1 | L2),
    and the shared suffix makes L1 = L2.
    """
    def modified(seg):
        return {target for target, _ in seg}

    def used_before_def(seg):
        used, defined = set(), set()
        for target, reads in seg:
            used |= set(reads) - defined
            defined.add(target)
        return used

    live = set(outputs)
    for target, reads in reversed(suffix):
        live = (live - {target}) | set(reads)
    m = modified(seg1) | modified(seg2)
    init_set = used_before_def(seg1) & used_before_def(seg2) & m
    check_set = m & live
    return init_set, check_set
