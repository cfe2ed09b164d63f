"""Small-step operational semantics and bounded execution enumeration.

A configuration pairs a program with a data state.  The step relation is
deterministic except for the choice of parallel branch; assertion
statements only step when their guard holds, so a failed assertion leaves
the configuration stuck (and flagged by `violates_assertion`).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, NamedTuple

from .syntax import (AExpr, Assert, Assign, BExpr, BinOp, BoolLit, BoolOp,
                     Cmp, Empty, EMPTY, If, IntLit, Neg, Not, Par, Program,
                     RenamingFn, Seq, Var, While, nodes, rename_expr,
                     rename_program, vars_of_expr)


# ---------------------------------------------------------------------------
# Data states

class DataState:
    """Total mapping from variable names to integers; unset variables are 0."""

    __slots__ = ("_dict", "_items")

    def __init__(self, values=None):
        if isinstance(values, DataState):
            self._dict = values._dict
            self._items = values._items
            return
        items = {}
        if values:
            for var, val in dict(values).items():
                if val != 0:
                    items[var] = val
        self._dict = items
        self._items = frozenset(items.items())

    def __getitem__(self, var: str) -> int:
        return self._dict.get(var, 0)

    def set(self, var: str, value: int) -> "DataState":
        items = dict(self._dict)
        if value != 0:
            items[var] = value
        else:
            items.pop(var, None)
        return DataState(items)

    def support(self) -> frozenset[str]:
        return frozenset(self._dict)

    def as_dict(self) -> dict[str, int]:
        return dict(sorted(self._dict.items()))

    def agrees_with(self, other: "DataState", vars: Iterable[str]) -> bool:
        return all(self[v] == other[v] for v in vars)

    def __eq__(self, other):
        return isinstance(other, DataState) and self._items == other._items

    def __hash__(self):
        return hash(self._items)

    def __repr__(self):
        return "DataState(%r)" % (self.as_dict(),)


EMPTY_STATE = DataState()


def rename_state(sigma: DataState, rho: RenamingFn) -> DataState:
    """rho(sigma): the renamed state satisfies rho(sigma)(v) = sigma(rho^-1(v))."""
    return DataState({rho(name): val for name, val in sigma.as_dict().items()})


def initial_states(names, domain) -> Iterator[DataState]:
    """Every assignment of domain values to the given variables, in sorted
    variable order with ascending values; all other variables are 0."""
    names = sorted(set(names))
    for combo in itertools.product(domain, repeat=len(names)):
        yield DataState(dict(zip(names, combo)))


# ---------------------------------------------------------------------------
# Expression evaluation

def eval_aexpr(sigma: DataState, expr: AExpr) -> int:
    if isinstance(expr, IntLit):
        return expr.value
    if isinstance(expr, Var):
        return sigma[expr.name]
    if isinstance(expr, Neg):
        return -eval_aexpr(sigma, expr.operand)
    if isinstance(expr, BinOp):
        left = eval_aexpr(sigma, expr.left)
        right = eval_aexpr(sigma, expr.right)
        if expr.op == "+":
            return left + right
        if expr.op == "-":
            return left - right
        if expr.op == "*":
            return left * right
        raise ValueError("unknown operator %r" % expr.op)
    raise TypeError("not an arithmetic expression: %r" % (expr,))


_CMP = {
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


def eval_bexpr(sigma: DataState, expr: BExpr) -> bool:
    if isinstance(expr, BoolLit):
        return expr.value
    if isinstance(expr, Cmp):
        return _CMP[expr.op](eval_aexpr(sigma, expr.left), eval_aexpr(sigma, expr.right))
    if isinstance(expr, Not):
        return not eval_bexpr(sigma, expr.operand)
    if isinstance(expr, BoolOp):
        if expr.op == "&&":
            return eval_bexpr(sigma, expr.left) and eval_bexpr(sigma, expr.right)
        return eval_bexpr(sigma, expr.left) or eval_bexpr(sigma, expr.right)
    raise TypeError("not a boolean expression: %r" % (expr,))


# ---------------------------------------------------------------------------
# Execution steps

@dataclass(frozen=True)
class ExecStep:
    """Operation labelling one transition: an assignment, a guard, or a nop."""
    kind: str  # "assign" | "guard" | "nop"
    var: str | None = None
    aexpr: AExpr | None = None
    bexpr: BExpr | None = None
    negated: bool = False

    def used_vars(self) -> frozenset[str]:
        if self.kind == "assign":
            return vars_of_expr(self.aexpr)
        if self.kind == "guard":
            return vars_of_expr(self.bexpr)
        return frozenset()

    def assigned_var(self) -> str | None:
        return self.var if self.kind == "assign" else None

    def renamed(self, rho: RenamingFn) -> "ExecStep":
        if self.kind == "assign":
            return ExecStep("assign", var=rho(self.var),
                            aexpr=rename_expr(self.aexpr, rho))
        if self.kind == "guard":
            return ExecStep("guard", bexpr=rename_expr(self.bexpr, rho),
                            negated=self.negated)
        return self


NOP = ExecStep("nop")


class Evaluator(NamedTuple):
    """How `step` computes values: `value(sigma, aexpr)` is the value an
    assignment stores, `outcomes(sigma, bexpr)` the guard outcomes to follow,
    true before false."""
    value: Callable[[DataState, AExpr], int]
    outcomes: Callable[[DataState, BExpr], tuple[bool, ...]]


def _syntactic_outcomes(sigma: DataState, cond: BExpr) -> tuple[bool, ...]:
    if vars_of_expr(cond):
        return (True, False)
    return (eval_bexpr(EMPTY_STATE, cond),)


# Evaluates in the data state: the operational semantics.
CONCRETE = Evaluator(eval_aexpr, lambda sigma, cond: (eval_bexpr(sigma, cond),))

# Quantifies over data states: a guard with variables may go either way,
# variable-free guards are decided exactly, and every assignment stores 0.
# This overapproximates the paths of the program for guards that contain
# variables but cannot hold, which is sound for the analyses that use it.
SYNTACTIC = Evaluator(lambda sigma, expr: 0, _syntactic_outcomes)


def step(prog: Program, sigma: DataState, evaluator: Evaluator = CONCRETE, *,
         reduce: bool = False) -> list[tuple[ExecStep, Program, DataState]]:
    """All successors of (prog, sigma); empty for terminal or stuck configurations.

    With `reduce`, a `par` reached along the sequence spine of `prog` steps
    only its first non-empty branch when that branch's next step is
    independent of every other branch (`_first_branch_persistent`).  Those
    successors form a persistent set (Godefroid, LNCS 1032, 1996): every
    configuration past the `par`, a terminal or a stuck one in particular,
    stays reachable by a run of the same length that starts with one of
    them.  Nested `par`s always step every branch.  The reduced relation is
    meant for the CONCRETE evaluator.
    """
    if isinstance(prog, Empty):
        return []
    if isinstance(prog, Assign):
        value = evaluator.value(sigma, prog.expr)
        op = ExecStep("assign", var=prog.var, aexpr=prog.expr)
        return [(op, EMPTY, sigma.set(prog.var, value))]
    if isinstance(prog, Assert):
        if True in evaluator.outcomes(sigma, prog.cond):
            return [(ExecStep("guard", bexpr=prog.cond), EMPTY, sigma)]
        return []  # stuck: assertion violated
    if isinstance(prog, If):
        return [(ExecStep("guard", bexpr=prog.cond, negated=not holds),
                 prog.then_branch if holds else prog.else_branch, sigma)
                for holds in evaluator.outcomes(sigma, prog.cond)]
    if isinstance(prog, While):
        return [(ExecStep("guard", bexpr=prog.cond, negated=not holds),
                 Seq(prog.body, prog) if holds else EMPTY, sigma)
                for holds in evaluator.outcomes(sigma, prog.cond)]
    if isinstance(prog, Seq):
        if isinstance(prog.first, Empty):
            return [(NOP, prog.rest, sigma)]
        return [(op, Seq(first2, prog.rest), sigma2)
                for op, first2, sigma2 in step(prog.first, sigma, evaluator,
                                               reduce=reduce)]
    if isinstance(prog, Par):
        branches = prog.branches
        live = [i for i, b in enumerate(branches) if not isinstance(b, Empty)]
        if not live:
            return [(NOP, EMPTY, sigma)]
        if reduce and len(live) > 1 and _first_branch_persistent(branches, live):
            del live[1:]
        successors = []
        for i in live:
            for op, branch2, sigma2 in step(branches[i], sigma, evaluator):
                successors.append((op, Par(branches[:i] + (branch2,) + branches[i + 1:]),
                                   sigma2))
        return successors
    raise TypeError("not a program: %r" % (prog,))


# ---------------------------------------------------------------------------
# Partial-order reduction

@functools.lru_cache(maxsize=4096)
def _footprint(prog: Program) -> tuple[frozenset[str], frozenset[str], bool]:
    """(variables, assigned variables, whether an assert occurs) of `prog`.

    Memoized with a bound, since the branches of a `par` repeat from one
    configuration to the next."""
    used: set[str] = set()
    assigned: set[str] = set()
    has_assert = False
    for node in nodes(prog):
        if isinstance(node, Assign):
            assigned.add(node.var)
            used |= vars_of_expr(node.expr)
        elif isinstance(node, (Assert, If, While)):
            has_assert = has_assert or isinstance(node, Assert)
            used |= vars_of_expr(node.cond)
    return frozenset(used | assigned), frozenset(assigned), has_assert


_NO_VARS = frozenset()


def _next_step_footprint(branch: Program) -> tuple[frozenset[str], frozenset[str]]:
    """(read, written) variables of the next step of a non-empty branch with
    no assert; a nop reads and writes nothing."""
    head = branch
    while isinstance(head, Seq):
        if isinstance(head.first, Empty):
            return _NO_VARS, _NO_VARS
        head = head.first
    return _head_footprint(head)


@functools.lru_cache(maxsize=4096)
def _head_footprint(head: Program) -> tuple[frozenset[str], frozenset[str]]:
    """(read, written) variables of the steps a statement can take first: an
    assignment reads its expression and writes its target, a guard reads
    its condition, and a nested `par` stands for every step it can take."""
    if isinstance(head, Assign):
        return vars_of_expr(head.expr), frozenset((head.var,))
    if isinstance(head, (If, While)):
        return vars_of_expr(head.cond), _NO_VARS
    used, assigned, _ = _footprint(head)
    return used, assigned


def _first_branch_persistent(branches: tuple[Program, ...], live: list[int]) -> bool:
    """Whether the next step of branch `live[0]` is independent of every
    step that the other non-empty branches `live[1:]` can ever take.

    No branch may contain an assert.  Then every non-empty branch can step,
    and the `par` can only finish, and the program after it only run, once
    every branch has taken all its steps.  Let (R, W) be the variables that
    the first branch's next step t reads and writes.  If no other branch j
    uses a variable in W or assigns one in R, then t commutes with every
    step j can take: either order is possible and ends in the same
    configuration.  So t's successors form a persistent set.  A run that
    finishes the `par` and starts with other branches' steps takes t later,
    and moving t to the front gives a run of the same length to the same
    configuration.  Consequences for `checker._explore`:
    - every configuration past the `par`, a terminal or a stuck one in
      particular, is reached at its unreduced breadth-first depth.  So the
      terminal sets are unchanged, and so is whether one lies within
      `max_steps`;
    - with no assert in a branch, every configuration that violates an
      assertion lies past the `par`, so the checker's violations are kept;
    - successors are ordered by branch index, so t's successors come first
      in both relations.  The lexicographically least shortest path to such
      a configuration, which is the trace the search reports, takes them
      too, because t commutes to its front.  Traces are unchanged.
    A configuration inside the `par` may lie deeper in the reduced graph
    than in the full one (a branch that loops back to where it was); see
    `checker._explore` for what that does to budgets.
    """
    first = branches[live[0]]
    if _footprint(first)[2]:
        return False
    reads, writes = _next_step_footprint(first)
    for i in live[1:]:
        used, assigned, has_assert = _footprint(branches[i])
        if has_assert or not (writes.isdisjoint(used) and reads.isdisjoint(assigned)):
            return False
    return True


def violates_assertion(prog: Program, sigma: DataState) -> bool:
    """True iff an assert with a false guard heads the program, possibly
    inside sequential composition or a parallel branch."""
    if isinstance(prog, Assert):
        return not eval_bexpr(sigma, prog.cond)
    if isinstance(prog, Seq):
        return violates_assertion(prog.first, sigma)
    if isinstance(prog, Par):
        return any(violates_assertion(b, sigma) for b in prog.branches)
    return False


# ---------------------------------------------------------------------------
# Execution enumeration

@dataclass(frozen=True)
class Execution:
    """A finite execution: initial configuration plus the steps taken."""
    initial_program: Program
    initial_state: DataState
    steps: tuple[tuple[ExecStep, Program, DataState], ...] = ()

    def __len__(self):
        return len(self.steps)

    @property
    def final_program(self) -> Program:
        return self.steps[-1][1] if self.steps else self.initial_program

    @property
    def final_state(self) -> DataState:
        return self.steps[-1][2] if self.steps else self.initial_state

    def terminated_normally(self) -> bool:
        return isinstance(self.final_program, Empty)

    def extend(self, op: ExecStep, prog: Program, sigma: DataState) -> "Execution":
        return Execution(self.initial_program, self.initial_state,
                         self.steps + ((op, prog, sigma),))

    def renamed(self, rho: RenamingFn) -> "Execution":
        return Execution(
            rename_program(self.initial_program, rho),
            rename_state(self.initial_state, rho),
            tuple((op.renamed(rho), rename_program(p, rho), rename_state(s, rho))
                  for op, p, s in self.steps))


def executions(prog: Program, sigma0: DataState, max_steps: int,
               evaluator: Evaluator = CONCRETE) -> tuple[list[Execution], bool]:
    """All executions from (prog, sigma0) of length <= max_steps.

    The returned list is prefix-closed (every prefix of an execution is an
    execution).  The flag is True iff no execution was cut off by the bound,
    i.e. every maximal execution ended terminal or stuck within it.  With
    the SYNTACTIC evaluator the executions are the program's syntactic
    paths, and every state in them is the empty one.
    """
    results: list[Execution] = []
    complete = True
    # Depth first, in successor order, with an explicit stack, so the
    # length of an execution does not bound the recursion depth.
    stack = [Execution(prog, sigma0)]
    while stack:
        execution = stack.pop()
        results.append(execution)
        successors = step(execution.final_program, execution.final_state, evaluator)
        if not successors:
            continue
        if len(execution) >= max_steps:
            complete = False
            continue
        stack += reversed([execution.extend(op, prog2, sigma2)
                           for op, prog2, sigma2 in successors])
    return results, complete
