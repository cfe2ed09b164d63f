"""Seeded random generation of small programs and version pairs.

Used by the fuzz suites: every program is loop-bounded by construction
(loops count a dedicated counter variable down to zero), so all runs
terminate or get stuck and the bounded checker can finish.  Programs
contain asserts only when `GenConfig.allow_asserts` is set; with it off,
a seed draws the same random numbers, and so gives the same programs, as
before the option existed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .syntax import (Assert, Assign, BinOp, BoolOp, Cmp, EMPTY, If, IntLit,
                     Not, Par, Program, Seq, Var, While, pretty_print, relabel,
                     seq_of, vars_of)


@dataclass(frozen=True)
class GenConfig:
    max_vars: int = 3
    max_stmts: int = 8
    max_depth: int = 2
    max_expr_depth: int = 2
    max_loop_bound: int = 3
    allow_par: bool = True
    allow_asserts: bool = False


class ProgramGenerator:
    def __init__(self, seed: int, config: GenConfig | None = None):
        self.rng = random.Random(seed)
        self.config = config or GenConfig()
        self.names = ["x", "y", "z", "w"][: self.config.max_vars]
        self._counter = 0

    # -- expressions --------------------------------------------------------

    def aexpr(self, depth: int | None = None):
        if depth is None:
            depth = self.config.max_expr_depth
        choice = self.rng.random()
        if depth == 0 or choice < 0.35:
            if self.rng.random() < 0.5:
                return IntLit(self.rng.randint(-3, 3))
            return Var(self.rng.choice(self.names))
        if choice < 0.55:
            return Var(self.rng.choice(self.names))
        op = self.rng.choice(["+", "+", "-", "*"])
        return BinOp(op, self.aexpr(depth - 1), self.aexpr(depth - 1))

    def bexpr(self, depth: int | None = None):
        if depth is None:
            depth = self.config.max_expr_depth
        choice = self.rng.random()
        if depth == 0 or choice < 0.6:
            op = self.rng.choice(["<", "<=", ">", ">=", "==", "!="])
            return Cmp(op, self.aexpr(1), self.aexpr(1))
        if choice < 0.75:
            return Not(self.bexpr(depth - 1))
        op = self.rng.choice(["&&", "||"])
        return BoolOp(op, self.bexpr(depth - 1), self.bexpr(depth - 1))

    # -- statements ---------------------------------------------------------

    def _fresh_counter(self) -> str:
        self._counter += 1
        return "c%d" % self._counter

    def block(self, budget: int, depth: int, allow_par: bool) -> Program:
        stmts = []
        while budget > 0:
            stmt, cost = self.statement(budget, depth, allow_par)
            stmts.append(stmt)
            budget -= cost
            if self.rng.random() < 0.2:
                break
        return seq_of(stmts)

    def statement(self, budget: int, depth: int, allow_par: bool):
        roll = self.rng.random()
        if depth == 0 or budget < 3 or roll < 0.55:
            # Draw for an assert only when allowed: with asserts off, every
            # seed keeps its random stream.
            if self.config.allow_asserts and self.rng.random() < 0.15:
                return Assert(0, self.bexpr(1)), 1
            return Assign(0, self.rng.choice(self.names), self.aexpr()), 1
        if roll < 0.72:
            then_branch = self.block(budget // 2, depth - 1, allow_par)
            else_branch = self.block(budget // 2, depth - 1, allow_par) \
                if self.rng.random() < 0.5 else EMPTY
            return If(0, self.bexpr(), then_branch, else_branch), budget
        if roll < 0.88:
            # Bounded by construction: fresh counter, decremented each
            # iteration and not assigned anywhere in the body.
            counter = self._fresh_counter()
            bound = self.rng.randint(1, self.config.max_loop_bound)
            body = self.block(max(1, budget // 2 - 1), depth - 1, allow_par)
            loop = While(0, Cmp(">", Var(counter), IntLit(0)),
                         Seq(body, Seq(Assign(0, counter,
                                              BinOp("-", Var(counter), IntLit(1))),
                                       EMPTY)))
            return Seq(Assign(0, counter, IntLit(bound)), Seq(loop, EMPTY)), budget
        if allow_par and self.config.allow_par:
            n = self.rng.choice([2, 2, 3])
            branches = tuple(self.block(max(1, budget // (n + 1)), 0, False)
                             for _ in range(n))
            return Par(branches), budget
        return Assign(0, self.rng.choice(self.names), self.aexpr()), 1

    def program(self) -> Program:
        prog = self.block(self.config.max_stmts, self.config.max_depth,
                          self.config.allow_par)
        return relabel(prog)

    # -- version pairs ------------------------------------------------------

    def equivalent_pair(self) -> tuple[Program, Program]:
        """A program and a syntactic perturbation preserving its behavior."""
        prog = self.program()
        return prog, relabel(self._perturb(prog))

    def _perturb(self, prog: Program) -> Program:
        kind = self.rng.choice(["noop_prefix", "double_negate", "reassoc"])
        if kind == "noop_prefix":
            names = sorted(vars_of(prog)) or ["x"]
            name = self.rng.choice(names)
            return Seq(Assign(0, name, Var(name)), Seq(prog, EMPTY))
        if kind == "double_negate":
            return Seq(prog, Seq(Assign(0, "x", BinOp("-", Var("x"), IntLit(0))),
                                 EMPTY))
        # reassoc: append x := x + 0
        return Seq(prog, Seq(Assign(0, "x", BinOp("+", Var("x"), IntLit(0))),
                             EMPTY))

    def random_pair(self) -> tuple[Program, Program]:
        """Two independently generated programs."""
        return self.program(), self.program()

    # -- sources with segment markers ---------------------------------------

    def source_pair(self) -> tuple[str, str]:
        """Two source texts sharing a context, each marking one segment.

        The prefix only assigns small constants so that segment-entry states
        stay within the value range a finite-domain checker enumerates;
        arbitrary arithmetic before the segment would push executions outside
        any fixed domain and make bounded results incomparable.
        """
        prefix = seq_of(Assign(0, self.rng.choice(self.names),
                               IntLit(self.rng.randint(-2, 2)))
                        for _ in range(self.rng.randint(0, 2)))
        seg1 = self.program()
        seg2 = self.rng.random() < 0.5 and relabel(self._perturb(seg1)) or self.program()
        suffix = self.block(2, 0, False)
        out = self.rng.choice(self.names)

        def render(seg: Program) -> str:
            lines = ["#outputs %s;" % out]
            lines.append(pretty_print(prefix))
            lines.append("#segment 1 {")
            lines.append(pretty_print(seg))
            lines.append("}")
            lines.append(pretty_print(suffix))
            return "\n".join(line for line in lines if line.strip()) + "\n"

        return render(seg1), render(seg2)
