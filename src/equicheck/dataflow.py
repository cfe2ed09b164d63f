"""Syntactic usage analyses and their bounded semantic oracles.

The three syntactic sets (modified, used-before-definition, live-after)
overapproximate their semantic definitions; the oracles enumerate bounded
executions or syntactic paths and are meant for validating the analyses
on small programs.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import IncompleteExploration, UnknownSegment
from .parser import SourceFile
from .semantics import EMPTY_STATE, SYNTACTIC, executions, initial_states
from .syntax import (Assert, Assign, Empty, If, Par, Program, Seq, While,
                     nodes, stmts_of, vars_of, vars_of_expr)


@dataclass(frozen=True)
class UsageSummary:
    """How one subprogram uses its variables, in context."""
    vars: frozenset[str]
    modified: frozenset[str]
    used_before_def: frozenset[str]
    live_after: frozenset[str]
    segment_id: int | None = None

    def as_dict(self) -> dict:
        return {
            "vars": sorted(self.vars),
            "modified": sorted(self.modified),
            "used_before_def": sorted(self.used_before_def),
            "live_after": sorted(self.live_after),
        }


# ---------------------------------------------------------------------------
# Modified variables

def modified_vars(prog: Program) -> frozenset[str]:
    """Assignment left-hand sides anywhere in the program."""
    return frozenset(node.var for node in nodes(prog) if isinstance(node, Assign))


# ---------------------------------------------------------------------------
# Used before definition

def used_before_def(prog: Program) -> frozenset[str]:
    """Variables that may be read before being assigned.

    Forward definite-assignment analysis: a use counts unless the variable
    is assigned on every syntactic path reaching it.  Assignments inside a
    parallel statement are never credited as definite, neither for sibling
    branches nor for the code after the statement.
    """
    ub, _ = _ub_walk(prog, frozenset())
    return ub


def _ub_walk(prog: Program, defined: frozenset[str]):
    if isinstance(prog, Empty):
        return frozenset(), defined
    if isinstance(prog, Assign):
        return vars_of_expr(prog.expr) - defined, defined | {prog.var}
    if isinstance(prog, Assert):
        return vars_of_expr(prog.cond) - defined, defined
    if isinstance(prog, If):
        cond_uses = vars_of_expr(prog.cond) - defined
        then_ub, then_def = _ub_walk(prog.then_branch, defined)
        else_ub, else_def = _ub_walk(prog.else_branch, defined)
        return cond_uses | then_ub | else_ub, then_def & else_def
    if isinstance(prog, While):
        cond_uses = vars_of_expr(prog.cond) - defined
        body_ub, _ = _ub_walk(prog.body, defined)
        # The body may not run; assignments across iterations only help
        # later uses, which the single pass already treats as defined.
        return cond_uses | body_ub, defined
    if isinstance(prog, Seq):
        ub = frozenset()
        for stmt in stmts_of(prog):
            stmt_ub, defined = _ub_walk(stmt, defined)
            ub |= stmt_ub
        return ub, defined
    if isinstance(prog, Par):
        ub: frozenset[str] = frozenset()
        for branch in prog.branches:
            branch_ub, _ = _ub_walk(branch, defined)
            ub |= branch_ub
        return ub, defined  # branch assignments are dropped: coarse but sound
    raise TypeError("not a program: %r" % (prog,))


# ---------------------------------------------------------------------------
# Live variables

def live_in(prog: Program, live_out: frozenset[str]) -> frozenset[str]:
    """Backward liveness through a program given the live-out set."""
    if isinstance(prog, Empty):
        return live_out
    if isinstance(prog, Assign):
        return (live_out - {prog.var}) | vars_of_expr(prog.expr)
    if isinstance(prog, Assert):
        return live_out | vars_of_expr(prog.cond)
    if isinstance(prog, If):
        return (vars_of_expr(prog.cond)
                | live_in(prog.then_branch, live_out)
                | live_in(prog.else_branch, live_out))
    if isinstance(prog, While):
        live = live_out
        while True:  # fixpoint; grows monotonically, bounded by vars_of
            updated = live_out | vars_of_expr(prog.cond) | live_in(prog.body, live)
            if updated == live:
                return live
            live = updated
    if isinstance(prog, Seq):
        live = live_out
        for stmt in reversed(stmts_of(prog)):
            live = live_in(stmt, live)
        return live
    if isinstance(prog, Par):
        live: frozenset[str] = live_out
        for branch in prog.branches:
            # No kills credited across branches: union of per-branch liveness.
            live |= live_in(branch, live_out)
        return live
    raise TypeError("not a program: %r" % (prog,))


def live_after_segment(source: SourceFile, segment_id: int,
                       outputs: frozenset[str]) -> frozenset[str]:
    """Live set at the program point just after the marked segment."""
    body = _segment_body(source, segment_id)
    found: list[frozenset[str]] = []

    def walk(prog: Program, live_out: frozenset[str]) -> frozenset[str]:
        # Along a sequence the statements come first to last; liveness is
        # taken last to first.
        firsts = []
        while isinstance(prog, Seq) and prog != body:
            firsts.append(prog.first)
            prog = prog.rest
        if prog == body:
            found.append(live_out)
            live = live_in(prog, live_out)
        elif isinstance(prog, If):
            live = (vars_of_expr(prog.cond)
                    | walk(prog.then_branch, live_out)
                    | walk(prog.else_branch, live_out))
        elif isinstance(prog, While):
            live = live_out
            while True:
                updated = live_out | vars_of_expr(prog.cond) | live_in(prog.body, live)
                if updated == live:
                    break
                live = updated
            walk(prog.body, live)  # record the segment under the loop fixpoint
        else:
            live = live_in(prog, live_out)
        for first in reversed(firsts):
            live = walk(first, live)
        return live

    walk(source.program, frozenset(outputs))
    if not found:
        raise UnknownSegment("segment %d not found in program" % segment_id)
    result: frozenset[str] = frozenset()
    for live in found:
        result |= live
    return result


def _segment_body(source: SourceFile, segment_id: int) -> Program:
    try:
        return source.segments[segment_id]
    except KeyError:
        raise UnknownSegment("no segment with id %d" % segment_id) from None


def summarize_segment(source: SourceFile, segment_id: int,
                      outputs: frozenset[str]) -> UsageSummary:
    body = _segment_body(source, segment_id)
    return UsageSummary(
        vars=vars_of(body),
        modified=modified_vars(body),
        used_before_def=used_before_def(body),
        live_after=live_after_segment(source, segment_id, outputs),
        segment_id=segment_id,
    )


def summarize_program(prog: Program, live_after: frozenset[str],
                      segment_id: int | None = None) -> UsageSummary:
    """Summary for a standalone subprogram with a caller-supplied live set."""
    return UsageSummary(
        vars=vars_of(prog),
        modified=modified_vars(prog),
        used_before_def=used_before_def(prog),
        live_after=frozenset(live_after),
        segment_id=segment_id,
    )


# ---------------------------------------------------------------------------
# Bounded semantic oracles (validation only)

def modified_vars_oracle(prog: Program, domain, max_steps: int) -> frozenset[str]:
    """Variables whose value differs from the initial one in some reachable
    state, over all initial states drawn from the domain."""
    result: set[str] = set()
    names = vars_of(prog)
    for sigma0 in initial_states(names, domain):
        execs, complete = executions(prog, sigma0, max_steps)
        for execution in execs:
            for _, _, sigma in execution.steps:
                for name in names | sigma.support() | sigma0.support():
                    if sigma[name] != sigma0[name]:
                        result.add(name)
        if not complete:
            raise IncompleteExploration(
                "execution bound %d hit while computing modified variables" % max_steps,
                partial=frozenset(result))
    return frozenset(result)


def ub_exec(steps) -> frozenset[str]:
    """Used-before-definition variables of one execution's step sequence."""
    result: set[str] = set()
    assigned: set[str] = set()
    for op, _, _ in steps:
        result.update(op.used_vars() - assigned)
        target = op.assigned_var()
        if target is not None:
            assigned.add(target)
    return frozenset(result)


def ub_oracle(prog: Program, domain, max_steps: int) -> frozenset[str]:
    """Union of per-execution used-before-definition sets over the domain."""
    result: set[str] = set()
    for sigma0 in initial_states(vars_of(prog), domain):
        execs, complete = executions(prog, sigma0, max_steps)
        for execution in execs:
            result.update(ub_exec(execution.steps))
        if not complete:
            raise IncompleteExploration(
                "execution bound %d hit while computing used-before-def" % max_steps,
                partial=frozenset(result))
    return frozenset(result)


def _live_at_oracle(prog: Program, outputs: frozenset[str],
                    max_steps: int) -> tuple[frozenset[str], bool]:
    """Path-based liveness at the entry of `prog`: a variable is live if some
    syntactic path uses it before assigning it, or reaches the empty program
    without assigning it while it is an output."""
    paths, complete = executions(prog, EMPTY_STATE, max_steps, SYNTACTIC)
    live: set[str] = set()
    for path in paths:
        assigned: set[str] = set()
        for op, _, _ in path.steps:
            live.update(op.used_vars() - assigned)
            target = op.assigned_var()
            if target is not None:
                assigned.add(target)
        if isinstance(path.final_program, Empty):
            live.update(outputs - assigned)
    return frozenset(live), complete


def live_after_oracle(source: SourceFile, segment_id: int,
                      outputs: frozenset[str], max_steps: int) -> frozenset[str]:
    """Bounded, path-based version of the live-after set: enumerate syntactic
    paths of the whole program, and wherever the remaining program is the
    segment (possibly followed by a continuation), take the path-based live
    set of the continuation."""
    body = _segment_body(source, segment_id)
    paths, complete = executions(source.program, EMPTY_STATE, max_steps, SYNTACTIC)
    live: set[str] = set()
    configs = {source.program} | {path.final_program for path in paths}
    for config in configs:
        if config == body:
            live.update(outputs)
        elif isinstance(config, Seq) and config.first == body:
            at, sub_complete = _live_at_oracle(config.rest, outputs, max_steps)
            live.update(at)
            complete = complete and sub_complete
    if not complete:
        raise IncompleteExploration(
            "path bound %d hit while computing live-after" % max_steps,
            partial=frozenset(live))
    return frozenset(live)
