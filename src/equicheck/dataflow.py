"""Syntactic usage analyses and their bounded semantic oracles.

The three syntactic sets (modified, used-before-definition, live-after)
overapproximate their semantic definitions; the last two are both answers
of one liveness analysis, `live_in`.  The oracles enumerate bounded
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
# Liveness: used before definition, live in and live after

def used_before_def(prog: Program) -> frozenset[str]:
    """Variables that may be read before being assigned: `live_in(prog, ∅)`.

    A use counts unless the variable is assigned on every syntactic path
    reaching it; assignments inside a `par` never count (see `live_in`).
    """
    return live_in(prog, frozenset())


def live_in(prog: Program, live_out: frozenset[str]) -> frozenset[str]:
    """Backward liveness through a program given the live-out set.

    In gen/kill form (Kildall, POPL 1973), by induction on P,
    live_in(P, X) = U(P) | (X - D(P)), where U(P) is what P may read before
    assigning it and D(P) what P assigns on every path:
    - `v := e`: gen vars(e), kill {v};
    - `assert b`: gen vars(b), kill nothing;
    - `if`: gen vars(cond) | U_then | U_else, kill D_then & D_else;
    - sequence: gen U1 | (U2 - D1), kill D1 | D2;
    - `par`: gen the union of the branches' U, kill nothing: no branch's
      assignment is credited to another branch or to the code after it;
    - `while`: the live set at the loop head is the least L with
      L = X | vars(cond) | U_body | (L - D_body).  Every solution contains
      X | vars(cond) | U_body, which is one, since L - D_body is in L.  So
      the first pass is the fixpoint, and the loop kills nothing.
    So U(P) = live_in(P, ∅), which is `used_before_def`, and the live set
    after a segment is `live_in` of what runs after it
    (`live_after_segment`).
    """
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
        return live_out | vars_of_expr(prog.cond) | live_in(prog.body, live_out)
    if isinstance(prog, Seq):
        live = live_out
        for stmt in reversed(stmts_of(prog)):
            live = live_in(stmt, live)
        return live
    if isinstance(prog, Par):
        return live_out.union(*(live_in(b, live_out) for b in prog.branches))
    raise TypeError("not a program: %r" % (prog,))


def live_after_segment(source: SourceFile, segment_id: int,
                       outputs: frozenset[str]) -> frozenset[str]:
    """Live set at the program point just after the marked segment: the
    liveness of what runs after its body, with the outputs live at the end.

    What runs after the body is, innermost first, the rest of each
    enclosing sequence and each enclosing loop, which may run again.  An
    enclosing `if` adds nothing, and the parser keeps segments out of `par`.
    """
    body = _segment_body(source, segment_id)
    # Depth-first search for the body, without recursion; each node goes
    # with what runs after it, innermost first.
    stack = [(source.program, ())]
    while stack:
        prog, after = stack.pop()
        while isinstance(prog, Seq) and prog != body:
            stack.append((prog.first, (prog.rest,) + after))
            prog = prog.rest
        if prog == body:
            live = frozenset(outputs)
            for part in reversed(after):
                live = live_in(part, live)
            return live
        if isinstance(prog, If):
            stack += ((prog.else_branch, after), (prog.then_branch, after))
        elif isinstance(prog, While):
            stack.append((prog.body, (prog,) + after))
    raise UnknownSegment("segment %d not found in program" % segment_id)


def _segment_body(source: SourceFile, segment_id: int) -> Program:
    try:
        return source.segments[segment_id]
    except KeyError:
        raise UnknownSegment("no segment with id %d" % segment_id) from None


def summarize_segment(source: SourceFile, segment_id: int,
                      outputs: frozenset[str]) -> UsageSummary:
    return summarize_program(_segment_body(source, segment_id),
                             live_after_segment(source, segment_id, outputs),
                             segment_id)


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
