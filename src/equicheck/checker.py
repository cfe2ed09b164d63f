"""Bounded-exhaustive verification of tasks and a brute-force equivalence
oracle over a finite domain of initial values.

All searches are deterministic: initial states are enumerated in sorted
variable order with ascending values, and successors follow the fixed
order of the step relation (parallel branch index, then rule order), so
identical inputs always produce identical reports.
"""

from __future__ import annotations

import itertools
import json
from collections import deque
from dataclasses import dataclass

from . import semantics
from .dataflow import live_in, summarize_segment, used_before_def
from .encoder import EquivalenceTask, build_task
from .parser import SourceFile
from .segments import validate_replacement
from .semantics import (DataState, Execution, initial_states,
                        violates_assertion)
from .syntax import Empty, Program, vars_of


def step(prog: Program, sigma: DataState):
    """The checker's step relation: `semantics.step` with its partial-order
    reduction of top-level `par`s.  `_explore` calls it by this name, with
    these two arguments, so that a wrapper put in its place sees every step
    of the checker.  A function, since a `functools.partial` with a keyword
    builds a dict on every call."""
    return semantics.step(prog, sigma, reduce=True)


@dataclass(frozen=True)
class CheckConfig:
    """Bounds of one exploration.

    Initial values range over domain_lo..domain_hi.  No run is followed
    beyond max_steps steps (the breadth-first depth bound), and at most
    max_states configurations are visited from one initial state, the start
    included; the oracle spends that budget once per program.
    """
    domain_lo: int = -2
    domain_hi: int = 2
    max_steps: int = 2000
    max_states: int = 200000

    def __post_init__(self):
        if self.domain_lo > self.domain_hi:
            raise ValueError("empty domain [%d..%d]" % (self.domain_lo, self.domain_hi))
        if self.max_steps < 1 or self.max_states < 1:
            raise ValueError("budgets must be at least 1")

    @property
    def domain(self) -> range:
        return range(self.domain_lo, self.domain_hi + 1)

    def as_dict(self) -> dict:
        return {"domain": [self.domain_lo, self.domain_hi],
                "max_steps": self.max_steps, "max_states": self.max_states}


# ---------------------------------------------------------------------------
# Verdicts

@dataclass(frozen=True)
class NoViolation:
    complete: bool


@dataclass(frozen=True)
class Violation:
    initial: DataState
    trace: Execution


@dataclass(frozen=True)
class ResourceExhausted:
    pass


Verdict = NoViolation | Violation | ResourceExhausted


@dataclass(frozen=True)
class Equivalent:
    complete: bool


@dataclass(frozen=True)
class Inequivalent:
    initial: DataState
    terminal1: DataState
    terminal2: DataState
    witness_var: str


@dataclass(frozen=True)
class Unknown:
    pass


EquivVerdict = Equivalent | Inequivalent | Unknown


# ---------------------------------------------------------------------------
# Exploration

def _explore(prog: Program, sigma0: DataState, cfg: CheckConfig,
             find_violation: bool, reduce: bool = True):
    """Breadth-first search of the configurations reachable from
    (prog, sigma0), in the successor order of `step`, or of the full
    `semantics.step` if not `reduce`.

    `step` skips interleavings of independent `par` branches; it keeps every
    terminal and every violating configuration at its depth and the trace
    to the first violation (`semantics._first_branch_persistent`).  So when
    the search over every interleaving would not be cut, the result is the
    same.  Where a budget would cut it, this search visits fewer
    configurations and may decide instead.  The reverse can happen too: a
    configuration inside a `par` may lie deeper here than in the full graph,
    so a search that the full relation completes within max_steps can be cut
    here.  The result is then incomplete, never unsound.

    With `find_violation`, stops at the first configuration that violates
    an assertion.  Returns (trace, terminals, stop): trace is the
    minimal-length execution reaching that configuration, or None;
    terminals holds the data states of normally terminated runs; stop is
    None after a complete search, "steps" if some run was cut at
    cfg.max_steps, and "states" if more than cfg.max_states configurations
    would have been visited.
    """
    if find_violation and violates_assertion(prog, sigma0):
        return Execution(prog, sigma0), set(), None
    successors_of = step if reduce else semantics.step
    start = (prog, sigma0)
    parents: dict = {start: None}   # configuration -> (parent, op) if tracing
    queue = deque([(start, 0)])
    terminals = set()
    stop = None
    while queue:
        config, depth = queue.popleft()
        if isinstance(config[0], Empty):
            terminals.add(config[1])
            continue
        successors = successors_of(*config)
        if depth >= cfg.max_steps:
            if successors:
                stop = "steps"
            continue
        for op, prog2, sigma2 in successors:
            succ = (prog2, sigma2)
            if succ in parents:
                continue
            parents[succ] = (config, op) if find_violation else None
            if len(parents) > cfg.max_states:
                return None, terminals, "states"
            if find_violation and violates_assertion(prog2, sigma2):
                steps = []
                while parents[succ] is not None:
                    prev, via = parents[succ]
                    steps.append((via, *succ))
                    succ = prev
                return Execution(prog, sigma0, tuple(reversed(steps))), terminals, stop
            queue.append((succ, depth + 1))
    return None, terminals, stop


# ---------------------------------------------------------------------------
# Task checking

def check_program(prog: Program, cfg: CheckConfig) -> Verdict:
    """Verdict for a bare task program: enumerate initial values for its
    used-before-definition variables (others pinned to 0) and explore every
    reachable configuration from each."""
    complete = True
    for sigma0 in initial_states(used_before_def(prog), cfg.domain):
        trace, _, stop = _explore(prog, sigma0, cfg, find_violation=True)
        if stop == "states":
            return ResourceExhausted()
        if trace is not None:
            return Violation(initial=sigma0, trace=trace)
        complete = complete and stop is None
    return NoViolation(complete=complete)


def check_task(task: EquivalenceTask, cfg: CheckConfig) -> Verdict:
    return check_program(task.task, cfg)


# ---------------------------------------------------------------------------
# Brute-force partial-equivalence oracle

def _disagreement(t1, t2, outputs):
    """The first output on which two sets of terminal states disagree, with
    the least terminal state of each side that shows it: (var, term1,
    term2), or None when they agree on every output."""
    for var in outputs:
        values1 = {sigma[var] for sigma in t1}
        values2 = {sigma[var] for sigma in t2}
        if not values1 or not values2 or len(values1 | values2) == 1:
            continue

        def key(s):
            return (s[var], sorted(s.as_dict().items()))
        term1 = min(t1, key=key)
        term2 = min((s for s in t2 if s[var] != term1[var]), key=key,
                    default=None)
        if term2 is None:
            # All of t2 equals term1 on var; the disagreement is within t1,
            # pick the other side there.
            term2 = min(t2, key=key)
            term1 = min((s for s in t1 if s[var] != term2[var]), key=key)
        return var, term1, term2
    return None


def oracle_partial_equiv(s1: Program, s2: Program, outputs,
                         cfg: CheckConfig) -> EquivVerdict:
    """Exhaustive check of partial equivalence w.r.t. the output variables:
    for every initial state over the domain, all pairs of normally
    terminating runs must agree on every output variable.

    The runs are explored over every interleaving, without the checker's
    partial-order reduction: the oracle is the reference that the checker's
    verdicts are compared with, so it shares none of its reductions of `par`,
    and its cost on a `par` does not hinge on how many branch steps happen
    to be independent.

    Only the variables live in either program w.r.t. the outputs
    (`live_in`) range over the domain; every other variable is fixed at
    cfg.domain_lo.  Why verdicts and witnesses stay those of enumerating
    every variable:
    - Guards and asserts count as uses, an output that is never written
      stays live, and `par` branches kill nothing across each other.  So a
      dead variable is written before it is read on every path of every
      interleaving, or never read, and decides no guard, no assert and no
      output value.  Runs from two initial states that differ only in dead
      variables correspond step for step and end with the same outputs.
    - So when no exploration is cut, the initial states whose runs disagree
      form B_live x D^dead, and the first of them in sorted order has
      domain_lo in every dead variable.  The states enumerated here are a
      subsequence of the full enumeration, in its order, that contains this
      one: both meet it first, with the same terminal states and witness,
      and `Equivalent` stays `Equivalent`.
    - A budget may cut the two explorations differently, since states that
      differ in dead variables can merge into different numbers of
      configurations.  The answer stays sound: an `Inequivalent` is a pair
      of concrete terminating runs, and `Equivalent` needs every enumerated
      state explored completely, which decides the dropped states too.  So
      an `Unknown` of the full enumeration may become `Equivalent`, and an
      `Inequivalent` may become `Unknown` or show another witness.
    """
    outputs = sorted(set(outputs))
    names = sorted(vars_of(s1) | vars_of(s2) | set(outputs))
    live = names
    if len(cfg.domain) > 1:  # a one-value domain has nothing to drop
        live = live_in(s1, frozenset(outputs)) | live_in(s2, frozenset(outputs))
    values = [cfg.domain if name in live else (cfg.domain_lo,) for name in names]
    any_truncated = False
    for combo in itertools.product(*values):
        sigma0 = DataState(dict(zip(names, combo)))
        _, t1, stop1 = _explore(s1, sigma0, cfg, find_violation=False,
                                reduce=False)
        _, t2, stop2 = _explore(s2, sigma0, cfg, find_violation=False,
                                reduce=False)
        any_truncated = any_truncated or stop1 is not None or stop2 is not None
        found = _disagreement(t1, t2, outputs)
        if found is not None:
            var, term1, term2 = found
            return Inequivalent(initial=sigma0, terminal1=term1,
                                terminal2=term2, witness_var=var)
    if any_truncated:
        return Unknown()
    return Equivalent(complete=True)


# ---------------------------------------------------------------------------
# Whole-pair pipeline

@dataclass(frozen=True)
class SegmentResult:
    segment_id: int
    task: EquivalenceTask
    verdict: Verdict

    def as_dict(self) -> dict:
        entry = {
            "id": self.segment_id,
            "verdict": type(self.verdict).__name__,
            "complete": isinstance(self.verdict, NoViolation) and self.verdict.complete,
            "initial_state": None,
            "trace": None,
            "sets": {key: value for key, value in self.task.metadata().items()
                     if key not in ("segment_id", "renaming")},
        }
        if isinstance(self.verdict, Violation):
            entry["initial_state"] = self.verdict.initial.as_dict()
            entry["trace"] = trace_as_dicts(self.verdict.trace)
        return entry


@dataclass(frozen=True)
class PipelineReport:
    verdict: str  # "Equivalent" | "PossiblyInequivalent" | "Unknown"
    segments: tuple[SegmentResult, ...]
    config: CheckConfig
    generator_seed: int | None = None

    def as_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "segments": [seg.as_dict() for seg in self.segments],
            "config": self.config.as_dict(),
            "generator_seed": self.generator_seed,
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2) + "\n"


def trace_as_dicts(trace: Execution) -> list[dict]:
    out = []
    for op, prog, sigma in trace.steps:
        entry = {"op": op.kind, "state": sigma.as_dict()}
        if op.kind == "assign":
            entry["var"] = op.var
        out.append(entry)
    return out


def build_tasks(original: SourceFile, modified: SourceFile,
                outputs=None) -> list[EquivalenceTask]:
    """Validate the replacement and build one task per segment pair."""
    if outputs is None:
        outputs = frozenset(original.outputs) | frozenset(modified.outputs)
    outputs = frozenset(outputs)
    tasks = []
    for pair in validate_replacement(original, modified):
        summary1 = summarize_segment(original, pair.segment_id, outputs)
        summary2 = summarize_segment(modified, pair.segment_id, outputs)
        tasks.append(build_task(pair.original, pair.modified, summary1, summary2,
                                segment_id=pair.segment_id))
    return tasks


def verify_pair(original: SourceFile, modified: SourceFile, cfg: CheckConfig,
                outputs=None, generator_seed: int | None = None) -> PipelineReport:
    """End-to-end pipeline: segments, summaries, tasks, bounded checking."""
    tasks = build_tasks(original, modified, outputs)
    results = []
    for task in tasks:
        verdict = check_task(task, cfg)
        results.append(SegmentResult(task.segment_id, task, verdict))
    if any(isinstance(r.verdict, Violation) for r in results):
        overall = "PossiblyInequivalent"
    elif all(isinstance(r.verdict, NoViolation) and r.verdict.complete
             for r in results):
        overall = "Equivalent"
    else:
        overall = "Unknown"
    return PipelineReport(verdict=overall, segments=tuple(results), config=cfg,
                          generator_seed=generator_seed)
