"""Construction of equivalence verification tasks.

For a pair of subprograms the task is the sequential composition of an
initialization block, the first subprogram with its possibly-modified
variables renamed to fresh duplicates, the second subprogram, and a block
of asserts comparing duplicated output variables.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .dataflow import UsageSummary
from .errors import RenamingValidationFailed
from .syntax import (Assert, Assign, Cmp, EMPTY, Not, Program, RenamingFn,
                     Seq, Var, While, map_program, pretty_print, relabel,
                     rename_program, seq_of, vars_of)


def to_seq(names) -> tuple[str, ...]:
    """Deterministic sequence for a variable set: lexicographic order."""
    return tuple(sorted(set(names)))


def fresh_switch(mods, forbidden) -> dict[str, str]:
    """Injective map from possibly-modified variables to fresh duplicates.

    Candidates are v_s, v_s2, v_s3, ... skipping forbidden names and names
    already chosen; deterministic for a given input set.
    """
    forbidden = set(forbidden)
    switch: dict[str, str] = {}
    for name in sorted(set(mods)):
        candidate = name + "_s"
        counter = 2
        while candidate in forbidden:
            candidate = "%s_s%d" % (name, counter)
            counter += 1
        switch[name] = candidate
        forbidden.add(candidate)
    return switch


def build_rho_switch(switch: dict[str, str]) -> RenamingFn:
    """Bijective renaming that swaps each variable with its duplicate."""
    return RenamingFn.involution(switch)


@dataclass(frozen=True)
class RenamingViolation:
    condition: str  # "a" | "b"
    var: str
    image: str


def validate_renaming(rho: RenamingFn, s1: Program, s2: Program,
                      m1, m2, init_set) -> list[RenamingViolation]:
    """Check the non-interference conditions on rho; empty list means ok.

    (b) for v in V(S1) u M2: rho(v) not in M2, and
        for v in M1: rho(v) not in V(S2) u M1;
    (a) for v in the init set: rho(v) = v or rho(v) outside the init set.
    """
    m1, m2 = set(m1), set(m2)
    init_set = set(init_set)
    v1, v2 = vars_of(s1), vars_of(s2)
    violations = []
    for var in sorted(v1 | m2):
        if rho(var) in m2:
            violations.append(RenamingViolation("b", var, rho(var)))
    for var in sorted(m1):
        if rho(var) in v2 | m1:
            violations.append(RenamingViolation("b", var, rho(var)))
    for var in sorted(init_set):
        if rho(var) != var and rho(var) in init_set:
            violations.append(RenamingViolation("a", var, rho(var)))
    return violations


def init_block(rho: RenamingFn, names: tuple[str, ...]) -> Program:
    """v := rho(v) for each v, in order; the empty program for no names."""
    return seq_of(Assign(0, name, Var(rho(name))) for name in names)


def equal_block(rho: RenamingFn, names: tuple[str, ...]) -> Program:
    """assert rho(v) == v for each v, in order."""
    return seq_of(Assert(0, Cmp("==", Var(rho(name)), Var(name)))
                  for name in names)


def neutralize_asserts(prog: Program) -> Program:
    """Rewrite assert b into `while (!(b)) {}`, which assumes b: a run on
    which b fails never ends, as it is stuck in the real program, and a run
    on which b holds goes on.  So the task cannot fail inside the copied
    subprograms themselves, and still checks every run that ends normally."""
    def neutralize(node):
        if isinstance(node, Assert):
            return While(node.label, Not(node.cond), EMPTY), False
        return node, True

    return map_program(prog, neutralize)


@dataclass(frozen=True)
class EquivalenceTask:
    task: Program
    rho: RenamingFn
    init_set: frozenset[str]
    check_set: frozenset[str]
    duplicates: dict[str, str]
    shared: frozenset[str]
    summary_original: UsageSummary
    summary_modified: UsageSummary
    segment_id: int | None = None

    def parts(self) -> tuple[Program, Program, Program, Program]:
        """The four blocks: init, renamed original, modified, equal."""
        init = self.task.first
        rest = self.task.rest
        return init, rest.first, rest.rest.first, rest.rest.rest

    def to_source(self) -> str:
        return pretty_print(self.task)

    def metadata(self) -> dict:
        return {
            "segment_id": self.segment_id,
            "renaming": self.rho.pairs(),
            "init_set": sorted(self.init_set),
            "check_set": sorted(self.check_set),
            "shared": sorted(self.shared),
            "duplicates": dict(sorted(self.duplicates.items())),
            "summary_original": self.summary_original.as_dict(),
            "summary_modified": self.summary_modified.as_dict(),
        }

    def metadata_json(self) -> str:
        return json.dumps(self.metadata(), indent=2, sort_keys=False) + "\n"


def build_task(s1: Program, s2: Program, summary1: UsageSummary,
               summary2: UsageSummary,
               segment_id: int | None = None) -> EquivalenceTask:
    """Assemble the equivalence task for one segment pair."""
    u1, u2 = summary1.used_before_def, summary2.used_before_def
    m1, m2 = summary1.modified, summary2.modified
    l1, l2 = summary1.live_after, summary2.live_after

    init_set = (u1 & u2) & (m1 | m2)
    check_set = (m1 | m2) & (l1 | l2)
    v1, v2 = vars_of(s1), vars_of(s2)
    switch = fresh_switch(m1 | m2, v1 | v2)
    rho = build_rho_switch(switch)

    violations = validate_renaming(rho, s1, s2, m1, m2, init_set)
    if violations:  # unreachable for generated switches; guards custom inputs
        raise RenamingValidationFailed("renaming violates side conditions: %s"
                                       % violations)

    renamed = rename_program(neutralize_asserts(s1), rho)
    body2 = neutralize_asserts(s2)
    task = Seq(init_block(rho, to_seq(init_set)),
               Seq(renamed,
                   Seq(body2,
                       equal_block(rho, to_seq(check_set)))))
    task = relabel(task)

    shared = (v1 & v2) - (m1 | m2)
    return EquivalenceTask(
        task=task,
        rho=rho,
        init_set=init_set,
        check_set=check_set,
        duplicates=switch,
        shared=shared,
        summary_original=summary1,
        summary_modified=summary2,
        segment_id=segment_id,
    )
