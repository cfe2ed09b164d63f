"""Shared property-check helpers used by the unit and acceptance suites.

Each check_* function runs one randomized instance and raises AssertionError
on failure, so suites can drive them with whatever instance counts they need.
"""

import contextlib
import dataclasses
import itertools
import random

from equicheck import checker, semantics
from equicheck.checker import (CheckConfig, Equivalent, Inequivalent,
                               NoViolation, Unknown, Violation, _disagreement,
                               _explore, check_program, check_task,
                               oracle_partial_equiv, verify_pair)
from equicheck.dataflow import (live_after_segment, live_in,
                                modified_vars_oracle, summarize_program,
                                used_before_def)
from equicheck.encoder import (build_rho_switch, build_task, equal_block,
                               fresh_switch, init_block, to_seq,
                               validate_renaming)
from equicheck.errors import IncompleteExploration
from equicheck.generate import GenConfig, ProgramGenerator
from equicheck.parser import parse
from equicheck.semantics import (DataState, executions, initial_states, step,
                                 violates_assertion)
from equicheck.syntax import (Assert, Assign, Empty, If, Par, Seq, While,
                              format_bexpr, nodes, pretty_print, relabel,
                              seq_of, stmts_of, vars_of, vars_of_expr)

SMALL = GenConfig(max_vars=2, max_stmts=4, max_depth=1, max_loop_bound=2)
SMALL_ASSERTS = dataclasses.replace(SMALL, allow_asserts=True)


def segment_pair(seed):
    """A pair of small segment programs; even seeds give behavior-preserving
    perturbations, odd seeds independent programs."""
    gen = ProgramGenerator(seed, SMALL)
    if seed % 2 == 0:
        return gen.equivalent_pair()
    return gen.random_pair()


# ---------------------------------------------------------------------------
# Block-level properties

def check_init_block_property(seed):
    """Running the initialization block from any state copies rho(v) into v
    and leaves rho(v) itself untouched."""
    rng = random.Random(seed)
    names = sorted(rng.sample(["a", "b", "c", "d"], rng.randint(1, 3)))
    rho = build_rho_switch(fresh_switch(names, set(names)))
    block = init_block(rho, to_seq(names))
    involved = [n for name in names for n in (name, rho(name))]
    for values in itertools.product(range(-2, 3), repeat=len(involved)):
        sigma = DataState(dict(zip(involved, values)))
        current, prog = sigma, block
        while not isinstance(prog, Empty):
            [(_, prog, current)] = step(prog, current)
        for name in names:
            assert current[name] == current[rho(name)] == sigma[rho(name)]


def check_equal_block_property(seed):
    """If the equality block runs to completion from sigma, then sigma agrees
    with its rho-image on every checked variable, and conversely a
    disagreement gets stuck at the offending assert."""
    rng = random.Random(seed)
    names = sorted(rng.sample(["a", "b", "c"], rng.randint(1, 3)))
    rho = build_rho_switch(fresh_switch(names, set(names)))
    block = equal_block(rho, to_seq(names))
    involved = [n for name in names for n in (name, rho(name))]
    sigma = DataState({n: rng.randint(-2, 2) for n in involved})
    prog, current = block, sigma
    while not isinstance(prog, Empty):
        successors = step(prog, current)
        if not successors:
            break
        [(_, prog, current)] = successors
    completed = isinstance(prog, Empty)
    agree = all(sigma[n] == sigma[rho(n)] for n in names)
    assert completed == agree


def check_generated_renaming_property(seed):
    """The generated switch renaming always satisfies conditions (a)/(b)."""
    s1, s2 = segment_pair(seed)
    sum1 = summarize_program(s1, frozenset({"x"}))
    sum2 = summarize_program(s2, frozenset({"x"}))
    m1, m2 = sum1.modified, sum2.modified
    switch = fresh_switch(m1 | m2, vars_of(s1) | vars_of(s2))
    rho = build_rho_switch(switch)
    init_set = (sum1.used_before_def & sum2.used_before_def) & (m1 | m2)
    assert validate_renaming(rho, s1, s2, m1, m2, init_set) == []


# ---------------------------------------------------------------------------
# Soundness properties

def check_segment_task_soundness(seed, cfg=None):
    """NoViolation{complete} on the task implies oracle equivalence of the
    bare segments on the guaranteed variable set.  Returns the
    verdict pair for reporting."""
    cfg = cfg or CheckConfig(-2, 2, max_steps=400, max_states=400000)
    s1, s2 = segment_pair(seed)
    outputs = frozenset({"x"})
    sum1 = summarize_program(s1, outputs)
    sum2 = summarize_program(s2, outputs)
    task = build_task(s1, s2, sum1, sum2)
    verdict = check_task(task, cfg)
    if not (isinstance(verdict, NoViolation) and verdict.complete):
        return verdict, None
    try:
        sem_m = (modified_vars_oracle(s1, cfg.domain, cfg.max_steps)
                 | modified_vars_oracle(s2, cfg.domain, cfg.max_steps))
    except IncompleteExploration:
        return verdict, None
    conclusion_vars = (vars_of(s1) | vars_of(s2)) - (sem_m - task.check_set)
    oracle = oracle_partial_equiv(s1, s2, conclusion_vars, cfg)
    assert isinstance(oracle, Equivalent), (
        "soundness violated for seed %d: task says no violation but oracle "
        "says %r" % (seed, oracle))
    return verdict, oracle


def check_pipeline_soundness(seed, cfg=None, segment_head="", config=SMALL):
    """Pipeline Equivalent verdicts are never contradicted by the
    whole-program oracle.  `segment_head` is source text put at the start
    of both segments; `config` is the generator's."""
    cfg = cfg or CheckConfig(-2, 2, max_steps=400, max_states=400000)
    gen = ProgramGenerator(seed, config)
    text1, text2 = (text.replace("#segment 1 {\n", "#segment 1 {\n" + segment_head)
                    for text in gen.source_pair())
    orig, mod = parse(text1), parse(text2)
    report = verify_pair(orig, mod, cfg)
    if report.verdict != "Equivalent":
        return report.verdict, None
    outputs = frozenset(orig.outputs)
    oracle = oracle_partial_equiv(orig.program, mod.program, outputs, cfg)
    assert isinstance(oracle, Equivalent), (
        "pipeline Equivalent contradicted by oracle for seed %d: %r"
        % (seed, oracle))
    return report.verdict, oracle


# ---------------------------------------------------------------------------
# Dataflow containment property (criterion-8 shape)

def check_dataflow_containment(seed):
    from equicheck.dataflow import (live_after_oracle, summarize_segment,
                                    ub_oracle)

    gen = ProgramGenerator(seed, GenConfig(max_vars=3, max_stmts=5,
                                           max_depth=2, max_loop_bound=2))
    body = gen.program()
    prefix = gen.block(2, 0, False)
    suffix = gen.block(2, 0, False)
    src = parse("#outputs x;\n%s\n#segment 1 {\n%s\n}\n%s\n"
                % (pretty_print(prefix), pretty_print(body),
                   pretty_print(suffix)))
    summary = summarize_segment(src, 1, frozenset(src.outputs))
    domain = range(-1, 2)

    try:
        sem_mod = modified_vars_oracle(src.segments[1], domain, 400)
    except IncompleteExploration as exc:
        sem_mod = exc.partial
    assert sem_mod <= summary.modified

    try:
        sem_ub = ub_oracle(src.segments[1], domain, 400)
    except IncompleteExploration as exc:
        sem_ub = exc.partial
    assert sem_ub <= summary.used_before_def

    try:
        sem_live = live_after_oracle(src, 1, frozenset(src.outputs), 60)
    except IncompleteExploration as exc:
        sem_live = exc.partial
    assert sem_live <= summary.live_after


# ---------------------------------------------------------------------------
# The plain paths

@contextlib.contextmanager
def unreduced(stops=None):
    """Let the checker's explorer step every interleaving: inside the block,
    `checker.step` is the plain `semantics.step`, without its partial-order
    reduction of `par`.  Given a list `stops`, every exploration appends its
    stop reason to it."""
    saved_step, saved_explore = checker.step, checker._explore

    def explore(*args, **kwargs):
        result = saved_explore(*args, **kwargs)
        stops.append(result[2])
        return result

    checker.step = semantics.step
    if stops is not None:
        checker._explore = explore
    try:
        yield
    finally:
        checker.step, checker._explore = saved_step, saved_explore


def full_enumeration_oracle(s1, s2, outputs, cfg):
    """`oracle_partial_equiv` without its live-input reduction: every
    variable of both programs and every output ranges over the whole
    domain.  Like the oracle, it explores every interleaving."""
    outputs = sorted(set(outputs))
    truncated = False
    for sigma0 in initial_states(vars_of(s1) | vars_of(s2) | set(outputs),
                                 cfg.domain):
        _, t1, stop1 = _explore(s1, sigma0, cfg, False, reduce=False)
        _, t2, stop2 = _explore(s2, sigma0, cfg, False, reduce=False)
        truncated = truncated or stop1 is not None or stop2 is not None
        found = _disagreement(t1, t2, outputs)
        if found is not None:
            var, term1, term2 = found
            return Inequivalent(initial=sigma0, terminal1=term1,
                                terminal2=term2, witness_var=var)
    return Unknown() if truncated else Equivalent(complete=True)


def oracle_pair(seed):
    """Two programs and their outputs for the oracle: a random pair, an
    equivalent pair or the whole programs of a source pair, by seed mod 3,
    all with loops, par and asserts."""
    gen = ProgramGenerator(seed, SMALL_ASSERTS)
    if seed % 3 == 0:
        return gen.random_pair() + (frozenset({"x"}),)
    if seed % 3 == 1:
        return gen.equivalent_pair() + (frozenset({"x", "y"}),)
    orig, mod = (parse(text) for text in gen.source_pair())
    return orig.program, mod.program, frozenset(orig.outputs)


def check_oracle_reduction(seed, cfg):
    """The oracle over live inputs gives the verdict and witness of the full
    enumeration; only where a budget cut the full one may it decide
    `Equivalent` instead of `Unknown`.  Returns the verdict."""
    s1, s2, outputs = oracle_pair(seed)
    reduced = oracle_partial_equiv(s1, s2, outputs, cfg)
    full = full_enumeration_oracle(s1, s2, outputs, cfg)
    if isinstance(full, Unknown):
        assert isinstance(reduced, (Unknown, Equivalent)), (seed, reduced)
    else:
        assert reduced == full, (seed, reduced, full)
    return reduced


# ---------------------------------------------------------------------------
# The partial-order reduction against every interleaving

def par_program(seed, budget=3, max_vars=2):
    """A `par` of two or three generated branches with loops and ifs, about
    one in five of them allowed a nested `par`, followed by a short block
    that ends in an assert.  Every fourth seed also puts asserts in the
    branches."""
    config = dataclasses.replace(SMALL, max_vars=max_vars,
                                 allow_asserts=seed % 4 == 0)
    gen = ProgramGenerator(seed, config)
    rng = gen.rng
    branches = tuple(gen.block(budget, 1, rng.random() < 0.2)
                     for _ in range(rng.choice([2, 2, 3])))
    suffix = seq_of(stmts_of(gen.block(2, 0, False)) + [Assert(0, gen.bexpr(1))])
    return relabel(Seq(Par(branches), suffix))


def replays(trace):
    """Whether every step of a trace is a step of the full relation and the
    trace ends in a configuration that violates an assertion."""
    current = (trace.initial_program, trace.initial_state)
    for op, prog, sigma in trace.steps:
        if (op, prog, sigma) not in step(*current):
            return False
        current = (prog, sigma)
    return violates_assertion(*current)


def check_reduction_differential(seed, cfg, **sizes):
    """The checker gives what it gives over every interleaving wherever that
    search is not cut; where it is cut, a reduced violation still replays
    under the full step relation.  Returns whether the unreduced search was
    cut."""
    par = par_program(seed, **sizes)
    stops = []
    verdict = check_program(par, cfg)
    with unreduced(stops):
        full_verdict = check_program(par, cfg)
    if any(stops):
        assert not isinstance(verdict, Violation) or replays(verdict.trace), seed
        return True
    assert verdict == full_verdict, seed
    return False


# ---------------------------------------------------------------------------
# Liveness against the three walkers it replaced

def ub_walk_reference(prog, defined):
    """Forward definite-assignment walk: (variables read while not in
    `defined`, `defined` plus what `prog` assigns on every path).  A loop
    and a `par` add nothing to `defined`."""
    if isinstance(prog, Empty):
        return frozenset(), defined
    if isinstance(prog, Assign):
        return vars_of_expr(prog.expr) - defined, defined | {prog.var}
    if isinstance(prog, Assert):
        return vars_of_expr(prog.cond) - defined, defined
    if isinstance(prog, If):
        cond_uses = vars_of_expr(prog.cond) - defined
        then_ub, then_def = ub_walk_reference(prog.then_branch, defined)
        else_ub, else_def = ub_walk_reference(prog.else_branch, defined)
        return cond_uses | then_ub | else_ub, then_def & else_def
    if isinstance(prog, While):
        cond_uses = vars_of_expr(prog.cond) - defined
        body_ub, _ = ub_walk_reference(prog.body, defined)
        return cond_uses | body_ub, defined
    if isinstance(prog, Seq):
        ub = frozenset()
        for stmt in stmts_of(prog):
            stmt_ub, defined = ub_walk_reference(stmt, defined)
            ub |= stmt_ub
        return ub, defined
    if isinstance(prog, Par):
        ub = frozenset()
        for branch in prog.branches:
            branch_ub, _ = ub_walk_reference(branch, defined)
            ub |= branch_ub
        return ub, defined
    raise TypeError("not a program: %r" % (prog,))


def live_in_reference(prog, live_out):
    """Backward liveness that iterates each loop to its fixpoint."""
    if isinstance(prog, Empty):
        return live_out
    if isinstance(prog, Assign):
        return (live_out - {prog.var}) | vars_of_expr(prog.expr)
    if isinstance(prog, Assert):
        return live_out | vars_of_expr(prog.cond)
    if isinstance(prog, If):
        return (vars_of_expr(prog.cond)
                | live_in_reference(prog.then_branch, live_out)
                | live_in_reference(prog.else_branch, live_out))
    if isinstance(prog, While):
        live = live_out
        while True:
            updated = (live_out | vars_of_expr(prog.cond)
                       | live_in_reference(prog.body, live))
            if updated == live:
                return live
            live = updated
    if isinstance(prog, Seq):
        live = live_out
        for stmt in reversed(stmts_of(prog)):
            live = live_in_reference(stmt, live)
        return live
    if isinstance(prog, Par):
        live = live_out
        for branch in prog.branches:
            live |= live_in_reference(branch, live_out)
        return live
    raise TypeError("not a program: %r" % (prog,))


def live_after_reference(source, segment_id, outputs):
    """Live set after a segment by one backward walk of the whole program
    that records the live-out set wherever it meets the body, with each
    enclosing loop at its fixpoint."""
    body = source.segments[segment_id]
    found = []

    def walk(prog, live_out):
        firsts = []
        while isinstance(prog, Seq) and prog != body:
            firsts.append(prog.first)
            prog = prog.rest
        if prog == body:
            found.append(live_out)
            live = live_in_reference(prog, live_out)
        elif isinstance(prog, If):
            live = (vars_of_expr(prog.cond)
                    | walk(prog.then_branch, live_out)
                    | walk(prog.else_branch, live_out))
        elif isinstance(prog, While):
            live = live_in_reference(prog, live_out)
            walk(prog.body, live)
        else:
            live = live_in_reference(prog, live_out)
        for first in reversed(firsts):
            live = walk(first, live)
        return live

    walk(source.program, frozenset(outputs))
    assert found, segment_id
    return frozenset().union(*found)


LIVENESS_GEN = GenConfig(max_vars=3, max_stmts=5, max_depth=2,
                         max_loop_bound=2, allow_asserts=True)


def liveness_source(seed):
    """A program whose segment sits in a `while`, an `if` or a plain
    sequence by seed mod 3, and on odd seeds one block deeper in a random
    one of them; every block of context may hold a `par`, and asserts are
    on."""
    gen = ProgramGenerator(seed, LIVENESS_GEN)
    rng = gen.rng

    def context():
        return pretty_print(gen.block(4, 1, True))

    text = "#segment 1 {\n%s}\n" % pretty_print(gen.program())
    kinds = [("while", "if", "seq")[seed % 3]]
    if seed % 2:
        kinds.append(rng.choice(["while", "if", "seq"]))
    for kind in kinds:
        text = context() + text + context()
        if kind == "while":
            text = "while (%s) {\n%s}\n" % (format_bexpr(gen.bexpr()), text)
        elif kind == "if":
            text = ("if (%s) {\n%s} else {\n%s}\n"
                    % (format_bexpr(gen.bexpr()), text, context()))
    return parse("#outputs x;\n" + context() + text + context())


def check_liveness_against_references(seed):
    """`used_before_def` and `live_in` on every subprogram, and
    `live_after_segment`, equal the walkers they replaced, for live-out
    sets ∅, the outputs and every variable."""
    src = liveness_source(seed)
    everything = vars_of(src.program)
    for live_out in (frozenset(), frozenset(src.outputs), everything):
        for node in nodes(src.program):
            assert live_in(node, live_out) == live_in_reference(node, live_out), (
                seed, node, live_out)
        assert (live_after_segment(src, 1, live_out)
                == live_after_reference(src, 1, live_out)), (seed, live_out)
    for node in nodes(src.program):
        assert used_before_def(node) == ub_walk_reference(node, frozenset())[0], (
            seed, node)
