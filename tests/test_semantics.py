import random

import pytest

from equicheck.dataflow import modified_vars
from equicheck.generate import GenConfig, ProgramGenerator
from equicheck.parser import parse_program
from equicheck.semantics import (CONCRETE, DataState, EMPTY_STATE, Execution,
                                 SYNTACTIC, eval_aexpr, eval_bexpr,
                                 executions, initial_states, rename_state,
                                 step, violates_assertion)
from equicheck.syntax import (Empty, Par, RenamingFn, Var, rename_program,
                              vars_of)


def state(**values):
    return DataState(values)


# ---------------------------------------------------------------------------
# DataState and evaluation

def test_default_zero_and_finite_support():
    sigma = state(x=3)
    assert sigma["x"] == 3
    assert sigma["never_mentioned"] == 0
    assert sigma.support() == {"x"}


def test_zero_assignment_drops_from_support():
    sigma = state(x=3).set("x", 0)
    assert sigma == EMPTY_STATE
    assert hash(sigma) == hash(EMPTY_STATE)


def test_eval_arbitrary_precision():
    prog = parse_program("x := y * y;")
    sigma = state(y=10 ** 20)
    _, _, sigma2 = step(prog, sigma)[0]
    assert sigma2["x"] == 10 ** 40


def test_eval_invariant_outside_used_vars():
    expr = parse_program("t := x + 2 * y;").first.expr
    sigma = state(x=1, y=2, z=5)
    assert eval_aexpr(sigma, expr) == eval_aexpr(sigma.set("z", -7), expr)


def test_rename_state():
    rho = RenamingFn.involution({"x": "x_s"})
    sigma = state(x=1, x_s=2, y=3)
    renamed = rename_state(sigma, rho)
    assert renamed.as_dict() == {"x": 2, "x_s": 1, "y": 3}


# ---------------------------------------------------------------------------
# Step relation

def test_assign_step():
    prog = parse_program("x := 1;")
    successors = step(prog.first, EMPTY_STATE)
    assert len(successors) == 1
    op, prog2, sigma2 = successors[0]
    assert op.kind == "assign"
    assert isinstance(prog2, Empty)
    assert sigma2["x"] == 1


def test_failed_assert_is_stuck():
    prog = parse_program("assert (1 == 2);").first
    assert step(prog, EMPTY_STATE) == []
    assert violates_assertion(prog, EMPTY_STATE)


def test_passing_assert_steps():
    prog = parse_program("assert (1 == 1);").first
    [(op, prog2, _)] = step(prog, EMPTY_STATE)
    assert op.kind == "guard"
    assert isinstance(prog2, Empty)
    assert not violates_assertion(prog, EMPTY_STATE)


def test_seq_empty_emits_nop():
    prog = parse_program("x := 1; y := 2;")
    # After the first assignment the head becomes E; E;S -> S is a nop.
    _, prog2, sigma = step(prog, EMPTY_STATE)[0]
    [(op, prog3, _)] = step(prog2, sigma)
    assert op.kind == "nop"


def test_while_unfolds():
    prog = parse_program("while (x > 0) { x := x - 1; }").first
    [(op, prog2, _)] = step(prog, state(x=2))
    assert op.kind == "guard" and not op.negated
    [(op_done, prog_done, _)] = step(prog, state(x=0))
    assert op_done.negated and isinstance(prog_done, Empty)


def test_par_interleaving_choice():
    prog = parse_program("par { x := 1; } { y := 2; }").first
    successors = step(prog, EMPTY_STATE)
    assert len(successors) == 2
    assert {s[2]["x"] for s in successors} == {0, 1}


def test_par_all_done_emits_nop():
    prog = Par((Empty(), Empty()))
    [(op, prog2, _)] = step(prog, EMPTY_STATE)
    assert op.kind == "nop" and isinstance(prog2, Empty)


def test_non_par_is_deterministic():
    prog = parse_program("""
        x := 3;
        if (x > 1) { y := x; } else { y := 0 - x; }
        while (y > 0) { y := y - 1; }
    """)
    sigma = EMPTY_STATE
    current = prog
    while not isinstance(current, Empty):
        successors = step(current, sigma)
        assert len(successors) == 1
        _, current, sigma = successors[0]


def test_violates_assertion_through_seq_and_par():
    assert violates_assertion(parse_program("assert (0 == 1); x := 1;"),
                              EMPTY_STATE)
    par = parse_program("par { assert (0 == 1); } { x := 1; }").first
    assert violates_assertion(par, EMPTY_STATE)


# ---------------------------------------------------------------------------
# Execution enumeration

def test_executions_prefix_closed_and_complete():
    prog = parse_program("x := 1; y := x + 1;")
    execs, complete = executions(prog, EMPTY_STATE, max_steps=10)
    assert complete
    lengths = sorted(len(e.steps) for e in execs)
    assert lengths == [0, 1, 2, 3, 4]  # two assigns, two sequencing nops
    final = max(execs, key=lambda e: len(e.steps))
    assert final.terminated_normally()
    assert final.final_state == state(x=1, y=2)


def test_executions_truncation_flag():
    prog = parse_program("while (x == 0) { y := y + 1; y := y - 1; }")
    _, complete = executions(prog, EMPTY_STATE, max_steps=10)
    assert not complete


def test_racy_par_terminal_states():
    prog = parse_program("par { x := x + 1; } { x := 2 * x; }")
    execs, complete = executions(prog, state(x=1), max_steps=20)
    assert complete
    terminals = {e.final_state["x"] for e in execs if e.terminated_normally()}
    assert terminals == {3, 4}


def test_syntactic_paths_cover_both_branches():
    prog = parse_program("if (x < 0) { y := 1; } else { y := 2; }")
    paths, complete = executions(prog, EMPTY_STATE, 10, SYNTACTIC)
    assert complete
    finals = [p for p in paths if isinstance(p.final_program, Empty)]
    assert len(finals) == 2


def test_syntactic_paths_constant_guard_decided():
    prog = parse_program("assert (1 == 2); x := 1;")
    paths, complete = executions(prog, EMPTY_STATE, 10, SYNTACTIC)
    assert complete
    assert all(not isinstance(p.final_program, Empty) for p in paths)


def test_executions_of_a_long_run():
    prog = parse_program("c := 600; while (c > 0) { c := c - 1; }")
    execs, complete = executions(prog, DataState(), max_steps=5000)
    assert complete
    assert [len(e) for e in execs] == list(range(len(execs)))
    assert execs[-1].terminated_normally() and execs[-1].final_state == state()


def _executions_recursive(prog, sigma0, max_steps, evaluator):
    """The depth-first enumeration by recursion, one call per step."""
    results, complete = [], True

    def walk(execution):
        nonlocal complete
        results.append(execution)
        successors = step(execution.final_program, execution.final_state, evaluator)
        if successors and len(execution) >= max_steps:
            complete = False
        elif successors:
            for op, prog2, sigma2 in successors:
                walk(execution.extend(op, prog2, sigma2))

    walk(Execution(prog, sigma0))
    return results, complete


@pytest.mark.parametrize("evaluator", [CONCRETE, SYNTACTIC])
def test_executions_order_and_flag_match_recursion(evaluator):
    for seed in range(60):
        prog = ProgramGenerator(seed, GenConfig(max_vars=2, max_stmts=4,
                                                allow_asserts=True)).program()
        sigma0 = DataState({"x": seed % 3 - 1})
        for max_steps in (8, 80):
            assert (executions(prog, sigma0, max_steps, evaluator)
                    == _executions_recursive(prog, sigma0, max_steps, evaluator))


# ---------------------------------------------------------------------------
# Block-level properties

def test_modified_set_bounds_state_change():
    """Complete executions only change variables the program may modify."""
    for seed in range(120):
        gen = ProgramGenerator(seed, GenConfig(max_vars=2, max_stmts=3,
                                               max_depth=1, max_loop_bound=2))
        prog = gen.program()
        mod = modified_vars(prog)
        outside = vars_of(prog) - mod
        for sigma0 in initial_states(vars_of(prog), range(-1, 2)):
            execs, complete = executions(prog, sigma0, max_steps=200)
            assert complete
            for execution in execs:
                if execution.terminated_normally():
                    assert execution.final_state.agrees_with(sigma0, outside)


def test_renaming_bisimulation_random_programs():
    """Executions of the renamed program from the renamed state are the
    pointwise rho-image of the original executions."""
    rng = random.Random(7)
    for seed in range(120):
        gen = ProgramGenerator(seed, GenConfig(max_vars=3, max_stmts=3,
                                               max_depth=1, max_loop_bound=2))
        prog = gen.program()
        names = sorted(vars_of(prog) | {"x"})
        rho = RenamingFn.involution({n: n + "_r" for n in names
                                     if rng.random() < 0.7})
        sigma = DataState({n: rng.randint(-2, 2) for n in names})
        execs, complete = executions(prog, sigma, max_steps=300)
        execs_r, complete_r = executions(rename_program(prog, rho),
                                         rename_state(sigma, rho),
                                         max_steps=300)
        assert complete and complete_r
        image = {(e.final_program, e.final_state) for e in
                 (x.renamed(rho) for x in execs)}
        actual = {(e.final_program, e.final_state) for e in execs_r}
        assert image == actual
