import json

import pytest

from equicheck import semantics
from equicheck.checker import (CheckConfig, Equivalent, Inequivalent,
                               NoViolation, ResourceExhausted, Unknown,
                               Violation, _explore, check_program, check_task,
                               build_tasks, oracle_partial_equiv, verify_pair)
from equicheck.cli import main
from equicheck.emit_c import emit_c
from equicheck.parser import parse, parse_program
from equicheck.semantics import DataState, step, violates_assertion
from equicheck.syntax import label_isomorphic

import props

CFG = CheckConfig(-2, 2)


def test_config_invariants():
    with pytest.raises(ValueError):
        CheckConfig(2, -2)
    with pytest.raises(ValueError):
        CheckConfig(max_steps=0)
    assert list(CheckConfig(0, 3).domain) == [0, 1, 2, 3]


def test_immediate_violation_has_empty_trace():
    verdict = check_program(parse_program("assert (0 == 1);"), CFG)
    assert isinstance(verdict, Violation)
    assert len(verdict.trace.steps) == 0


def test_no_violation_complete():
    verdict = check_program(parse_program("x := 1; assert (x == 1);"), CFG)
    assert verdict == NoViolation(complete=True)


def test_violation_found_across_initial_states():
    verdict = check_program(parse_program("assert (n != 2);"), CFG)
    assert isinstance(verdict, Violation)
    assert verdict.initial["n"] == 2


def test_minimal_trace_and_replay():
    prog = parse_program("x := n + 1; y := x * x; assert (y != 4);")
    verdict = check_program(prog, CFG)
    assert isinstance(verdict, Violation)
    # Replay: every step of the reported trace is derivable, and the final
    # configuration violates the assertion.
    current = (verdict.trace.initial_program, verdict.trace.initial_state)
    for op, prog2, sigma2 in verdict.trace.steps:
        assert (op, prog2, sigma2) in step(*current)
        current = (prog2, sigma2)
    assert violates_assertion(*current)


def test_nontermination_yields_incomplete():
    prog = parse_program("while (x == x) { y := y + 1; }")
    verdict = check_program(prog, CheckConfig(0, 0, max_steps=20,
                                              max_states=100000))
    assert verdict == NoViolation(complete=False)


def test_state_budget_exhaustion():
    prog = parse_program("while (x == x) { y := y + 1; }")
    verdict = check_program(prog, CheckConfig(0, 0, max_steps=1000,
                                              max_states=50))
    assert isinstance(verdict, ResourceExhausted)


def test_state_budget_is_per_initial_state():
    # Each of the 125 initial states reaches 3 configurations, fewer than
    # the budget of 10, though all of them together reach 375.
    prog = parse_program("assert (a + b + c == a + b + c);")
    cfg = CheckConfig(-2, 2, max_states=10)
    assert check_program(prog, cfg) == NoViolation(complete=True)
    assert oracle_partial_equiv(prog, prog, {"a"}, cfg) == Equivalent(complete=True)


@pytest.mark.parametrize("max_states, verdict, oracle", [
    (7, NoViolation(complete=True), Equivalent(complete=True)),
    (6, ResourceExhausted(), Unknown()),
])
def test_state_budget_counts_the_start(max_states, verdict, oracle):
    # Seven configurations: the start, three assignments and three nops.
    prog = parse_program("x := 1; x := 2; x := 3;")
    cfg = CheckConfig(0, 0, max_states=max_states)
    assert check_program(prog, cfg) == verdict
    assert oracle_partial_equiv(prog, prog, {"x"}, cfg) == oracle


def test_oracle_reflexivity():
    prog = parse_program("x := y * y; y := x - 1;")
    verdict = oracle_partial_equiv(prog, prog, {"x", "y"}, CFG)
    assert verdict == Equivalent(complete=True)


def test_oracle_detects_difference():
    s1 = parse_program("x := 1;")
    s2 = parse_program("x := 2;")
    verdict = oracle_partial_equiv(s1, s2, {"x"}, CFG)
    assert isinstance(verdict, Inequivalent)
    assert verdict.witness_var == "x"
    assert {verdict.terminal1["x"], verdict.terminal2["x"]} == {1, 2}


def test_oracle_ignores_nonterminating_runs():
    # S1 loops forever over a finite state space: exploration completes,
    # and with no terminating S1 run the equivalence holds vacuously.
    s1 = parse_program("while (x == x) { x := x; }")
    s2 = parse_program("x := 7;")
    verdict = oracle_partial_equiv(s1, s2, {"x"},
                                   CheckConfig(0, 0, max_steps=30))
    assert verdict == Equivalent(complete=True)


def test_oracle_unknown_on_truncation():
    # Here the state space grows without bound, so the step budget bites
    # and certainty drops to Unknown.
    s1 = parse_program("while (x >= 0) { x := x + 1; }")
    s2 = parse_program("x := 7;")
    verdict = oracle_partial_equiv(s1, s2, {"x"},
                                   CheckConfig(0, 0, max_steps=30))
    assert isinstance(verdict, Unknown)


def test_racy_par_witness():
    s1 = parse_program("par { x := x + 1; } { x := 2 * x; }")
    s2 = parse_program("x := 2 * x + 1;")
    verdict = oracle_partial_equiv(s1, s2, {"x"}, CheckConfig(1, 1))
    assert isinstance(verdict, Inequivalent)
    assert verdict.initial["x"] == 1


# The oracle ranges only over variables live in either program and fixes the
# rest at the domain's lower bound.  Each pair below has an input that a
# coarser notion of "input" would drop, and loses its difference without it.
@pytest.mark.parametrize("text1, text2, output, domain, initial", [
    # An output that one program never writes passes its initial value through.
    ("y := 0;", "x := 1;", "y", (0, 1), {"x": 0, "y": 1}),
    # Only an assert reads v; v = -1 gets stuck, v = 0 shows the difference.
    ("assert (v == 0); x := 1;", "x := 2;", "x", (-1, 1), {"v": 0, "x": -1}),
    # Only a loop guard reads v, and it decides termination.
    ("while (v != 0) { } x := 1;", "x := 2;", "x", (-1, 1), {"v": 0, "x": -1}),
    # One par branch reads v before the other branch writes it.
    ("par { v := 1; } { x := v; }", "v := 1; x := v;", "x", (1, 2),
     {"v": 2, "x": 1}),
])
def test_oracle_live_input_traps(text1, text2, output, domain, initial):
    s1, s2 = parse_program(text1), parse_program(text2)
    cfg = CheckConfig(*domain)
    verdict = oracle_partial_equiv(s1, s2, {output}, cfg)
    assert isinstance(verdict, Inequivalent)
    assert {name: verdict.initial[name] for name in initial} == initial
    assert verdict == props.full_enumeration_oracle(s1, s2, {output}, cfg)


def test_oracle_reduction_under_a_state_budget():
    # v is dead.  From y = 0 the guard goes either way.  With v = 0 the
    # then-branch writes the value v already has, and the two ways merge
    # into 19 configurations; with v = 1 they take 25, more than the budget
    # of 21.  Only the full enumeration starts from v = 1, so only it is cut.
    s1 = parse_program("par { if (y > 0) { v := 0; } else { } } { y := 1; }"
                       " v := 2; x := 1;")
    s2 = parse_program("x := 1;")
    cfg = CheckConfig(0, 1, max_states=21)
    assert oracle_partial_equiv(s1, s2, {"x"}, cfg) == Equivalent(complete=True)
    assert props.full_enumeration_oracle(s1, s2, {"x"}, cfg) == Unknown()


@pytest.mark.parametrize("domain", [(-1, 1), (0, 1), (1, 2)])
def test_oracle_reduction_matches_full_enumeration(domain):
    # 1..2 does not contain 0, so a reduction that fixed dead variables at 0
    # instead of the lower bound would change witnesses there.
    cfg = CheckConfig(*domain)
    kinds = {type(props.check_oracle_reduction(seed, cfg)).__name__
             for seed in range(300)}
    assert kinds == {"Equivalent", "Inequivalent"}


def test_verify_pair_report_schema(fixtures):
    report = verify_pair(fixtures("sum2_seq"), fixtures("sum2_par"),
                         CheckConfig(0, 3))
    payload = report.as_dict()
    assert set(payload) == {"verdict", "segments", "config", "generator_seed"}
    [seg] = payload["segments"]
    assert set(seg) == {"id", "verdict", "complete", "initial_state", "trace",
                        "sets"}
    assert payload["verdict"] == "Equivalent"
    assert seg["complete"] is True


def test_verify_pair_deterministic(fixtures):
    a = verify_pair(fixtures("foo_orig"), fixtures("foo_mod"), CFG).to_json()
    b = verify_pair(fixtures("foo_orig"), fixtures("foo_mod"), CFG).to_json()
    assert a == b


def test_verify_pair_violation_trace_recorded(fixtures):
    report = verify_pair(fixtures("foo_orig"), fixtures("foo_mod"), CFG)
    [seg] = report.segments
    assert isinstance(seg.verdict, Violation)
    entry = seg.as_dict()
    assert entry["initial_state"] is not None
    assert entry["trace"]


@pytest.mark.parametrize("seed", range(30))
def test_segment_task_soundness_sample(seed):
    props.check_segment_task_soundness(seed)


@pytest.mark.parametrize("seed", range(30))
def test_pipeline_soundness_sample(seed):
    props.check_pipeline_soundness(seed)


@pytest.mark.parametrize("seed", range(30))
def test_pipeline_soundness_with_asserts_sample(seed):
    # Asserts inside segments are assumed by the task, not made vacuous.
    props.check_pipeline_soundness(seed, segment_head="assert (1 == 1);\n")


@pytest.mark.parametrize("seed", range(30))
def test_pipeline_soundness_with_generated_asserts_sample(seed):
    props.check_pipeline_soundness(seed, config=props.SMALL_ASSERTS)


def _straight_line_pair(n):
    """A pair of equivalent straight-line segments of n statements each;
    the modified one swaps the operands of every `+`."""
    names = "abcdef"
    reads = [(names[(i + 1) % 6], names[(i + 3) % 6]) for i in range(n)]
    texts = []
    for swap in (False, True):
        body = "".join("%s := %s + %s;\n" % ((names[i % 6],) + (r[::-1] if swap else r))
                       for i, r in enumerate(reads))
        texts.append("#outputs a, b;\nc := 1;\n#segment 1 {\n%s}\nd := a;\n" % body)
    return parse(texts[0]), parse(texts[1])


def test_long_segment_task_round_trips():
    # No walker recurses down a sequence: the task of a 2400-statement pair
    # (about 4800 statements in one sequence) parses back and renders as C.
    [task] = build_tasks(*_straight_line_pair(2400))
    assert label_isomorphic(parse(task.to_source()).program, task.task)
    assert emit_c(task.task).count(" = ") > 4800


def test_long_segment_verifies():
    # A task of n statements takes about 2n steps: one nop per sequence join.
    report = verify_pair(*_straight_line_pair(700),
                         CheckConfig(0, 0, max_steps=100000))
    assert report.verdict == "Equivalent"


# ---------------------------------------------------------------------------
# Partial-order reduction of `par`: each trap below is a program where a
# wrong independence rule loses an interleaving that matters.

def explore_both(text, find_violation, cfg=CheckConfig(0, 0), var="y"):
    """`_explore` from the all-zero state with and without the reduction;
    asserts that trace, terminal states and stop reason agree, and returns
    the values of `var` in the terminal states."""
    prog = parse_program(text)
    reduced = _explore(prog, DataState(), cfg, find_violation)
    with props.unreduced():
        full = _explore(prog, DataState(), cfg, find_violation)
    assert reduced == full
    return {sigma[var] for sigma in full[1]}


def test_reduction_steps_only_an_independent_first_branch():
    prog = parse_program("par { x := 1; } { y := 1; }")
    assert len(semantics.step(prog, DataState())) == 2
    assert len(semantics.step(prog, DataState(), reduce=True)) == 1
    # A nested par is stepped in full.
    nested = parse_program("par { par { x := 1; } { y := 1; } } { z := 1; }")
    assert len(semantics.step(nested, DataState(), reduce=True)) == 2


@pytest.mark.parametrize("find_violation", [False, True])
def test_reduction_trap_read_of_a_later_write(find_violation):
    # The first branch reads v; the other writes v only after its head.
    terminals = explore_both("par { x := v; } { y := 1; v := 2; }",
                             find_violation, var="x")
    assert terminals == {0, 2}


@pytest.mark.parametrize("find_violation", [False, True])
def test_reduction_trap_write_write(find_violation):
    terminals = explore_both("par { x := 1; y := 1; } { x := 2; }",
                             find_violation, var="x")
    assert terminals == {1, 2}


@pytest.mark.parametrize("find_violation", [False, True])
def test_reduction_trap_loop_guard_against_a_write_in_a_loop(find_violation):
    # The first branch waits on f, which the other sets inside its loop body.
    terminals = explore_both(
        "par { while (f == 0) { } x := 1; } "
        "{ c := 2; while (c > 0) { f := 1; c := c - 1; } y := 1; }",
        find_violation, var="x")
    assert terminals == {1}


@pytest.mark.parametrize("find_violation", [False, True])
def test_reduction_trap_nested_par_against_an_outer_sibling(find_violation):
    # y = 20 needs x := 2 before a := 1 inside the nested par, and the outer
    # sibling in between; y = 0 needs the sibling before both.
    terminals = explore_both(
        "par { par { a := 1; } { x := 2; } } { y := x * 10 + a; }", find_violation)
    assert terminals == {0, 1, 20, 21}


def test_reduction_trap_assert_in_a_branch(tmp_path, capsys):
    # Only runs in which the second branch reaches its assert before the
    # first branch's x := 1 violate it; the shortest takes two steps.  An
    # assert in a branch turns the reduction off, so the trace is the one
    # of the full search.
    path = tmp_path / "task.peq"
    path.write_text("par { z := 1; x := 1; } { y := 1; assert (x == 1); }\n")
    args = ["check", str(path), "--domain", "0..0", "--json"]
    code = main(args)
    reduced = capsys.readouterr().out
    with props.unreduced():
        assert main(args) == code == 1
    assert capsys.readouterr().out == reduced
    assert len(json.loads(reduced)["trace"]) == 2


@pytest.mark.parametrize("find_violation", [False, True])
def test_reduction_trap_branch_that_never_terminates(find_violation):
    # The first branch spins on its own and is always independent, so the
    # reduced search never steps the second branch; no run ends either way.
    terminals = explore_both(
        "par { while (true) { } } { x := 1; y := 1; } assert (x == 0);",
        find_violation, CheckConfig(0, 0, max_steps=50))
    assert terminals == set()


def test_reduction_may_cut_a_search_that_the_full_one_completes():
    # The only way the reduction loses a decided result.  The first branch
    # loops until it reads y != 0 and steps alone while it is independent,
    # so some configurations inside the par lie deeper than in the full
    # search: 33 steps against 30.  A step bound between the two cuts only
    # the reduced search.  Final states still agree.
    prog = parse_program(
        "par { a := 1 - a; b := 0; while (y == 0) { y := 0;"
        " if (b == 0) { y := 1; b := 0; b := 1 - b; } else { a := 1 - a; } } }"
        " { y := 0; } { a := 0; y := 0; }")
    for max_steps, stops in [(30, ("steps", "steps")), (31, ("steps", None)),
                             (34, (None, None))]:
        cfg = CheckConfig(0, 0, max_steps=max_steps)
        reduced = _explore(prog, DataState(), cfg, False)
        with props.unreduced():
            full = _explore(prog, DataState(), cfg, False)
        assert reduced[1] == full[1]
        assert (reduced[2], full[2]) == stops


def test_oracle_explores_every_interleaving():
    # The program of the test above, with the step bound that cuts only the
    # reduced search: the oracle explores in full and decides.  (b ends at 1
    # in every run; a does not.)
    prog = parse_program(
        "par { a := 1 - a; b := 0; while (y == 0) { y := 0;"
        " if (b == 0) { y := 1; b := 0; b := 1 - b; } else { a := 1 - a; } } }"
        " { y := 0; } { a := 0; y := 0; }")
    cfg = CheckConfig(0, 0, max_steps=31)
    assert oracle_partial_equiv(prog, prog, {"b"}, cfg) == \
        Equivalent(complete=True)


@pytest.mark.parametrize("domain", [(-1, 1), (0, 1)])
def test_reduction_matches_every_interleaving(domain):
    cfg = CheckConfig(*domain, max_states=300)
    cut = [props.check_reduction_differential(seed, cfg)
           for seed in range(150)]
    # Two thirds of the full searches finish, so those programs compare in
    # full; the rest still check that reduced violations replay.
    assert cut.count(False) > 100
