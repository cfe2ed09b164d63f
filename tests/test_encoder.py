import pytest

from equicheck.checker import build_tasks
from equicheck.dataflow import summarize_program
from equicheck.encoder import (build_rho_switch, build_task, equal_block,
                               fresh_switch, init_block, neutralize_asserts,
                               to_seq, validate_renaming)
from equicheck.parser import parse_program
from equicheck.syntax import (Assert, Assign, Cmp, Empty, Not, RenamingFn,
                              Var, While, stmts_of, vars_of)

import props


def test_to_seq_sorted_and_idempotent():
    assert to_seq({"b", "a", "c"}) == ("a", "b", "c")
    assert to_seq(()) == ()
    assert to_seq(to_seq({"x", "y"})) == ("x", "y")


def test_fresh_switch_avoids_collisions():
    switch = fresh_switch({"x", "y"}, {"x", "y", "x_s"})
    assert switch == {"x": "x_s2", "y": "y_s"}
    assert len(set(switch.values())) == 2


def test_rho_switch_is_involution():
    rho = build_rho_switch({"x": "x_s"})
    assert rho("x") == "x_s"
    assert rho("x_s") == "x"
    assert rho("other") == "other"


def test_validate_renaming_flags_interference():
    s1 = parse_program("x := 1;")
    s2 = parse_program("x := 2;")
    identity = RenamingFn.identity()
    violations = validate_renaming(identity, s1, s2, {"x"}, {"x"}, set())
    assert violations  # x maps to itself inside M2: condition (b) broken


def test_init_and_equal_blocks():
    rho = build_rho_switch({"v": "v_s"})
    init = init_block(rho, ("v",))
    assert stmts_of(init) == [Assign(0, "v", Var("v_s"))]
    equal = equal_block(rho, ("v",))
    [stmt] = stmts_of(equal)
    assert stmt == Assert(0, Cmp("==", Var("v_s"), Var("v")))
    assert isinstance(init_block(rho, ()), Empty)


def test_neutralize_asserts_becomes_guard_loop():
    prog = parse_program("assert (x > 0); y := 1;")
    rewritten = neutralize_asserts(prog)
    head = rewritten.first
    assert isinstance(head, While)
    assert head.cond == Not(prog.first.cond)
    assert isinstance(head.body, Empty)


def test_reduction_task_structure(fixtures):
    [task] = build_tasks(fixtures("sum2_seq"), fixtures("sum2_par"))
    assert task.init_set == frozenset()
    assert task.check_set == {"sum"}
    assert task.shared == {"N"}
    assert task.duplicates["sum"] == "sum_s"
    init, renamed, body2, equal = task.parts()
    assert isinstance(init, Empty)
    assert "sum_s" in vars_of(renamed) and "sum" not in vars_of(renamed)
    assert "sum" in vars_of(body2) and "sum_s" not in vars_of(body2)
    asserts = [s for s in stmts_of(equal) if isinstance(s, Assert)]
    assert len(asserts) == 1
    assert asserts[0].cond == Cmp("==", Var("sum_s"), Var("sum"))


def test_branch_task_duplicates(fixtures):
    [task] = build_tasks(fixtures("foo_orig"), fixtures("foo_mod"))
    assert task.duplicates == {"y": "y_s"}
    assert task.shared == {"x"}
    assert task.init_set == frozenset()  # y not used before definition


def test_hand_computed_sets():
    s1 = parse_program("y := x; x := x + 1;")
    s2 = parse_program("x := x + 1; y := x - 1;")
    sum1 = summarize_program(s1, frozenset({"y"}))
    sum2 = summarize_program(s2, frozenset({"y"}))
    task = build_task(s1, s2, sum1, sum2)
    assert task.init_set == {"x"}
    assert task.duplicates == {"x": "x_s", "y": "y_s"}
    assert "y" in task.check_set


def test_task_at_program_end_with_no_outputs():
    s = parse_program("x := 0;")
    summary = summarize_program(s, frozenset())
    task = build_task(s, s, summary, summary)
    assert task.check_set == frozenset()
    _, _, _, equal = task.parts()
    assert isinstance(equal, Empty)


def test_metadata_schema(fixtures):
    [task] = build_tasks(fixtures("sum2_seq"), fixtures("sum2_par"))
    meta = task.metadata()
    assert set(meta) == {"segment_id", "renaming", "init_set", "check_set",
                         "shared", "duplicates", "summary_original",
                         "summary_modified"}
    assert meta["segment_id"] == 1
    assert meta["duplicates"]["sum"] == "sum_s"


def test_task_labels_fresh_and_unique(fixtures):
    from equicheck.syntax import labels_of
    [task] = build_tasks(fixtures("sum2_seq"), fixtures("sum2_par"))
    labels = labels_of(task.task)
    assert len(labels) == len(set(labels))


# ---------------------------------------------------------------------------
# Block-level properties (also exercised at scale by the acceptance suite)

@pytest.mark.parametrize("seed", range(25))
def test_init_block_property(seed):
    props.check_init_block_property(seed)


@pytest.mark.parametrize("seed", range(25))
def test_equal_block_property(seed):
    props.check_equal_block_property(seed)


@pytest.mark.parametrize("seed", range(25))
def test_generated_renaming_property(seed):
    props.check_generated_renaming_property(seed)
