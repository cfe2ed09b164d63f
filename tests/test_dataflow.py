import pytest

from equicheck.dataflow import (live_after_oracle, live_after_segment,
                                live_in, modified_vars, modified_vars_oracle,
                                summarize_segment, ub_oracle, used_before_def)
from equicheck.errors import IncompleteExploration, UnknownSegment
from equicheck.generate import GenConfig, ProgramGenerator
from equicheck.parser import parse, parse_program
from equicheck.syntax import pretty_print

import props


DOMAIN = range(-1, 2)


def test_reduction_segment_sets(fixtures):
    seq = fixtures("sum2_seq")
    summary = summarize_segment(seq, 1, frozenset(seq.outputs))
    assert summary.vars == {"j", "N", "sum"}
    assert summary.modified == {"j", "sum"}
    assert summary.used_before_def == {"N"}
    assert summary.live_after == {"sum"}

    par = fixtures("sum2_par")
    summary = summarize_segment(par, 1, frozenset(par.outputs))
    assert summary.vars == {"i", "N", "sum"}
    assert summary.modified == {"i", "sum"}
    assert summary.used_before_def == {"N"}
    assert summary.live_after == {"sum"}


def test_modified_vars_syntactic():
    prog = parse_program("""
        x := 1;
        if (y > 0) { z := 2; } else { }
        par { w := 3; } { x := 4; }
    """)
    assert modified_vars(prog) == {"x", "z", "w"}


def test_used_before_def_branches_and_loops():
    # Assigned in only one branch: still counted as a later use-before-def.
    prog = parse_program("if (c > 0) { x := 1; } else { } y := x;")
    assert used_before_def(prog) == {"c", "x"}
    # Assigned in both branches: definite.
    prog = parse_program("if (c > 0) { x := 1; } else { x := 2; } y := x;")
    assert used_before_def(prog) == {"c"}
    # Loop body may not run.
    prog = parse_program("while (c > 0) { x := 1; c := c - 1; } y := x;")
    assert used_before_def(prog) == {"c", "x"}
    # Assignments inside par are never definite.
    prog = parse_program("par { x := 1; } { y := 2; } z := x + y;")
    assert used_before_def(prog) == {"x", "y"}


def test_liveness_basics():
    prog = parse_program("x := y; z := 1;")
    assert live_in(prog, frozenset({"x"})) == {"y"}
    assert live_in(prog, frozenset({"w"})) == {"y", "w"}
    loop = parse_program("while (n > 0) { s := s + n; n := n - 1; }")
    assert live_in(loop, frozenset({"s"})) == {"n", "s"}


def test_live_after_segment_positions(fixtures):
    src = parse("""#outputs out;
#segment 1 { a := 1; b := 2; }
out := a;
""")
    assert live_after_segment(src, 1, frozenset({"out"})) == {"a"}
    with pytest.raises(UnknownSegment):
        live_after_segment(src, 99, frozenset({"out"}))


def test_live_after_segment_inside_loop():
    src = parse("""#outputs out;
i := 0;
while (i < 3) {
  #segment 1 { t := i; }
  out := out + t;
  i := i + 1;
}
""")
    live = live_after_segment(src, 1, frozenset({"out"}))
    # t feeds out, i controls the loop, out accumulates across iterations.
    assert live == {"t", "i", "out"}


def test_live_after_segment_inside_if_inside_loop():
    src = parse("""#outputs out;
i := 0;
while (i < 3) {
  if (i == 1) {
    #segment 1 { t := i; }
  } else {
    t := w;
  }
  out := out + t;
  i := i + 1;
}
""")
    # w is read only on the next iteration's else branch.
    assert live_after_segment(src, 1, frozenset({"out"})) == {"t", "i", "out", "w"}


def test_live_after_segment_with_long_context():
    context = "".join("v%d := v%d + 1;\n" % (k % 7, k % 5) for k in range(5000))
    src = parse("#outputs v0;\n%s#segment 1 { t := v1; }\n%sv0 := t;\n"
                % (context, context))
    assert live_after_segment(src, 1, frozenset(src.outputs)) == {
        "t", "v0", "v1", "v2", "v3", "v4"}


def test_two_loop_fixture_summaries(fixtures):
    orig = fixtures("two_loops_orig")
    s1 = summarize_segment(orig, 1, frozenset(orig.outputs))
    s2 = summarize_segment(orig, 2, frozenset(orig.outputs))
    assert s1.modified == {"t", "i"}
    assert s1.live_after >= {"t", "sum", "N"}
    assert s2.modified == {"sum", "i"}
    assert s2.live_after == {"sum"}


# ---------------------------------------------------------------------------
# Oracle agreement on the worked example

def test_oracles_on_reduction_segment(fixtures):
    seq = fixtures("sum2_seq")
    body = seq.segments[1]
    assert modified_vars_oracle(body, range(0, 3), 200) == {"j", "sum"}
    assert ub_oracle(body, range(0, 3), 200) == {"N"}
    # The segment's own loop has a variable guard, so syntactic-path
    # enumeration cannot complete; the partial result is already exact here.
    with pytest.raises(IncompleteExploration) as info:
        live_after_oracle(seq, 1, frozenset(seq.outputs), 40)
    assert info.value.partial == {"sum"}


def test_oracle_raises_on_truncation():
    prog = parse_program("while (x == x) { y := y + 1; }")
    with pytest.raises(IncompleteExploration):
        ub_oracle(prog, range(0, 1), 10)


# ---------------------------------------------------------------------------
# Containment of the semantic oracles in the syntactic sets

def _random_source(seed):
    gen = ProgramGenerator(seed, GenConfig(max_vars=3, max_stmts=5,
                                           max_depth=2, max_loop_bound=2))
    body = gen.program()
    prefix = gen.block(2, 0, False)
    suffix = gen.block(2, 0, False)
    text = ("#outputs x;\n%s\n#segment 1 {\n%s\n}\n%s\n"
            % (pretty_print(prefix), pretty_print(body), pretty_print(suffix)))
    return parse(text)


@pytest.mark.parametrize("seed", range(60))
def test_containment_random_programs(seed):
    src = _random_source(seed)
    body = src.segments[1]
    summary = summarize_segment(src, 1, frozenset(src.outputs))

    try:
        sem_mod = modified_vars_oracle(body, DOMAIN, 400)
    except IncompleteExploration as exc:
        sem_mod = exc.partial
    assert sem_mod <= summary.modified

    try:
        sem_ub = ub_oracle(body, DOMAIN, 400)
    except IncompleteExploration as exc:
        sem_ub = exc.partial
    assert sem_ub <= summary.used_before_def

    try:
        sem_live = live_after_oracle(src, 1, frozenset(src.outputs), 60)
    except IncompleteExploration as exc:
        sem_live = exc.partial
    assert sem_live <= summary.live_after


# ---------------------------------------------------------------------------
# Against the walkers that `live_in` replaced

@pytest.mark.parametrize("chunk", range(4))
def test_liveness_equals_reference_walkers(chunk):
    for seed in range(chunk * 150, (chunk + 1) * 150):
        props.check_liveness_against_references(seed)
