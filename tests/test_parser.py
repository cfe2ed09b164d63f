import os

import pytest

from equicheck.errors import (DuplicateSegmentId, EmptySegment,
                              NestedSegments, ParseError, SegmentInsidePar)
from equicheck.generate import ProgramGenerator
from equicheck.parser import MAX_EXPR_DEPTH, parse, parse_program
from equicheck.syntax import (Assert, Assign, BinOp, Cmp, Empty, If, IntLit,
                              Par, Seq, Var, While, label_isomorphic,
                              labels_of, nodes, pretty_print, relabel,
                              stmts_of, vars_of)

from conftest import FIXTURES, fixture_path, load_fixture


def test_assign_roundtrip():
    prog = parse_program("x := 1;")
    stmt = prog.first
    assert isinstance(stmt, Assign)
    assert stmt.var == "x"
    assert stmt.expr == IntLit(1)
    assert isinstance(prog.rest, Empty)


def test_operator_precedence():
    prog = parse_program("x := 1 + 2 * 3;")
    expr = prog.first.expr
    assert expr == BinOp("+", IntLit(1), BinOp("*", IntLit(2), IntLit(3)))


def test_unary_minus_and_parens():
    prog = parse_program("x := -(y + 1) * 2;")
    assert vars_of(prog) == {"x", "y"}


def test_if_else_and_while():
    prog = parse_program("""
        if (x < 1) { y := 0; } else { y := 1; }
        while (y > 0) { y := y - 1; }
    """)
    stmts = stmts_of(prog)
    assert isinstance(stmts[0], If)
    assert isinstance(stmts[1], While)
    assert stmts[0].cond == Cmp("<", Var("x"), IntLit(1))


def test_par_branches():
    prog = parse_program("par { x := 1; } { y := 2; } { z := 3; }")
    par = prog.first
    assert isinstance(par, Par)
    assert len(par.branches) == 3


def test_assert_statement():
    prog = parse_program("assert (x == 0);")
    assert isinstance(prog.first, Assert)


def test_boolean_operators():
    prog = parse_program("assert (x < 1 && !(y > 2) || x == y);")
    assert vars_of(prog) == {"x", "y"}


def test_labels_unique_and_preorder():
    prog = parse_program("""
        x := 1;
        while (x > 0) { x := x - 1; y := y + 1; }
        assert (y >= 0);
    """)
    labels = labels_of(prog)
    assert labels == sorted(labels)
    assert len(labels) == len(set(labels))


def test_comments_ignored():
    prog = parse_program("// leading comment\nx := 1; // trailing\n")
    assert isinstance(prog.first, Assign)


def test_outputs_directive():
    source = parse("#outputs a, b;\na := 1;\nb := 2;\n")
    assert source.outputs == ("a", "b")


def test_segment_directive():
    source = parse("#outputs x;\n#segment 7 { x := 1; }\nx := x + 1;\n")
    assert list(source.segments) == [7]
    body = source.segments[7]
    assert stmts_of(body) == [Assign(body.first.label, "x", IntLit(1))]


def test_segments_map_ids_to_bodies():
    src = parse("#segment 2 { x := 1; }\n#segment 1 { y := 2; }\nz := 3;\n")
    assert sorted(src.segments) == [1, 2]
    assert stmts_of(src.segments[1]) == [Assign(2, "y", IntLit(2))]


def test_duplicate_segment_id_rejected():
    with pytest.raises(DuplicateSegmentId) as info:
        parse("#segment 1 { x := 1; }\n#segment 1 { x := 2; }\n")
    assert "(line 2)" in info.value.args[0]


def test_segment_inside_par_rejected():
    with pytest.raises(SegmentInsidePar) as info:
        parse("par { #segment 1 { x := 1; } } { y := 2; }")
    assert "(line 1)" in info.value.args[0]


def test_empty_segment_rejected():
    with pytest.raises(EmptySegment) as info:
        parse("x := 1;\n#segment 1 { }\nx := 1;\n")
    assert "(line 2)" in info.value.args[0]


def test_nested_segments_rejected():
    with pytest.raises(NestedSegments) as info:
        parse("#segment 1 {\n x := 1;\n if (x < 1) { #segment 2 { y := 2; } }"
              " else { }\n}\n")
    assert "(line 3)" in info.value.args[0]


def _differential_sources():
    for name in sorted(os.listdir(FIXTURES)):
        yield load_fixture(name[:-len(".peq")])
    for seed in range(200):
        for text in ProgramGenerator(seed).source_pair():
            yield parse(text)


def test_parser_labels_and_segments_match_relabel():
    """The parser labels in the preorder that `relabel` gives, and records
    each segment body as the very node inside the program."""
    for src in _differential_sources():
        assert relabel(src.program) == src.program
        in_program = list(nodes(src.program))
        for body in src.segments.values():
            assert any(node is body for node in in_program)


@pytest.mark.parametrize("bad", [
    "x := ;",
    "x = 1;",
    "if x < 1 { }",
    "while (x) { }",
    "assert x == 1;;;(",
    "par x := 1;",
])
def test_parse_errors(bad):
    with pytest.raises(ParseError):
        parse_program(bad)


_DEEP = MAX_EXPR_DEPTH + 1


@pytest.mark.parametrize("text", [
    "x := %s;" % " + ".join(["a"] * _DEEP),                # tree
    "x := %s1%s;" % ("(" * _DEEP, ")" * _DEEP),             # parentheses
    "x := %sa;" % ("-" * _DEEP),                            # unary minus
    "if (%s(a == 1)) { } else { }" % ("!" * _DEEP),         # negation
    "while (%sa == 1%s) { }" % ("(" * _DEEP, ")" * _DEEP),  # parenthesized
    "assert %s;" % " && ".join(["a == 1"] * (MAX_EXPR_DEPTH - 1)),  # one less
])
def test_expression_depth_bound(text):
    with pytest.raises(ParseError) as info:
        parse_program("y := 0;\n" + text)
    assert info.value.line == 2
    assert "nested deeper than" in str(info.value)


@pytest.mark.parametrize("text", [
    "x := %s;" % " - ".join(["a"] * MAX_EXPR_DEPTH),
    "x := %s1%s;" % ("(" * MAX_EXPR_DEPTH, ")" * MAX_EXPR_DEPTH),
    "x := %sa;" % ("-" * (MAX_EXPR_DEPTH - 1)),
    "assert %s;" % " && ".join(["a == 1"] * (MAX_EXPR_DEPTH - 2)),
    "x := %s%s;" % (" - (".join("a" * MAX_EXPR_DEPTH), ")" * (MAX_EXPR_DEPTH - 1)),
])
def test_expressions_at_depth_bound_parse_and_print_back(text):
    prog = parse_program(text)
    assert label_isomorphic(parse_program(pretty_print(prog)), prog)


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as info:
        parse_program("x := 1;\ny := ;\n")
    assert info.value.line == 2


def test_pretty_print_roundtrip(fixtures):
    for name in ["sum2_seq", "sum2_par", "foo_orig", "two_loops_orig",
                 "par_orig"]:
        prog = fixtures(name).program
        reparsed = parse_program(pretty_print(prog))
        # Segment bodies parse as nested blocks; compare modulo sequence
        # nesting and labels.
        assert label_isomorphic(reparsed, prog)


def test_empty_program():
    prog = parse_program("")
    assert isinstance(prog, Empty) or stmts_of(prog) == []


def test_node_hash_and_equality_are_structural():
    # Nodes cache their hash; equality and hash still follow the structure.
    for name in ["par_orig", "two_loops_orig", "sum2_par"]:
        with open(fixture_path(name)) as handle:
            text = handle.read()
        first, second = parse_program(text), parse_program(text)
        assert first is not second
        assert first == second and hash(first) == hash(second)
        assert relabel(first, start=100) != first
    # Neither hash nor == recurses down a sequence of 5000 statements.
    text = "x := x + 1;\n" * 5000
    first, second = parse_program(text), parse_program(text)
    assert hash(first) == hash(second) and first == second
    assert first != parse_program(text + "y := 1;\n")   # differs at the end
