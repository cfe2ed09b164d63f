import pytest

from equicheck.errors import ContextMismatch, SegmentIdMismatch
from equicheck.parser import parse
from equicheck.segments import apply_replacement, validate_replacement
from equicheck.syntax import label_isomorphic


def test_validate_replacement_pairs_by_id(fixtures):
    orig, mod = fixtures("two_loops_orig"), fixtures("two_loops_mod")
    replacement = validate_replacement(orig, mod)
    assert [p.segment_id for p in replacement] == [1, 2]
    assert all(p.original is orig.segments[p.segment_id] for p in replacement)


def test_validate_replacement_id_mismatch():
    orig = parse("#segment 1 { x := 1; }\ny := 2;\n")
    mod = parse("#segment 2 { x := 1; }\ny := 2;\n")
    with pytest.raises(SegmentIdMismatch):
        validate_replacement(orig, mod)


def test_validate_replacement_context_mismatch():
    orig = parse("#segment 1 { x := 1; }\ny := 2;\n")
    mod = parse("#segment 1 { x := 3; }\ny := 4;\n")
    with pytest.raises(ContextMismatch):
        validate_replacement(orig, mod)


def test_context_compared_modulo_labels(fixtures):
    # Identical text parses to identical labels, so perturb the context only
    # in the segment: still a valid replacement.
    orig = parse("a := 1;\n#segment 1 { x := 1; }\nb := a;\n")
    mod = parse("a := 1;\n#segment 1 { x := 2; x := x + 1; }\nb := a;\n")
    replacement = validate_replacement(orig, mod)
    assert len(replacement) == 1


def test_apply_replacement_yields_modified(fixtures):
    orig, mod = fixtures("sum2_seq"), fixtures("sum2_par")
    replacement = validate_replacement(orig, mod)
    result = apply_replacement(orig, replacement)
    assert label_isomorphic(result, mod.program)


def test_apply_replacement_two_segments(fixtures):
    orig, mod = fixtures("two_loops_orig"), fixtures("two_loops_mod")
    replacement = validate_replacement(orig, mod)
    result = apply_replacement(orig, replacement)
    assert label_isomorphic(result, mod.program)
