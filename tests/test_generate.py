import hashlib

import pytest

from equicheck.checker import CheckConfig, Equivalent, oracle_partial_equiv
from equicheck.generate import GenConfig, ProgramGenerator
from equicheck.parser import parse
from equicheck.semantics import DataState, executions
from equicheck.syntax import (Assert, labels_of, pretty_print, stmts_of,
                              vars_of)


def walk_statements(prog):
    from equicheck.syntax import Empty, If, Par, Seq, While
    stack = [prog]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, Seq):
            stack.extend([node.first, node.rest])
        elif isinstance(node, If):
            stack.extend([node.then_branch, node.else_branch])
        elif isinstance(node, While):
            stack.append(node.body)
        elif isinstance(node, Par):
            stack.extend(node.branches)


def test_same_seed_same_program():
    assert (ProgramGenerator(42).program()
            == ProgramGenerator(42).program())


def test_different_seeds_differ_somewhere():
    programs = {ProgramGenerator(seed).program() for seed in range(20)}
    assert len(programs) > 1


@pytest.mark.parametrize("seed", range(40))
def test_generated_programs_terminate_and_have_no_asserts(seed):
    gen = ProgramGenerator(seed, GenConfig(max_vars=3, max_stmts=6,
                                           max_depth=2, max_loop_bound=2))
    prog = gen.program()
    assert not any(isinstance(node, Assert) for node in walk_statements(prog))
    labels = [l for l in labels_of(prog)]
    assert len(labels) == len(set(labels))
    # Loops are bounded by construction: exploration completes.
    _, complete = executions(prog, DataState(), max_steps=2000)
    assert complete


@pytest.mark.parametrize("seed", range(10))
def test_equivalent_pairs_really_equivalent(seed):
    gen = ProgramGenerator(seed, GenConfig(max_vars=2, max_stmts=4,
                                           max_depth=1, max_loop_bound=2))
    s1, s2 = gen.equivalent_pair()
    verdict = oracle_partial_equiv(s1, s2, vars_of(s1) | vars_of(s2),
                                   CheckConfig(-1, 1, max_steps=500))
    assert isinstance(verdict, Equivalent)


@pytest.mark.parametrize("seed", range(10))
def test_source_pairs_parse_and_validate(seed):
    from equicheck.segments import validate_replacement
    gen = ProgramGenerator(seed, GenConfig(max_vars=2, max_stmts=4,
                                           max_depth=1, max_loop_bound=2))
    text1, text2 = gen.source_pair()
    orig, mod = parse(text1), parse(text2)
    replacement = validate_replacement(orig, mod)
    assert len(replacement) == 1


def test_seeds_keep_their_programs():
    # A pinned digest of 50 seeds' programs: with `allow_asserts` off the
    # generator draws no extra random numbers, so seeds keep their programs.
    digest = hashlib.sha256()
    for seed in range(50):
        gen = ProgramGenerator(seed)
        digest.update(pretty_print(gen.program()).encode())
        digest.update("".join(gen.source_pair()).encode())
    assert digest.hexdigest()[:16] == "7496890a26552aa4"


def test_allow_asserts_emits_asserts():
    config = GenConfig(max_vars=2, max_stmts=4, max_depth=1, max_loop_bound=2,
                       allow_asserts=True)
    with_asserts = [seed for seed in range(30)
                    if any(isinstance(node, Assert) for node in
                           walk_statements(ProgramGenerator(seed, config).program()))]
    assert len(with_asserts) >= 5
