"""Replacement validation.

Two program versions are related by pairing their #segment markers by id;
the parser has already checked each file's markers.  Validation replaces
each segment body by a placeholder and requires the remaining context of
both files to agree up to labels.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ContextMismatch, SegmentIdMismatch
from .parser import SourceFile
from .syntax import Program, skeleton, substitute


@dataclass(frozen=True)
class ReplacementPair:
    segment_id: int
    original: Program
    modified: Program


def validate_replacement(original: SourceFile,
                         modified: SourceFile) -> tuple[ReplacementPair, ...]:
    """Check that pairing segments by id induces a legal replacement and
    return the validated pairs in id order."""
    ids1, ids2 = sorted(original.segments), sorted(modified.segments)
    if ids1 != ids2:
        raise SegmentIdMismatch("segment ids differ: %s vs %s" % (ids1, ids2))
    context1 = skeleton(original.program, original.segments)
    context2 = skeleton(modified.program, modified.segments)
    if context1 != context2:
        raise ContextMismatch("programs differ outside the marked segments: %s"
                              % _first_difference(context1, context2))
    return tuple(ReplacementPair(i, original.segments[i], modified.segments[i])
                 for i in ids1)


def _first_difference(form1, form2) -> str:
    """The first statements at which two skeletons differ."""
    if form1[0] == form2[0] and form1[0] in ("seq", "par"):
        for part1, part2 in zip(form1[1], form2[1]):
            if part1 != part2:
                return _first_difference(part1, part2)
        return "statement counts differ (%d vs %d)" % (len(form1[1]), len(form2[1]))
    if form1[:2] == form2[:2] and form1[0] in ("if", "while"):
        for part1, part2 in zip(form1[2:], form2[2:]):
            if part1 != part2:
                return _first_difference(part1, part2)
    return "%r vs %r" % (form1, form2)


def apply_replacement(original: SourceFile,
                      replacement: tuple[ReplacementPair, ...]) -> Program:
    """Substitute each modified segment body into the original's context."""
    prog = original.program
    for pair in replacement:
        prog = substitute(prog, pair.original, pair.modified)
    return prog
