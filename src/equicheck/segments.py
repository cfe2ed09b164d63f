"""Segment extraction and replacement validation.

Two program versions are related by pairing their #segment markers by id.
Validation replaces each segment body by a placeholder and requires the
remaining context of both files to agree up to labels.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (ContextMismatch, DuplicateSegmentId, EmptySegment,
                     NestedSegments, SegmentIdMismatch, SegmentInsidePar)
from .parser import SourceFile
from .syntax import (Empty, Par, Program, contains, nodes, skeleton, stmts_of,
                     substitute)


@dataclass(frozen=True)
class SegmentTable:
    """Segment id -> body for one file; invariants checked on construction."""
    source: SourceFile
    bodies: dict[int, Program]

    def ids(self) -> list[int]:
        return sorted(self.bodies)


@dataclass(frozen=True)
class ReplacementPair:
    segment_id: int
    original: Program
    modified: Program


@dataclass(frozen=True)
class ReplacementMap:
    pairs: tuple[ReplacementPair, ...]


def extract_segments(source: SourceFile) -> SegmentTable:
    bodies: dict[int, Program] = {}
    for seg in source.segments:
        if seg.segment_id in bodies:
            raise DuplicateSegmentId("segment id %d used more than once" % seg.segment_id)
        if seg.nesting_depth > 0:
            raise NestedSegments("segment %d is nested inside another segment"
                                 % seg.segment_id)
        if isinstance(seg.body, Empty) or not stmts_of(seg.body):
            raise EmptySegment("segment %d has an empty body" % seg.segment_id)
        if _inside_par(source.program, seg.body):
            raise SegmentInsidePar("segment %d occurs inside a parallel statement"
                                   % seg.segment_id)
        bodies[seg.segment_id] = seg.body
    return SegmentTable(source, bodies)


def _inside_par(prog: Program, target: Program) -> bool:
    return any(contains(branch, target)
               for node in nodes(prog) if isinstance(node, Par)
               for branch in node.branches)


def validate_replacement(original: SourceFile, modified: SourceFile) -> ReplacementMap:
    """Check that pairing segments by id induces a legal replacement and
    return the validated pairing."""
    table1 = extract_segments(original)
    table2 = extract_segments(modified)
    if table1.ids() != table2.ids():
        raise SegmentIdMismatch("segment ids differ: %s vs %s"
                                % (table1.ids(), table2.ids()))
    context1 = skeleton(original.program, table1.bodies)
    context2 = skeleton(modified.program, table2.bodies)
    if context1 != context2:
        raise ContextMismatch("programs differ outside the marked segments: %s"
                              % _first_difference(context1, context2))
    pairs = tuple(ReplacementPair(i, table1.bodies[i], table2.bodies[i])
                  for i in table1.ids())
    return ReplacementMap(pairs)


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


def apply_replacement(original: SourceFile, replacement: ReplacementMap) -> Program:
    """Substitute each modified segment body into the original's context."""
    prog = original.program
    for pair in replacement.pairs:
        prog = substitute(prog, pair.original, pair.modified)
    return prog
