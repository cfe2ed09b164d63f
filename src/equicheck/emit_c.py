"""Best-effort C rendering of task programs for external verifiers.

Unverified convenience output: integers become long long, asserts become
assert() calls, and parallel composition (which C has no syntax for) is
rendered as comment-annotated blocks.
"""

from __future__ import annotations

from .syntax import (Assert, Assign, BinOp, BoolLit, BoolOp, Cmp, Empty, If,
                     IntLit, Neg, Not, Par, Program, Var, While, Seq,
                     format_aexpr, format_bexpr, stmts_of, vars_of)


def emit_c(prog: Program, name: str = "task") -> str:
    lines = [
        "#include <assert.h>",
        "",
        "void %s(void) {" % name,
    ]
    names = sorted(vars_of(prog))
    for var in names:
        lines.append("  long long %s = 0;" % var)
    if names:
        lines.append("")
    _emit(prog, lines, 1)
    lines.append("}")
    return "\n".join(lines) + "\n"


def _emit(prog: Program, lines: list[str], depth: int):
    pad = "  " * depth
    if isinstance(prog, Empty):
        return
    if isinstance(prog, Assign):
        lines.append("%s%s = %s;" % (pad, prog.var, format_aexpr(prog.expr)))
        return
    if isinstance(prog, Assert):
        lines.append("%sassert(%s);" % (pad, format_bexpr(prog.cond)))
        return
    if isinstance(prog, If):
        lines.append("%sif (%s) {" % (pad, format_bexpr(prog.cond)))
        _emit(prog.then_branch, lines, depth + 1)
        if isinstance(prog.else_branch, Empty):
            lines.append("%s}" % pad)
        else:
            lines.append("%s} else {" % pad)
            _emit(prog.else_branch, lines, depth + 1)
            lines.append("%s}" % pad)
        return
    if isinstance(prog, While):
        lines.append("%swhile (%s) {" % (pad, format_bexpr(prog.cond)))
        _emit(prog.body, lines, depth + 1)
        lines.append("%s}" % pad)
        return
    if isinstance(prog, Seq):
        for stmt in stmts_of(prog):
            _emit(stmt, lines, depth)
        return
    if isinstance(prog, Par):
        lines.append("%s/* parallel: %d branches (no C equivalent; "
                     "run with a concurrency-aware verifier) */" % (pad, len(prog.branches)))
        for i, branch in enumerate(prog.branches, start=1):
            lines.append("%s{ /* branch %d */" % (pad, i))
            _emit(branch, lines, depth + 1)
            lines.append("%s}" % pad)
        return
    raise TypeError("not a program: %r" % (prog,))
