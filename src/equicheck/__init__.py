"""equicheck: localized equivalence checking of program versions.

Parse two versions of a small imperative program (with parallel
composition) that mark changed regions with #segment directives, encode
each region pair as a self-checking equivalence task, and verify the
tasks by bounded-exhaustive exploration over a finite value domain.
"""

from .checker import (CheckConfig, Equivalent, EquivVerdict, Inequivalent,
                      NoViolation, PipelineReport, ResourceExhausted,
                      SegmentResult, Unknown, Verdict, Violation, build_tasks,
                      check_program, check_task, oracle_partial_equiv,
                      verify_pair)
from .dataflow import (UsageSummary, live_after_segment, live_in,
                       modified_vars, summarize_program, summarize_segment,
                       used_before_def)
from .emit_c import emit_c
from .encoder import EquivalenceTask, build_task
from .errors import EquicheckError, ParseError
from .generate import GenConfig, ProgramGenerator
from .parser import SourceFile, parse, parse_program
from .segments import (ReplacementPair, apply_replacement,
                       validate_replacement)
from .semantics import (DataState, ExecStep, Execution, executions,
                        rename_state, step, violates_assertion)
from .syntax import Program, RenamingFn, pretty_print, rename_program

__version__ = "1.0.0"

__all__ = [
    "CheckConfig", "DataState", "EquicheckError", "EquivVerdict",
    "EquivalenceTask", "Equivalent", "ExecStep", "Execution", "GenConfig",
    "Inequivalent", "NoViolation", "ParseError", "PipelineReport", "Program",
    "ProgramGenerator", "RenamingFn", "ReplacementPair",
    "ResourceExhausted", "SegmentResult", "SourceFile",
    "Unknown", "UsageSummary", "Verdict", "Violation", "apply_replacement",
    "build_task", "build_tasks", "check_program", "check_task", "emit_c",
    "executions", "live_after_segment", "live_in",
    "modified_vars", "oracle_partial_equiv", "parse", "parse_program",
    "pretty_print", "rename_program", "rename_state", "step",
    "summarize_program", "summarize_segment", "used_before_def",
    "validate_replacement", "verify_pair", "violates_assertion",
]
