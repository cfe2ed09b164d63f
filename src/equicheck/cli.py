"""Command-line interface: analyze, encode, check, oracle, verify."""

from __future__ import annotations

import argparse
import json
import os
import sys

from .checker import (CheckConfig, Equivalent, Inequivalent, NoViolation,
                      ResourceExhausted, Unknown, Violation, build_tasks,
                      check_program, oracle_partial_equiv, trace_as_dicts,
                      verify_pair)
from .emit_c import emit_c
from .errors import EquicheckError
from .parser import parse
from .dataflow import summarize_segment

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_UNKNOWN = 3


def _parse_domain(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition("..")
    if not sep:
        raise argparse.ArgumentTypeError("domain must look like LO..HI")
    try:
        lo, hi = int(lo), int(hi)
    except ValueError:
        raise argparse.ArgumentTypeError("domain bounds must be integers")
    if lo > hi:
        raise argparse.ArgumentTypeError("empty domain %d..%d" % (lo, hi))
    return lo, hi


def _parse_outputs(text: str) -> tuple[str, ...]:
    names = tuple(name.strip() for name in text.split(",") if name.strip())
    if not names:
        raise argparse.ArgumentTypeError("--outputs needs at least one name")
    return names


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="equicheck",
        description="Localized equivalence checking of program versions "
                    "via marked segments and bounded-exhaustive exploration.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--domain", type=_parse_domain, default=(-2, 2),
                       metavar="LO..HI",
                       help="inclusive range of enumerated initial values "
                            "(default -2..2)")
        p.add_argument("--max-steps", type=int, default=2000, metavar="N",
                       help="breadth-first depth bound: steps per run "
                            "(default 2000)")
        p.add_argument("--max-states", type=int, default=200000, metavar="N",
                       help="configurations visited per initial state, per "
                            "program for oracle; for check and verify, "
                            "interleavings of independent par branches are "
                            "not counted, since they are skipped "
                            "(default 200000)")
        p.add_argument("--json", action="store_true",
                       help="emit machine-readable JSON to stdout")
        p.add_argument("--outputs", type=_parse_outputs, metavar="V1,V2",
                       help="output variables; overrides #outputs directives")

    p = sub.add_parser("analyze", help="report per-segment variable usage")
    p.add_argument("file")
    add_common(p)

    p = sub.add_parser("encode", help="write equivalence tasks for a pair")
    p.add_argument("original")
    p.add_argument("modified")
    p.add_argument("--out", default=".", metavar="DIR",
                   help="directory for task files (default .)")
    p.add_argument("--emit-c", action="store_true",
                   help="also write a best-effort C rendering of each task")
    add_common(p)

    p = sub.add_parser("check", help="check one task program for violations")
    p.add_argument("task_file")
    add_common(p)

    p = sub.add_parser("oracle", help="brute-force equivalence of two programs")
    p.add_argument("original")
    p.add_argument("modified")
    add_common(p)

    p = sub.add_parser("verify", help="segment-wise verification of a pair")
    p.add_argument("original")
    p.add_argument("modified")
    add_common(p)
    return parser


def _load(path: str):
    try:
        with open(path, encoding="utf-8") as handle:
            return parse(handle.read())
    except (OSError, UnicodeDecodeError) as exc:
        raise EquicheckError("cannot read %s: %s" % (path, exc))
    except EquicheckError as exc:
        raise EquicheckError("%s: %s" % (path, exc))


def _config(args) -> CheckConfig:
    try:
        return CheckConfig(domain_lo=args.domain[0], domain_hi=args.domain[1],
                           max_steps=args.max_steps, max_states=args.max_states)
    except ValueError as exc:
        raise EquicheckError(str(exc))


def _resolved_outputs(args, *sources) -> frozenset[str]:
    if args.outputs:
        return frozenset(args.outputs)
    declared: frozenset[str] = frozenset()
    for source in sources:
        declared |= frozenset(source.outputs)
    if not declared:
        print("warning: no output variables declared or given; "
              "using the empty set", file=sys.stderr)
    return declared


def cmd_analyze(args) -> int:
    source = _load(args.file)
    outputs = _resolved_outputs(args, source)
    summaries = [summarize_segment(source, seg_id, outputs)
                 for seg_id in sorted(source.segments)]
    if args.json:
        print(json.dumps({"file": args.file,
                          "outputs": sorted(outputs),
                          "segments": [{"id": s.segment_id, **s.as_dict()}
                                       for s in summaries]},
                         indent=2))
        return EXIT_OK
    if not summaries:
        print("0 segments in %s" % args.file)
        return EXIT_OK
    for s in summaries:
        print("segment %d: vars={%s} modified={%s} used_before_def={%s} "
              "live_after={%s}"
              % (s.segment_id, ",".join(sorted(s.vars)),
                 ",".join(sorted(s.modified)),
                 ",".join(sorted(s.used_before_def)),
                 ",".join(sorted(s.live_after))))
    return EXIT_OK


def cmd_encode(args) -> int:
    original = _load(args.original)
    modified = _load(args.modified)
    outputs = _resolved_outputs(args, original, modified)
    tasks = build_tasks(original, modified, outputs)
    if not tasks:
        raise EquicheckError("no segments marked in %s" % args.original)
    os.makedirs(args.out, exist_ok=True)
    written = []
    for task in tasks:
        stem = os.path.join(args.out, "task_%d" % task.segment_id)
        with open(stem + ".peq", "w", encoding="utf-8") as handle:
            handle.write(task.to_source())
        with open(stem + ".json", "w", encoding="utf-8") as handle:
            handle.write(task.metadata_json())
        written.extend([stem + ".peq", stem + ".json"])
        if args.emit_c:
            with open(stem + ".c", "w", encoding="utf-8") as handle:
                handle.write(emit_c(task.task, "task_%d" % task.segment_id))
            written.append(stem + ".c")
    if args.json:
        print(json.dumps({"written": written}, indent=2))
    else:
        for path in written:
            print("wrote %s" % path)
    return EXIT_OK


def cmd_check(args) -> int:
    source = _load(args.task_file)
    cfg = _config(args)
    verdict = check_program(source.program, cfg)
    if args.json:
        payload = {"verdict": type(verdict).__name__, "config": cfg.as_dict()}
        if isinstance(verdict, NoViolation):
            payload["complete"] = verdict.complete
        if isinstance(verdict, Violation):
            payload["initial_state"] = verdict.initial.as_dict()
            payload["trace"] = trace_as_dicts(verdict.trace)
        print(json.dumps(payload, indent=2))
    else:
        if isinstance(verdict, NoViolation):
            print("NoViolation (complete=%s)" % verdict.complete)
        elif isinstance(verdict, Violation):
            print("Violation from initial state %s, trace length %d"
                  % (verdict.initial.as_dict(), len(verdict.trace.steps)))
        else:
            print("ResourceExhausted")
    if isinstance(verdict, Violation):
        return EXIT_VIOLATION
    if isinstance(verdict, ResourceExhausted):
        return EXIT_UNKNOWN
    return EXIT_OK if verdict.complete else EXIT_UNKNOWN


def cmd_oracle(args) -> int:
    original = _load(args.original)
    modified = _load(args.modified)
    outputs = _resolved_outputs(args, original, modified)
    cfg = _config(args)
    verdict = oracle_partial_equiv(original.program, modified.program,
                                   outputs, cfg)
    if args.json:
        payload = {"verdict": type(verdict).__name__, "config": cfg.as_dict()}
        if isinstance(verdict, Inequivalent):
            payload.update({
                "initial_state": verdict.initial.as_dict(),
                "terminal1": verdict.terminal1.as_dict(),
                "terminal2": verdict.terminal2.as_dict(),
                "witness_var": verdict.witness_var,
            })
        print(json.dumps(payload, indent=2))
    else:
        if isinstance(verdict, Equivalent):
            print("Equivalent (complete=%s)" % verdict.complete)
        elif isinstance(verdict, Inequivalent):
            print("Inequivalent on %s from %s: %s vs %s"
                  % (verdict.witness_var, verdict.initial.as_dict(),
                     verdict.terminal1.as_dict(), verdict.terminal2.as_dict()))
        else:
            print("Unknown (exploration truncated)")
    if isinstance(verdict, Inequivalent):
        return EXIT_VIOLATION
    if isinstance(verdict, Unknown):
        return EXIT_UNKNOWN
    return EXIT_OK


def cmd_verify(args) -> int:
    original = _load(args.original)
    modified = _load(args.modified)
    outputs = _resolved_outputs(args, original, modified)
    cfg = _config(args)
    report = verify_pair(original, modified, cfg, outputs)
    if args.json:
        sys.stdout.write(report.to_json())
    else:
        print("verdict: %s" % report.verdict)
        for seg in report.segments:
            entry = seg.as_dict()
            line = "  segment %d: %s" % (entry["id"], entry["verdict"])
            if entry["initial_state"] is not None:
                line += " from %s" % entry["initial_state"]
            print(line)
    if report.verdict == "PossiblyInequivalent":
        return EXIT_VIOLATION
    if report.verdict == "Unknown":
        return EXIT_UNKNOWN
    return EXIT_OK


_COMMANDS = {
    "analyze": cmd_analyze,
    "encode": cmd_encode,
    "check": cmd_check,
    "oracle": cmd_oracle,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    parser = build_arg_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return _COMMANDS[args.command](args)
    except EquicheckError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # a crash is not a verdict: no 0 or 1 exit
        print("error: internal error (%s): %s" % (type(exc).__name__, exc),
              file=sys.stderr)
        return EXIT_UNKNOWN


if __name__ == "__main__":
    sys.exit(main())
