"""Benchmark of equicheck's user-level operations on four seeded workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload fuzz_pairs --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all           # every workload, one process
    python3 perfbench/run.py --smoke                  # tiny sizes, all checks, both modes

Each workload is one round of operations (verify, oracle, encode) on pairs
built from the seed.  Whole rounds repeat until the next one would end
after `--seconds`; then every result is checked against answers computed
apart from the package.  Times are adjusted for the machine's speed, as
measured by calibration passes between the operations (see README.md).  The last line of output is one JSON object with
the keys correct, attempted, failed and metrics: the end-to-end metrics
with `--trace 0`, the per-layer metrics of a traced run with `--trace 1`.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("fuzz_pairs", "sum2_oracle", "par_interleave", "long_segments")
DEFAULT_SEED = 1
DEFAULT_SECONDS = 20
SETUP_REPEATS = 3

# Machine-speed adjustment.  The machine this benchmark was built on runs the
# same pure-Python work up to 1.5 times slower for seconds at a time, as other
# tenants come and go.  A fixed calibration pass is timed between operations,
# at least every CALIBRATE_EVERY_S, and every time is scaled by
# NOMINAL_PASS_S / (median pass time within CALIBRATION_WINDOW_S of it): the
# metrics read as if the pass always took NOMINAL_PASS_S.
NOMINAL_PASS_S = 0.004
CALIBRATE_EVERY_S = 0.1
CALIBRATION_WINDOW_S = 0.25

END_TO_END = {
    "setup_s": "s",
    "verify_per_s": "pairs/s",
    "verify_p50_ms": "ms",
    "verify_p90_ms": "ms",
    "oracle_per_s": "pairs/s",
    "oracle_p50_ms": "ms",
    "oracle_p90_ms": "ms",
    "encode_stmts_per_s": "statements/s",
    "peak_rss_mb": "MB",
}


def per_layer_unit(name: str) -> str:
    if name.endswith("_s") and not name.endswith("per_s"):
        return "s"
    if name.endswith("stmts_per_s"):
        return "statements/s"
    if name.endswith("us_per_step"):
        return "us"
    if name.endswith("_pct"):
        return "%"
    return "count"


def _import_package():
    """Put the checkout's own sources first on the path; fail without them."""
    if not os.path.isfile(os.path.join(SRC, "equicheck", "__init__.py")):
        sys.exit("perfbench: no equicheck sources under %s; run it from the root "
                 "of a checkout of the repository" % SRC)
    sys.path.insert(0, SRC)


# ---------------------------------------------------------------------------
# Machine speed

def calibration_pass() -> float:
    """Seconds for a fixed piece of work like the package's: building small
    tuples, hashing them into a dict and a frozenset."""
    start = time.perf_counter()
    seen: dict = {}
    for i in range(5000):
        key = (i % 61, (i * 7) % 13, "v%d" % (i % 5))
        seen[key] = seen.get(key, 0) + 1
        frozenset((key, i))
    return time.perf_counter() - start


class Calibration:
    """Calibration passes over a run, and the speed factor they give."""

    def __init__(self):
        self.times: list[float] = []
        self.passes: list[float] = []

    def measure(self):
        self.times.append(time.perf_counter())
        self.passes.append(calibration_pass())

    def due(self) -> bool:
        return not self.times or time.perf_counter() - self.times[-1] >= CALIBRATE_EVERY_S

    def factor(self, start: float, end: float) -> float:
        """NOMINAL_PASS_S over the median pass near [start, end]."""
        lo = bisect.bisect_left(self.times, start - CALIBRATION_WINDOW_S)
        hi = bisect.bisect_right(self.times, end + CALIBRATION_WINDOW_S)
        near = self.passes[lo:hi] or self.passes[max(0, lo - 1):lo + 1]
        return NOMINAL_PASS_S / statistics.median(near)


# ---------------------------------------------------------------------------
# Operations

def run_op(eq, op, pair):
    """One user-level operation, as the CLI would run it."""
    if op.kind == "verify":
        original, modified = eq.parse(pair.text1), eq.parse(pair.text2)
        return eq.verify_pair(original, modified, eq.CheckConfig(*op.domain))
    if op.kind == "oracle":
        return eq.oracle_partial_equiv(pair.programs[0], pair.programs[1],
                                       pair.outputs, eq.CheckConfig(*op.domain))
    original, modified = eq.parse(pair.text1), eq.parse(pair.text2)
    tasks = eq.build_tasks(original, modified)
    return [(task, task.to_source(), task.metadata_json(),
             eq.emit_c(task.task, "task_%d" % task.segment_id)) for task in tasks]


def summarize(eq, op, result):
    """The part of a result the checks read; the rest is dropped at once."""
    if op.kind == "verify":
        return result.verdict
    if op.kind == "oracle":
        if isinstance(result, eq.Inequivalent):
            return ("Inequivalent", result.initial.as_dict(), result.terminal1.as_dict(),
                    result.terminal2.as_dict(), result.witness_var)
        return (type(result).__name__,)
    return tuple((frozenset(task.init_set), frozenset(task.check_set), source)
                 for task, source, _, _ in result)


class Run:
    """Timings and first results of whole rounds of one workload."""

    def __init__(self, workload):
        self.workload = workload
        self.rounds = 0
        self.elapsed = 0.0
        self.spans: list[list[tuple[float, float]]] = [[] for _ in workload.ops]
        self.calibration = Calibration()
        self.attempted = 0
        self.failed = 0
        self.errors: dict[int, str] = {}
        self.first: dict[int, object] = {}
        self.unstable: list[str] = []

    def round(self, eq):
        clock = time.perf_counter
        ops, pairs = self.workload.ops, self.workload.pairs
        start = clock()
        for index, op in enumerate(ops):
            if self.calibration.due():
                self.calibration.measure()
            pair = pairs[op.pair]
            self.attempted += 1
            t0 = clock()
            try:
                result = run_op(eq, op, pair)
            except Exception as exc:  # the package raised: a failed operation
                self.spans[index].append((t0, clock()))
                self.failed += 1
                self.errors.setdefault(index, type(exc).__name__)
                continue
            self.spans[index].append((t0, clock()))
            summary = summarize(eq, op, result)
            del result
            if index not in self.first:
                self.first[index] = summary
            elif summary != self.first[index]:
                self.unstable.append("%s: %s result changed between rounds"
                                     % (pair.label, op.kind))
        self.calibration.measure()
        self.elapsed += clock() - start
        self.rounds += 1

    def repeat(self, eq, seconds: float | None = None, rounds: int | None = None):
        """Whole rounds: `rounds` of them, or while the next one is expected
        to end within `seconds`.  Always at least one."""
        while True:
            self.round(eq)
            if rounds is not None:
                if self.rounds >= rounds:
                    return
            elif self.elapsed * (self.rounds + 1) / self.rounds > seconds:
                return

    def durations(self, index: int, adjusted: bool) -> list[float]:
        factor = self.calibration.factor if adjusted else lambda start, end: 1.0
        return [(end - start) * factor(start, end) for start, end in self.spans[index]]

    def busy(self, adjusted: bool) -> float:
        """Time spent in operations, without the calibration passes."""
        return sum(sum(self.durations(i, adjusted)) for i in range(len(self.spans)))

    def end_to_end(self, adjusted: bool = True) -> dict[str, float]:
        """Metrics over the median time of each operation of the round, so
        that a burst of noise in one round does not move them."""
        times = {"verify": [], "oracle": [], "encode": []}
        for index, op in enumerate(self.workload.ops):
            times[op.kind].append(statistics.median(self.durations(index, adjusted)))
        encoded = sum(self.workload.pairs[op.pair].stmts
                      for index, op in enumerate(self.workload.ops)
                      if op.kind == "encode" and index not in self.errors)

        def p50_ms(values):
            return 1000 * statistics.median(values) if values else 0.0

        def p90_ms(values):
            if len(values) < 2:
                return 1000 * values[0] if values else 0.0
            return 1000 * statistics.quantiles(values, n=10, method="inclusive")[8]

        def per_s(count, values):
            return count / sum(values) if values else 0.0

        verify, oracle, encode = (times[k] for k in ("verify", "oracle", "encode"))
        return {
            "verify_per_s": per_s(len(verify), verify),
            "verify_p50_ms": p50_ms(verify),
            "verify_p90_ms": p90_ms(verify),
            "oracle_per_s": per_s(len(oracle), oracle),
            "oracle_p50_ms": p50_ms(oracle),
            "oracle_p90_ms": p90_ms(oracle),
            "encode_stmts_per_s": per_s(encoded, encode),
        }


# ---------------------------------------------------------------------------
# Checks

def check(eq, workload, first) -> list[str]:
    """Problems found in the first result of every operation that did not
    fail, against answers computed apart from the package."""
    from reference import PartialEquivalence, sum2_out

    problems = []
    oracle_by = {(op.pair, op.domain): first[i]
                 for i, op in enumerate(workload.ops)
                 if op.kind == "oracle" and i in first}
    references: dict = {}

    def reference(pair_index, domain):
        key = (pair_index, domain)
        if key not in references:
            pair = workload.pairs[pair_index]
            references[key] = PartialEquivalence(
                pair.programs[0], pair.programs[1], pair.outputs,
                range(domain[0], domain[1] + 1))
        return references[key]

    for index, op in enumerate(workload.ops):
        if index not in first:
            continue
        pair = workload.pairs[op.pair]
        result = first[index]
        where = "%s, %s on %s" % (pair.label, op.kind,
                                  "%d..%d" % op.domain if op.domain else "-")
        if op.kind == "verify" and result == "Equivalent":
            oracle = oracle_by.get((op.pair, op.domain))
            if oracle is None or oracle[0] != "Equivalent":
                problems.append("%s: verify Equivalent, oracle %s"
                                % (where, oracle and oracle[0]))
        elif op.kind == "oracle":
            kind = result[0]
            if pair.equivalent and kind == "Inequivalent":
                problems.append("%s: equivalent by construction, oracle Inequivalent" % where)
            if pair.reference and kind != "Unknown":
                ref = reference(op.pair, op.domain)
                decided = ref.decide()
                if kind == "Equivalent" and decided is not None:
                    problems.append("%s: oracle Equivalent, reference differs at %s on %s"
                                    % (where, dict(zip(ref.names, decided[0])), decided[1]))
                if kind == "Inequivalent" and (decided is None
                                               or not ref.witness_holds(*result[1:])):
                    problems.append("%s: oracle witness %r not confirmed by reference"
                                    % (where, result[1:]))
            if pair.sum2:
                problems += check_sum2(where, pair.sum2, op.domain, result, sum2_out)
        elif op.kind == "encode":
            for init_set, check_set, source in result:
                if pair.sets and (set(init_set), set(check_set)) != tuple(map(set, pair.sets)):
                    problems.append("%s: task sets I=%s C=%s, expected I=%s C=%s"
                                    % (where, sorted(init_set), sorted(check_set),
                                       sorted(pair.sets[0]), sorted(pair.sets[1])))
                try:
                    eq.parse(source)
                except Exception as exc:
                    problems.append("%s: task source does not parse again (%s)"
                                    % (where, type(exc).__name__))
    return problems


def check_sum2(where, names, domain, result, sum2_out) -> list[str]:
    """The oracle against the closed forms of the paper's reduction pair."""
    n_var, out_var = names["N"], names["out"]
    differing = {n for n in range(domain[0], domain[1] + 1)
                 if sum2_out("seq", n) != sum2_out("par", n)}
    kind = result[0]
    if not differing:
        if kind == "Inequivalent":
            return ["%s: oracle Inequivalent, closed forms agree on the domain" % where]
        return []
    if kind != "Inequivalent":
        return ["%s: oracle %s, closed forms differ for N in %s"
                % (where, kind, sorted(differing))]
    initial, term1, term2, var = result[1:]
    n = initial.get(n_var, 0)
    if (var != out_var or n not in differing
            or term1.get(out_var, 0) != sum2_out("seq", n)
            or term2.get(out_var, 0) != sum2_out("par", n)):
        return ["%s: witness %r does not match the closed forms" % (where, result[1:])]
    return []


# ---------------------------------------------------------------------------
# Command line

def measure_setup(name: str, seed: int, smoke: bool, repeats: int) -> tuple[float, float]:
    """Median wall time, adjusted and raw, of a fresh interpreter that
    imports the package and builds the workload's inputs."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-only",
           "--workload", name, "--seed", str(seed)] + (["--smoke"] if smoke else [])
    calibration = Calibration()
    spans = []
    for _ in range(repeats):
        calibration.measure()
        start = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        spans.append((start, time.perf_counter()))
    calibration.measure()
    return (statistics.median((end - start) * calibration.factor(start, end)
                              for start, end in spans),
            statistics.median(end - start for start, end in spans))


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    import equicheck as eq
    import workloads

    setup = None if trace else measure_setup(name, seed, smoke,
                                             1 if smoke else SETUP_REPEATS)
    workload = workloads.build(name, seed, smoke)
    rounds = 1 if smoke else None
    if trace:
        from tracing import Tracer
        tracer = Tracer({text: workloads.count_statements(text)
                         for pair in workload.pairs for text in (pair.text1, pair.text2)})
        measured = Run(workload)
        with tracer.installed():
            measured.repeat(eq, seconds * 0.6, rounds)
        plain = Run(workload)
        plain.repeat(eq, rounds=measured.rounds)
        metrics = tracer.summary(measured.rounds)
        metrics["trace.overhead_pct"] = 100 * (measured.busy(True) / plain.busy(True) - 1)
        units = {key: per_layer_unit(key) for key in metrics}
        raw = None
        attempted = measured.attempted + plain.attempted
        failed = measured.failed + plain.failed
    else:
        measured = Run(workload)
        measured.repeat(eq, seconds, rounds)
        metrics, raw = measured.end_to_end(), measured.end_to_end(adjusted=False)
        metrics["setup_s"], raw["setup_s"] = setup
        metrics["peak_rss_mb"] = raw["peak_rss_mb"] = \
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        units = END_TO_END
        attempted, failed = measured.attempted, measured.failed
    problems = measured.unstable + check(eq, workload, measured.first)
    for index, error in sorted(measured.errors.items()):
        op = workload.ops[index]
        print("failed: %s, %s raised %s" % (workload.pairs[op.pair].label, op.kind, error),
              file=sys.stderr)
    for problem in problems:
        print("CHECK FAILED: %s" % problem, file=sys.stderr)
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "rounds": measured.rounds,
        "pass_ms": 1000 * statistics.median(measured.calibration.passes),
        "metrics": {key: {"value": metrics[key], "unit": units[key]}
                    for key in sorted(metrics)},
        "raw": raw,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, one round, both modes, all checks")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    _import_package()
    if args.setup_only:
        import workloads
        workloads.build(args.workload, args.seed, args.smoke)
        return 0

    names = WORKLOADS if args.workload in (None, "all") else (args.workload,)
    modes = (False, True) if args.smoke else (bool(args.trace),)
    results = {}
    for name in names:
        for trace in modes:
            result = run_workload(name, args.seed, args.seconds, trace, args.smoke)
            results[name, trace] = result
            print("%s%s: correct=%s attempted=%d failed=%d rounds=%d, calibration "
                  "pass %.2f ms (nominal %.2f)"
                  % (name, " (traced)" if trace else "", result["correct"],
                     result["attempted"], result["failed"], result["rounds"],
                     result["pass_ms"], 1000 * NOMINAL_PASS_S))
            for key, metric in result["metrics"].items():
                print("  %-28s %14.6g %-13s%s" % (
                    key, metric["value"], metric["unit"],
                    " raw %.6g" % result["raw"][key] if result["raw"] else ""))
    if len(results) == 1:
        [result] = results.values()
        final = {key: result[key] for key in ("correct", "attempted", "failed", "metrics")}
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {"%s%s.%s" % (name, ".traced" if trace else "", key): metric
                        for (name, trace), r in results.items()
                        for key, metric in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
