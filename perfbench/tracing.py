"""Spans and counts around the package's layers, recorded from outside it.

`Tracer.installed()` swaps wrappers into the package's module namespaces
for the length of a `with` block and restores the originals after it:

- spans around parse, validate_replacement, summarize_segment,
  used_before_def, build_task, EquivalenceTask.to_source, emit_c,
  check_task and oracle_partial_equiv, each named after its layer;
- counts and total durations of the calls that equicheck.checker makes
  into equicheck.semantics (step and violates_assertion), kept on the
  enclosing span rather than as one span per call, so that a run with
  millions of steps keeps a bounded trace.

Every span records its parent.  Spans stay in memory until `summary()`
reads them at the end of the run.
"""

from __future__ import annotations

import contextlib
from time import perf_counter

import equicheck as eq
import equicheck.checker as checker_mod
import equicheck.encoder as encoder_mod
from reference import count_nodes, program_vars

# Fields of a span record.
LAYER, PARENT, START, END, CHILD, ATTRS = range(6)
# Fields of the per-span aggregate of semantics calls.
STEP_CALLS, STEP_TIME, SUCCESSORS, ASSERT_CALLS, ASSERT_TIME = range(5)


# Layers with a span, named after the module that does the work.
LAYERS = ("parser", "segments", "dataflow", "encoder", "syntax.print", "emit_c",
          "checker", "oracle")


class Tracer:
    def __init__(self, stmt_counts: dict[str, int]):
        self.spans: list[list] = []
        self.leaf: dict[int, list] = {}
        self._stack: list[int] = []
        self._stmt_counts = stmt_counts   # source text -> statements in it

    # -- spans ------------------------------------------------------------

    def open(self, layer: str, attrs: dict | None = None) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([layer, parent, 0.0, 0.0, 0.0, attrs or {}])
        self._stack.append(idx)
        self.spans[idx][START] = perf_counter()
        return idx

    def close(self, idx: int):
        end = perf_counter()
        span = self.spans[idx]
        span[END] = end
        self._stack.pop()
        if span[PARENT] >= 0:
            self.spans[span[PARENT]][CHILD] += end - span[START]

    def _leaf(self) -> list:
        idx = self._stack[-1]
        agg = self.leaf.get(idx)
        if agg is None:
            agg = self.leaf[idx] = [0, 0.0, 0, 0, 0.0]
        return agg

    def wrap(self, layer: str, fn):
        def traced(*args, **kwargs):
            idx = self.open(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)
        return traced

    # -- layer-specific wrappers ------------------------------------------

    def _parse(self, fn):
        counts = self._stmt_counts

        def traced(text):
            idx = self.open("parser", {"stmts": counts.get(text, 0)})
            try:
                return fn(text)
            finally:
                self.close(idx)
        return traced

    def _build_task(self, fn):
        def traced(*args, **kwargs):
            idx = self.open("encoder")
            try:
                task = fn(*args, **kwargs)
            finally:
                self.close(idx)
            self.spans[idx][ATTRS]["task_stmts"] = count_nodes(task.task)
            return task
        return traced

    def _used_before_def(self, fn):
        def traced(prog):
            idx = self.open("dataflow")
            try:
                result = fn(prog)
            finally:
                self.close(idx)
            parent = self.spans[idx][PARENT]
            if parent >= 0:
                self.spans[parent][ATTRS]["inputs"] = len(result)
            return result
        return traced

    def _check_task(self, fn):
        def traced(task, cfg):
            idx = self.open("checker")
            try:
                return fn(task, cfg)
            finally:
                self.close(idx)
                attrs = self.spans[idx][ATTRS]
                attrs["initial_states"] = len(cfg.domain) ** attrs.get("inputs", 0)
        return traced

    def _oracle(self, fn):
        def traced(s1, s2, outputs, cfg):
            names = program_vars(s1) | program_vars(s2) | set(outputs)
            idx = self.open("oracle", {"initial_states": len(cfg.domain) ** len(names)})
            try:
                return fn(s1, s2, outputs, cfg)
            finally:
                self.close(idx)
        return traced

    def _step(self, fn):
        def traced(prog, sigma):
            start = perf_counter()
            out = fn(prog, sigma)
            elapsed = perf_counter() - start
            agg = self._leaf()
            agg[STEP_CALLS] += 1
            agg[STEP_TIME] += elapsed
            agg[SUCCESSORS] += len(out)
            return out
        return traced

    def _violates(self, fn):
        def traced(prog, sigma):
            start = perf_counter()
            out = fn(prog, sigma)
            elapsed = perf_counter() - start
            agg = self._leaf()
            agg[ASSERT_CALLS] += 1
            agg[ASSERT_TIME] += elapsed
            return out
        return traced

    @contextlib.contextmanager
    def installed(self):
        patches = [
            (eq, "parse", self._parse),
            (eq, "emit_c", lambda fn: self.wrap("emit_c", fn)),
            (eq, "oracle_partial_equiv", self._oracle),
            (checker_mod, "validate_replacement", lambda fn: self.wrap("segments", fn)),
            (checker_mod, "summarize_segment", lambda fn: self.wrap("dataflow", fn)),
            (checker_mod, "used_before_def", self._used_before_def),
            (checker_mod, "build_task", self._build_task),
            (checker_mod, "check_task", self._check_task),
            (checker_mod, "step", self._step),
            (checker_mod, "violates_assertion", self._violates),
            (encoder_mod.EquivalenceTask, "to_source",
             lambda fn: self.wrap("syntax.print", fn)),
        ]
        saved = [(owner, name, getattr(owner, name)) for owner, name, _ in patches]
        try:
            for owner, name, make in patches:
                setattr(owner, name, make(getattr(owner, name)))
            yield self
        finally:
            for owner, name, original in saved:
                setattr(owner, name, original)

    # -- summary ------------------------------------------------------------

    def summary(self, rounds: int) -> dict[str, float]:
        """Per-layer totals for one round: busy and self seconds, calls and
        counts, each divided by the number of rounds traced."""
        busy: dict[str, float] = {}
        self_time: dict[str, float] = {}
        calls: dict[str, int] = {}
        attrs: dict[tuple[str, str], float] = {}
        leaf: dict[str, list] = {}
        for idx, span in enumerate(self.spans):
            layer = span[LAYER]
            duration = span[END] - span[START]
            agg = self.leaf.get(idx)
            inner = span[CHILD] + (agg[STEP_TIME] + agg[ASSERT_TIME] if agg else 0.0)
            busy[layer] = busy.get(layer, 0.0) + duration
            self_time[layer] = self_time.get(layer, 0.0) + duration - inner
            calls[layer] = calls.get(layer, 0) + 1
            for key, value in span[ATTRS].items():
                attrs[layer, key] = attrs.get((layer, key), 0) + value
            if agg:
                total = leaf.setdefault(layer, [0, 0.0, 0, 0, 0.0])
                for i, value in enumerate(agg):
                    total[i] += value

        def per_round(value):
            return value / rounds

        def ratio(num, den):
            return num / den if den else 0.0

        out = {}
        for layer in LAYERS:
            out[layer + ".busy_s"] = per_round(busy.get(layer, 0.0))
        for layer in ("parser", "dataflow", "checker", "oracle"):
            out[layer + ".calls"] = per_round(calls.get(layer, 0))
        for layer in ("checker", "oracle"):
            out[layer + ".self_s"] = per_round(self_time.get(layer, 0.0))
        out["parser.stmts_per_s"] = ratio(attrs.get(("parser", "stmts"), 0),
                                          busy.get("parser", 0.0))
        out["encoder.task_stmts"] = per_round(attrs.get(("encoder", "task_stmts"), 0))
        for layer in ("checker", "oracle"):
            agg = leaf.get(layer, [0, 0.0, 0, 0, 0.0])
            out[layer + ".initial_states"] = per_round(attrs.get((layer, "initial_states"), 0))
            out[layer + ".step_calls"] = per_round(agg[STEP_CALLS])
            out[layer + ".successors"] = per_round(agg[SUCCESSORS])
            out[layer + ".us_per_step"] = 1e6 * ratio(busy.get(layer, 0.0), agg[STEP_CALLS])
        all_leaf = [sum(agg[i] for agg in leaf.values()) for i in range(5)]
        out["semantics.step_busy_s"] = per_round(all_leaf[STEP_TIME])
        out["semantics.assert_busy_s"] = per_round(all_leaf[ASSERT_TIME])
        out["semantics.assert_checks"] = per_round(all_leaf[ASSERT_CALLS])
        return out
