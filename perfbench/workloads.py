"""Seeded inputs for the four workloads.

Each `build_*` function turns a seed into source-text pairs and one round
of operations on them.  The package receives only the texts (and, for the
oracle, the programs parsed from them); everything the checks need to
know about a pair is recorded here, at construction, apart from the
package.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass

import equicheck as eq
from equicheck.syntax import (Assign, BinOp, IntLit, Var, pretty_print,
                              seq_of, vars_of)
from reference import straight_line_sets

# Generator settings of the soundness suites (tests/props.py, SMALL).
FUZZ_GEN = eq.GenConfig(max_vars=2, max_stmts=4, max_depth=1, max_loop_bound=2)

# The paper's reduction pair, as in tests/fixtures/sum2_seq.peq and
# sum2_par.peq, without their comments.
SUM2_SEQ = """#outputs out;
#segment 1 {
  sum := N;
  j := N - 1;
  while (j >= 0) {
    sum := sum + j;
    j := j - 1;
  }
}
out := sum + 2;
"""

SUM2_PAR = """#outputs out;
#segment 1 {
  sum := 0;
  par {
    i := 1;
    while (i <= N) {
      sum := sum + i;
      i := i + 1;
    }
  } {
  }
}
out := sum + 2;
"""

SUM2_VARS = ("N", "sum", "j", "i", "out")

# Straight-line segment sizes.  Below about 490 statements a task's source
# still parses again; at about 1000 and more, parse itself recurses past
# the interpreter's limit.
LONG_VERIFY_SIZES = (30, 60, 120, 200, 300)
LONG_ENCODE_SIZES = (30, 60, 120, 200, 300, 400)
LONG_FAILING_SIZES = (1200, 2400)
# The failing inputs are the same for every seed, so the share of failed
# operations cannot depend on it.
LONG_FAILING_SEED = 0
LONG_VARS = ("a", "b", "c", "d", "e", "f")

_KEYWORDS = ("if", "while", "par")
_WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


@dataclass
class Pair:
    """Two versions of a program and what is known about them by construction."""
    label: str
    text1: str
    text2: str
    stmts: int                       # statements in both texts together
    equivalent: bool = False         # behaviour-preserving by construction
    reference: bool = False          # check the oracle against the reference evaluator
    sets: tuple | None = None        # expected (I, C) of the one task
    sum2: dict | None = None         # original sum2 name -> name used here
    programs: tuple | None = None    # parsed (original, modified), for the oracle
    outputs: frozenset = frozenset()


@dataclass(frozen=True)
class Op:
    kind: str                        # "verify" | "oracle" | "encode"
    pair: int
    domain: tuple[int, int] | None = None


@dataclass
class Workload:
    pairs: list[Pair]
    ops: list[Op]                    # one round


def count_statements(text: str) -> int:
    """Statements in a source text: one per `;` outside directives, plus one
    per if, while and par head."""
    count = 0
    for line in text.splitlines():
        line = line.split("//", 1)[0]
        if line.lstrip().startswith("#"):
            continue
        count += line.count(";")
        count += sum(1 for word in _WORD.findall(line) if word in _KEYWORDS)
    return count


def _make_pair(label, text1, text2, **kw) -> Pair:
    return Pair(label, text1, text2,
                count_statements(text1) + count_statements(text2), **kw)


# ---------------------------------------------------------------------------
# fuzz_pairs

def _preserving_rewrite(rng: random.Random, prog):
    """A behaviour-preserving rewrite of a segment body: one no-op
    assignment before or after it."""
    names = sorted(vars_of(prog)) or ["x"]
    name = rng.choice(names)
    kind = rng.randrange(3)
    if kind == 0:
        return seq_of([Assign(0, name, Var(name)), prog])
    op = "+" if kind == 1 else "-"
    return seq_of([prog, Assign(0, name, BinOp(op, Var(name), IntLit(0)))])


def build_fuzz_pairs(seed: int, n_pairs: int, domain) -> Workload:
    """Source pairs in the shape of ProgramGenerator.source_pair: a prefix
    of constant assignments, one marked segment, a short suffix, one
    output.  Even-numbered pairs rewrite the segment without changing its
    behaviour; odd-numbered ones generate an independent segment."""
    rng = random.Random(seed)
    pairs, ops = [], []
    for index in range(n_pairs):
        gen_seed = rng.randrange(2 ** 31)
        gen = eq.ProgramGenerator(gen_seed, FUZZ_GEN)
        prefix = seq_of(Assign(0, gen.rng.choice(gen.names),
                               IntLit(gen.rng.randint(-2, 2)))
                        for _ in range(gen.rng.randint(0, 2)))
        seg1 = gen.program()
        preserving = index % 2 == 0
        seg2 = _preserving_rewrite(gen.rng, seg1) if preserving else gen.program()
        suffix = gen.block(2, 0, False)
        out = gen.rng.choice(gen.names)

        def render(seg):
            lines = ["#outputs %s;" % out, pretty_print(prefix), "#segment 1 {",
                     pretty_print(seg), "}", pretty_print(suffix)]
            return "\n".join(line for line in lines if line.strip()) + "\n"

        text1 = render(seg1)
        # A program whose outputs depend on the interleaving is not partially
        # equivalent even to itself, so only rewrites of segments without
        # `par` are equivalent by construction.
        deterministic = "par" not in _WORD.findall(pretty_print(seg1))
        pairs.append(_make_pair("fuzz_pairs #%d (generator seed %d)" % (index, gen_seed),
                                text1, render(seg2),
                                equivalent=preserving and deterministic, reference=True))
        ops += [Op("verify", index, domain), Op("oracle", index, domain),
                Op("encode", index)]
    return Workload(pairs, ops)


# ---------------------------------------------------------------------------
# sum2_oracle

def build_sum2(seed: int, domains) -> Workload:
    """The paper's reduction pair with seeded variable names, through
    verify and oracle on each domain and through encode once; the seed
    also fixes the order of the operations."""
    rng = random.Random(seed)
    fresh = rng.sample(range(100), len(SUM2_VARS))
    names = {old: "v%02d" % k for old, k in zip(SUM2_VARS, fresh)}
    pattern = re.compile(r"\b(%s)\b" % "|".join(SUM2_VARS))

    def rename(text):
        return pattern.sub(lambda m: names[m.group(1)], text)

    pair = _make_pair("sum2_oracle (names %s)" % names, rename(SUM2_SEQ),
                      rename(SUM2_PAR), sum2=names,
                      # The paper's sets for this pair: U1 = U2 = {N}, so I is
                      # empty, and only sum is both modified and live after.
                      sets=(set(), {names["sum"]}))
    ops = [Op(kind, 0, domain) for domain in domains for kind in ("verify", "oracle")]
    ops.append(Op("encode", 0))
    rng.shuffle(ops)
    return Workload([pair], ops)


# ---------------------------------------------------------------------------
# par_interleave

_CMP_OPS = ("<", "<=", ">", ">=", "==", "!=")


def _par_branch(rng: random.Random, own: str, shared: str | None) -> str:
    """One branch of fixed shape: an assignment, then an if with one
    assignment per arm.  With `shared`, each variable use picks between
    the branch's own variable and the shared one."""
    def var():
        return shared if shared and rng.random() < 0.5 else own

    def const():
        return rng.randint(-2, 2)

    def arith():
        return rng.choice(("+", "-"))

    return "\n".join([
        "%s := %s %s %d;" % (own, var(), arith(), const()),
        "if (%s %s %d) {" % (var(), rng.choice(_CMP_OPS), const()),
        "  %s := %s %s %d;" % (var(), var(), arith(), const()),
        "} else {",
        "  %s := %d - %s;" % (var(), const(), var()),
        "}",
    ])


def build_par_interleave(seed: int, n_independent: int, n_racy: int,
                         domain) -> Workload:
    """Segments whose original runs three branches in `par` and whose
    modified version runs the same branches in sequence.  Independent
    branches touch only their own variable, so both versions are
    equivalent by construction; racy branches also read and write a shared
    variable."""
    rng = random.Random(seed)
    kinds = [False] * n_independent + [True] * n_racy
    rng.shuffle(kinds)
    pairs, ops = [], []
    for index, racy in enumerate(kinds):
        shared = "s" if racy else None
        branches = [_par_branch(rng, "x%d" % b, shared) for b in range(3)]
        outputs = ["x0", "x1", "x2"] + (["s"] if racy else [])

        def render(body):
            return "#outputs %s;\n#segment 1 {\n%s\n}\n" % (", ".join(outputs), body)

        par = "par\n" + "\n".join("{\n%s\n}" % b for b in branches)
        pairs.append(_make_pair(
            "par_interleave #%d (%s)" % (index, "racy" if racy else "independent"),
            render(par), render("\n".join(branches)),
            equivalent=not racy, reference=True))
        ops += [Op("verify", index, domain), Op("oracle", index, domain),
                Op("encode", index)]
    return Workload(pairs, ops)


# ---------------------------------------------------------------------------
# long_segments

def _straight_line(rng: random.Random, n: int) -> list[tuple[str, tuple, str]]:
    """n assignments over LONG_VARS as (target, variables read, text); the
    three forms take turns, so every seed gives the same mix."""
    out = []
    for i in range(n):
        target, u, w = (rng.choice(LONG_VARS) for _ in range(3))
        k = rng.randint(1, 3)
        kind = i % 3
        if kind == 0:
            out.append((target, (u,), "%s := %s + %d;" % (target, u, k)))
        elif kind == 1:
            out.append((target, (u,), "%s := %s - %d;" % (target, u, k)))
        else:
            out.append((target, (u, w), "%s := %s + %s;" % (target, u, w)))
    return out


_PLUS = re.compile(r"^(\w+) := (\w+) \+ (\w+);$")


def _commuted(stmt):
    """The same assignment with the operands of `+` swapped."""
    target, reads, text = stmt
    return target, reads, _PLUS.sub(r"\1 := \3 + \2;", text)


def _long_pair(rng: random.Random, n: int, label: str) -> Pair:
    """A straight-line segment of n statements in a straight-line context;
    the modified segment swaps the operands of every `+`, so the pair is
    equivalent by construction."""
    prefix = _straight_line(rng, 2)
    seg1 = _straight_line(rng, n)
    suffix = _straight_line(rng, 3)
    outputs = sorted(rng.sample(LONG_VARS, 2))
    seg2 = [_commuted(stmt) for stmt in seg1]

    def render(seg):
        return "".join(["#outputs %s;\n" % ", ".join(outputs),
                        "".join(s[2] + "\n" for s in prefix),
                        "#segment 1 {\n",
                        "".join(s[2] + "\n" for s in seg),
                        "}\n",
                        "".join(s[2] + "\n" for s in suffix)])

    sets = straight_line_sets([s[:2] for s in seg1], [s[:2] for s in seg2],
                              [s[:2] for s in suffix], outputs)
    return _make_pair(label, render(seg1), render(seg2), equivalent=True,
                      reference=True, sets=sets)


def build_long_segments(seed: int, verify_sizes, encode_sizes, failing_sizes,
                        domain) -> Workload:
    """Straight-line segment pairs through encode; the shorter ones also
    through verify and oracle on a one-value domain."""
    rng = random.Random(seed)
    pairs, ops = [], []
    sizes = sorted(set(verify_sizes) | set(encode_sizes))
    for n in sizes:
        index = len(pairs)
        pairs.append(_long_pair(rng, n, "long_segments #%d (%d statements, seed %d)"
                                % (index, n, seed)))
        if n in verify_sizes:
            ops += [Op("verify", index, domain), Op("oracle", index, domain)]
        if n in encode_sizes:
            ops.append(Op("encode", index))
    fixed = random.Random(LONG_FAILING_SEED)
    for n in failing_sizes:
        index = len(pairs)
        pairs.append(_long_pair(fixed, n, "long_segments #%d (%d statements, fixed seed %d)"
                                % (index, n, LONG_FAILING_SEED)))
        ops.append(Op("encode", index))
    return Workload(pairs, ops)


# ---------------------------------------------------------------------------
# Sizes

FULL = {
    "fuzz_pairs": dict(n_pairs=1200, domain=(-1, 1)),
    "sum2_oracle": dict(domains=((0, 1), (0, 2), (0, 3), (-2, 1))),
    "par_interleave": dict(n_independent=26, n_racy=10, domain=(0, 1)),
    "long_segments": dict(verify_sizes=LONG_VERIFY_SIZES, encode_sizes=LONG_ENCODE_SIZES,
                          failing_sizes=LONG_FAILING_SIZES, domain=(0, 0)),
}

SMOKE = {
    "fuzz_pairs": dict(n_pairs=12, domain=(-1, 1)),
    "sum2_oracle": dict(domains=((0, 1), (-1, 1))),
    "par_interleave": dict(n_independent=1, n_racy=1, domain=(0, 1)),
    "long_segments": dict(verify_sizes=(30,), encode_sizes=(30, 60),
                          failing_sizes=LONG_FAILING_SIZES[:1], domain=(0, 0)),
}

BUILD_FUNCTIONS = {
    "fuzz_pairs": build_fuzz_pairs,
    "sum2_oracle": build_sum2,
    "par_interleave": build_par_interleave,
    "long_segments": build_long_segments,
}


def build(name: str, seed: int, smoke: bool = False) -> Workload:
    """The workload's pairs and round, with the programs the oracle needs
    parsed in advance."""
    sizes = (SMOKE if smoke else FULL)[name]
    workload = BUILD_FUNCTIONS[name](seed, **sizes)
    oracle_pairs = {op.pair for op in workload.ops if op.kind == "oracle"}
    for index in sorted(oracle_pairs):
        pair = workload.pairs[index]
        original, modified = eq.parse(pair.text1), eq.parse(pair.text2)
        pair.programs = (original.program, modified.program)
        pair.outputs = frozenset(original.outputs) | frozenset(modified.outputs)
    return workload
