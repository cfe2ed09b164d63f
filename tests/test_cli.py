import contextlib
import dataclasses
import io
import json
import os
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import equicheck
from equicheck.cli import main
from equicheck.generate import ProgramGenerator
from equicheck.parser import MAX_EXPR_DEPTH, parse

import props
from conftest import fixture_path


def test_analyze_reduction(capsys):
    code = main(["analyze", fixture_path("sum2_seq")])
    out = capsys.readouterr().out
    assert code == 0
    assert "segment 1" in out
    assert "modified={j,sum}" in out
    assert "used_before_def={N}" in out
    assert "live_after={sum}" in out


def test_analyze_json_schema(capsys):
    code = main(["analyze", fixture_path("sum2_par"), "--json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    [seg] = payload["segments"]
    assert seg["id"] == 1
    assert seg["vars"] == ["N", "i", "sum"]
    assert seg["modified"] == ["i", "sum"]


def test_analyze_no_segments(tmp_path, capsys):
    path = tmp_path / "plain.peq"
    path.write_text("#outputs x;\nx := 1;\n")
    code = main(["analyze", str(path)])
    assert code == 0
    assert "0 segments" in capsys.readouterr().out


def test_analyze_segment_inside_par_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.peq"
    path.write_text("par { #segment 1 { x := 1; } } { y := 2; }\n")
    code = main(["analyze", str(path)])
    assert code == 2
    assert "segment" in capsys.readouterr().err


def test_parse_error_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.peq"
    path.write_text("x := ;\n")
    assert main(["analyze", str(path)]) == 2


def test_missing_file_exits_2(capsys):
    assert main(["analyze", "/nonexistent/nope.peq"]) == 2


def test_undecodable_file_exits_2(tmp_path, capsys):
    path = tmp_path / "binary.peq"
    path.write_bytes(b"\xff\xfe x := 1;\n")
    assert main(["analyze", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: cannot read ")


def test_usage_error_exits_2(capsys):
    assert main(["analyze", fixture_path("sum2_seq"),
                 "--domain", "3..1"]) == 2


def test_encode_writes_task_files(tmp_path, capsys):
    code = main(["encode", fixture_path("sum2_seq"), fixture_path("sum2_par"),
                 "--out", str(tmp_path), "--emit-c"])
    assert code == 0
    names = sorted(os.listdir(tmp_path))
    assert names == ["task_1.c", "task_1.json", "task_1.peq"]
    meta = json.loads((tmp_path / "task_1.json").read_text())
    assert meta["segment_id"] == 1
    assert meta["duplicates"]["sum"] == "sum_s"
    task_src = (tmp_path / "task_1.peq").read_text()
    assert "assert (sum_s == sum);" in task_src
    parse(task_src)  # the emitted task is valid source
    c_src = (tmp_path / "task_1.c").read_text()
    assert "long long" in c_src and "assert(" in c_src


def test_encode_no_segments_exits_2(tmp_path, capsys):
    a = tmp_path / "a.peq"
    b = tmp_path / "b.peq"
    a.write_text("x := 1;\n")
    b.write_text("x := 1;\n")
    assert main(["encode", str(a), str(b), "--out", str(tmp_path)]) == 2


def test_check_exit_codes(tmp_path, capsys):
    good = tmp_path / "good.peq"
    good.write_text("x := 1; assert (x == 1);\n")
    bad = tmp_path / "bad.peq"
    bad.write_text("assert (0 == 1);\n")
    assert main(["check", str(good)]) == 0
    assert main(["check", str(bad)]) == 1


def test_check_json_includes_trace(tmp_path, capsys):
    bad = tmp_path / "bad.peq"
    bad.write_text("x := n; assert (x != 1);\n")
    code = main(["check", str(bad), "--json"])
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] == "Violation"
    assert payload["initial_state"] == {"n": 1}
    assert isinstance(payload["trace"], list)


def test_oracle_exit_codes(capsys):
    assert main(["oracle", fixture_path("foo_orig"),
                 fixture_path("foo_mod")]) == 0
    assert main(["oracle", fixture_path("par_orig"),
                 fixture_path("par_mod"), "--domain", "1..1"]) == 1


def test_verify_exit_codes(capsys):
    assert main(["verify", fixture_path("sum2_seq"), fixture_path("sum2_par"),
                 "--domain", "0..3"]) == 0
    assert main(["verify", fixture_path("foo_orig"),
                 fixture_path("foo_mod")]) == 1


def test_verify_json_byte_identical(capsys):
    args = ["verify", fixture_path("foo_orig"), fixture_path("foo_mod"),
            "--json"]
    main(args)
    first = capsys.readouterr().out
    main(args)
    second = capsys.readouterr().out
    assert first == second
    payload = json.loads(first)
    assert set(payload) == {"verdict", "segments", "config", "generator_seed"}


def test_outputs_override(capsys):
    # Overriding outputs to exclude y makes the branch pair trivially pass:
    # nothing is live after the segment, so there is nothing to check.
    code = main(["verify", fixture_path("foo_orig"), fixture_path("foo_mod"),
                 "--outputs", "z"])
    assert code == 0


def test_warning_when_no_outputs(tmp_path, capsys):
    a = tmp_path / "a.peq"
    a.write_text("#segment 1 { x := 1; }\n")
    main(["analyze", str(a)])
    assert "warning" in capsys.readouterr().err


def test_internal_error_is_not_a_verdict(tmp_path, capsys):
    # 1000 nested blocks are too deep for the recursive-descent parser: the
    # RecursionError must exit 3 (unknown), not 1 (violation).
    path = tmp_path / "deep.peq"
    path.write_text("#outputs a;\n#segment 1 {\n%sa := 1;\n%s}\n"
                    % ("if (true) {\n" * 1000, "} else { }\n" * 1000))
    code = main(["verify", str(path), str(path)])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("error: internal error (RecursionError): ")
    assert err.count("\n") == 1 and "Traceback" not in err


def _sum_of(n):
    """`a + a + ... + 1` with n terms, an expression n levels deep."""
    return " + ".join(["a"] * (n - 1) + ["1"])


def test_deep_expression_exits_2_with_its_line(tmp_path, capsys):
    # Every expression walker recurses once per level, so the parser refuses
    # 600 levels rather than leave a later walker to run out of stack.
    path = tmp_path / "deep.peq"
    path.write_text("#outputs a;\n#segment 1 {\na := %s;\n}\n" % _sum_of(600))
    assert main(["verify", str(path), str(path), "--domain=0..0"]) == 2
    err = capsys.readouterr().err
    assert err == "error: %s: 3:6: expression nested deeper than %d levels\n" % (
        path, MAX_EXPR_DEPTH)


def test_expressions_at_depth_bound_run_every_command(tmp_path, capsys):
    # An assert may nest one level less: its task guard `!(b)` adds one.
    cond = "%s != 0" % _sum_of(MAX_EXPR_DEPTH - 2)
    a, b, out = tmp_path / "a.peq", tmp_path / "b.peq", tmp_path / "out"
    for path, last in ((a, "1"), (b, "2")):
        path.write_text("#outputs a;\n#segment 1 {\nassert (%s);\na := %s;\n}\n"
                        % (cond, _sum_of(MAX_EXPR_DEPTH)[:-1] + last))
    assert main(["verify", str(a), str(b), "--domain=0..1"]) == 1
    assert main(["oracle", str(a), str(b), "--domain=0..1"]) == 1
    assert main(["encode", str(a), str(b), "--out", str(out), "--emit-c"]) == 0
    parse((out / "task_1.peq").read_text())
    assert main(["check", str(out / "task_1.peq"), "--domain=0..1"]) == 1


def test_assert_inside_segment_is_assumed(tmp_path, capsys):
    # The copied segments assume their asserts: the task still compares the
    # runs on which `assert (true)` holds, so x := 1 vs x := 2 is flagged.
    a, b = tmp_path / "a.peq", tmp_path / "b.peq"
    a.write_text("#outputs x;\n#segment 1 { assert (true); x := 1; }\n")
    b.write_text("#outputs x;\n#segment 1 { assert (true); x := 2; }\n")
    assert main(["verify", str(a), str(b)]) == 1
    assert "PossiblyInequivalent" in capsys.readouterr().out
    assert main(["oracle", str(a), str(b)]) == 1


def test_marker_error_names_file_and_line(tmp_path, capsys):
    a, b = tmp_path / "a.peq", tmp_path / "b.peq"
    a.write_text("#outputs x;\n#segment 1 { x := 1; }\n")
    b.write_text("#outputs x;\nx := 0;\n#segment 1 { #segment 2 { x := 2; } }\n")
    assert main(["verify", str(a), str(b)]) == 2
    err = capsys.readouterr().err
    assert str(b) in err
    assert "line 3" in err


def test_oracle_rejects_empty_segment(tmp_path, capsys):
    a = tmp_path / "a.peq"
    a.write_text("#outputs x;\nx := 1;\n#segment 1 { }\n")
    assert main(["oracle", str(a), str(a)]) == 2
    err = capsys.readouterr().err
    assert str(a) in err and "empty" in err


def test_oracle_witness_independent_of_hash_seed(tmp_path):
    # The disagreement lies within the first program's terminals, so the
    # witness comes from the fallback branch of the oracle.
    a, b = tmp_path / "a.peq", tmp_path / "b.peq"
    a.write_text("#outputs x;\npar { x := 1; y := 1; } { x := 2; } { y := 2; }\n")
    b.write_text("#outputs x;\nx := 1;\n")
    src = os.path.dirname(os.path.dirname(equicheck.__file__))
    outs = []
    for seed in ("0", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-m", "equicheck.cli", "oracle",
                               str(a), str(b), "--domain", "0..0", "--json"],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 1
        outs.append(proc.stdout)
    assert outs[0] == outs[1]
    assert json.loads(outs[0])["terminal1"] == {"x": 2, "y": 1}


# ---------------------------------------------------------------------------
# Fuzz: every input ends with a documented exit code and no crash

FUZZ_TOKENS = ("x", "y", "v", "0", "1", "-2", "99999999999", ":=", ";", "+",
               "-", "*", "(", ")", "{", "}", "if", "else", "while", "par",
               "assert", "true", "false", "==", "!=", "<", ">=", "!", "&&",
               "||", "#segment", "#outputs", ",", "\n", "//", "@")
COMMANDS = ("analyze", "encode", "check", "oracle", "verify")

token_text = st.lists(st.sampled_from(FUZZ_TOKENS), max_size=40).map(" ".join)
options = st.tuples(st.integers(-2, 1), st.integers(0, 2), st.integers(1, 60),
                    st.integers(1, 500), st.booleans()).map(
    lambda t: ["--domain=%d..%d" % (t[0], t[0] + t[1]), "--max-steps", str(t[2]),
               "--max-states", str(t[3])] + ["--json"] * t[4])


def run_cli(command, texts, options):
    """Run one command on texts written to temporary files; returns the exit
    code and what went to stderr."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for index, text in enumerate(texts):
            paths.append(os.path.join(tmp, "in%d.peq" % index))
            with open(paths[-1], "w", encoding="utf-8") as handle:
                handle.write(text)
        args = [command] + paths[:1 if command in ("analyze", "check") else 2]
        if command == "encode":
            args += ["--out", os.path.join(tmp, "out")]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(args + options)
    return code, err.getvalue()


def assert_no_crash(code, err):
    assert code in (0, 1, 2, 3)
    assert "internal error" not in err and "Traceback" not in err, err


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(COMMANDS), token_text, token_text, options)
def test_cli_fuzz_token_streams(command, text1, text2, options):
    assert_no_crash(*run_cli(command, [text1, text2], options))


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(COMMANDS), st.integers(0, 10 ** 6), st.booleans(),
       st.integers(0, 400), st.one_of(st.just(""), token_text), options)
def test_cli_fuzz_generated_programs(command, seed, asserts, at, splice, options):
    # A generated pair with segments, and sometimes tokens spliced into the
    # modified text at a random place.
    config = dataclasses.replace(props.SMALL, allow_asserts=asserts)
    text1, text2 = ProgramGenerator(seed, config).source_pair()
    text2 = text2[:at] + splice + text2[at:]
    assert_no_crash(*run_cli(command, [text1, text2], options))
