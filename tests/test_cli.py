"""CLI surface: subcommands, outputs, exit codes."""

import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import sli
import sli.cli
from sli.cli import main
from sli.parser import MAX_NESTING_DEPTH

DATA = Path(__file__).parent / "data"

COVER_SRC = """\
vocabulary {
  type T := {a, b, c}.
  pred P(T).
  pred Q(T).
}
theory {
  !x in T: P(x) | Q(x).
}
structure {
  P := {a}.
}
"""


def test_check_ok(capsys):
    assert main(["check", str(DATA / "queens3.sli")]) == 0
    out = capsys.readouterr().out
    assert "ok (3 sentences)" in out


def test_check_missing_file(capsys):
    assert main(["check", "/nonexistent/nope.sli"]) == 1
    assert "error" in capsys.readouterr().err


def test_check_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.sli"
    bad.write_text("vocabulary { type T := }")
    assert main(["check", str(bad)]) == 2
    assert "error" in capsys.readouterr().err


def test_check_type_error(tmp_path, capsys):
    bad = tmp_path / "bad.sli"
    bad.write_text(
        """
vocabulary {
  type T := {a}.
  pred p(T).
}
theory {
  p(a, a).
}
structure {
}
"""
    )
    assert main(["check", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "error" in err


def test_ground_to_stdout(capsys):
    assert main(["ground", str(DATA / "mapcolour3.sli")]) == 0
    captured = capsys.readouterr()
    assert captured.out == (DATA / "mapcolour3.smt2").read_text()
    assert "verdict open, 2 assertions (vec)" in captured.err


def test_ground_out_file_matches_golden(tmp_path, capsys):
    out = tmp_path / "q.smt2"
    stats = tmp_path / "q.csv"
    rc = main(
        [
            "ground",
            str(DATA / "queens3.sli"),
            "--strategy",
            "naive",
            "--out",
            str(out),
            "--stats",
            str(stats),
        ]
    )
    assert rc == 0
    assert out.read_text() == (DATA / "queens3.smt2").read_text()
    lines = stats.read_text().strip().split("\n")
    assert lines[0] == (
        "sentence-id,strategy,guards,splits-kept,tensor-bits,instantiations,micros"
    )
    assert len(lines) == 4
    assert all(line.split(",")[1] == "naive" for line in lines[1:])


def test_ground_noreduce(tmp_path, capsys):
    src = tmp_path / "cover.sli"
    src.write_text(COVER_SRC)
    assert main(["ground", str(src), "--strategy", "noreduce"]) == 0
    captured = capsys.readouterr()
    assert "(declare-fun P (T) Bool)" in captured.out
    assert "verdict open" in captured.err


def test_ground_timeout_exit_code(tmp_path, capsys):
    src = tmp_path / "cover.sli"
    src.write_text(COVER_SRC)
    assert main(["ground", str(src), "--timeout", "0"]) == 3
    assert "deadline" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "NaN", "-nan"])
@pytest.mark.parametrize(
    "command",
    [["ground", str(DATA / "mapcolour3.sli")], ["bench", "--family", "tg", "--size", "3"]],
    ids=["ground", "bench"],
)
def test_a_nan_timeout_is_a_usage_error(capsys, command, value):
    """No clock reading passes a NaN deadline, so NaN would mean no limit
    at all; inf still does, and it grounds."""
    with pytest.raises(SystemExit) as e:
        main(command + [f"--timeout={value}"])
    assert e.value.code == 1
    assert "--timeout" in capsys.readouterr().err
    assert main(command + ["--timeout", "inf"]) == 0


@pytest.mark.parametrize("value", ["-5", "-1"])
def test_a_negative_cap_is_a_usage_error(capsys, value):
    """A negative cap is below every block's guard count, so it would send
    every block, guard-free ones too, to naive(fallback); 0 still grounds."""
    command = ["ground", str(DATA / "mapcolour3.sli")]
    with pytest.raises(SystemExit) as e:
        main(command + ["--cap", value])
    assert e.value.code == 1
    assert "--cap" in capsys.readouterr().err
    assert main(command + ["--cap", "0"]) == 0


def test_ground_unsupported_nesting_exit_code(tmp_path, capsys):
    src = tmp_path / "nested.sli"
    src.write_text(
        """
vocabulary {
  type T := {a}.
  func u(T) -> T.
  pred w(T).
}
theory {
  !x in T: w(u(u(x))).
}
structure {
}
"""
    )
    assert main(["ground", str(src)]) == 2
    assert main(["ground", str(src), "--strategy", "noreduce"]) == 0


def test_bench_csv_on_stdout(capsys):
    rc = main(
        [
            "bench",
            "--family",
            "cs",
            "--variant",
            "unsat",
            "--size",
            "10",
            "--ratio",
            "0.3",
            "--seed",
            "2",
            "--strategies",
            "vec",
            "naive",
        ]
    )
    assert rc == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == (
        "benchmark,instance,strategy,size,ratio,seed,"
        "ground_us,emit_us,verdict,assertions,peak_bits,timeout"
    )
    assert len(lines) == 3
    assert lines[1].startswith("cs-unsat,cs-unsat-n10-r0.3-s2,vec,10,0.3,2,")
    assert ",unsat-trivial,0," in lines[1]


def test_bench_invalid_spec_is_usage_error(capsys):
    assert main(["bench", "--family", "ci", "--size", "10"]) == 1
    assert "variant" in capsys.readouterr().err


def test_bench_multiple_sizes(tmp_path):
    out = tmp_path / "r.csv"
    rc = main(
        [
            "bench",
            "--family",
            "tg",
            "--size",
            "9",
            "12",
            "--seed",
            "4",
            "--strategies",
            "vec",
            "--no-emit",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 3
    assert lines[1].split(",")[1] == "tg-n9-s4"
    assert lines[2].split(",")[1] == "tg-n12-s4"
    # no-emit leaves the emit_us column empty
    assert all(line.split(",")[7] == "" for line in lines[1:])


def test_usage_errors_exit_one():
    with pytest.raises(SystemExit) as e:
        main([])
    assert e.value.code == 1
    with pytest.raises(SystemExit) as e:
        main(["ground", "x.sli", "--strategy", "bogus"])
    assert e.value.code == 1
    with pytest.raises(SystemExit) as e:
        main(["frobnicate"])
    assert e.value.code == 1


def test_summary_names_the_strategies_that_ran(tmp_path, capsys):
    preds = "\n".join(f"  pred p{i}(T)." for i in range(9))
    rels = "\n".join(f"  p{i} := {{a}}." for i in range(9))
    body = " | ".join(f"p{i}(x)" for i in range(9))
    src = tmp_path / "cap.sli"
    src.write_text(
        f"""
vocabulary {{
  type T := {{a, b}}.
{preds}
  pred u(T).
}}
theory {{
  !x in T: p0(x) | u(x).
  !x in T: {body} | u(x).
}}
structure {{
{rels}
}}
"""
    )
    assert main(["ground", str(src)]) == 0
    assert "verdict open, 2 assertions (vec, naive(fallback))" in capsys.readouterr().err
    assert main(["ground", str(src), "--cap", "9"]) == 0
    assert "verdict open, 2 assertions (vec)" in capsys.readouterr().err


DEEP_HEAD = "vocabulary {\n  type T := {a, b}.\n  pred p(T).\n  pred u(T).\n}\ntheory {\n"
DEEP_TAIL = "\n}\nstructure {\n  p := {a}.\n}\n"


@pytest.mark.parametrize(
    "sentence",
    [
        "!x in T: " + "~" * 3000 + "u(x).",
        "!x in T: " + "(" * 3000 + "u(x)" + ")" * 3000 + ".",
    ],
    ids=["negations", "parentheses"],
)
def test_deep_nesting_is_an_input_error(tmp_path, sentence):
    src = tmp_path / "deep.sli"
    src.write_text(DEEP_HEAD + sentence + DEEP_TAIL)
    env = {**os.environ, "PYTHONPATH": str(Path(sli.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "sli.cli", "ground", str(src)],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 2
    assert "nesting deeper than" in proc.stderr and "Traceback" not in proc.stderr


@pytest.mark.parametrize("strategy", ["vec", "noreduce"])
def test_nesting_at_the_limit_grounds(tmp_path, capsys, strategy):
    # the quantifier, the atom p(x) and its argument x take three levels
    k = MAX_NESTING_DEPTH - 3
    cases = [
        ("!x in T: " + "~" * k + "p(x) | u(x).", 0),
        ("!x in T: " + "(" * k + "p(x) | u(x)" + ")" * k + ".", 0),
        ("!x in T: " + "~" * (k + 1) + "p(x) | u(x).", 2),
        ("!x in T: " + "(" * (k + 1) + "p(x) | u(x)" + ")" * (k + 1) + ".", 2),
    ]
    src = tmp_path / "limit.sli"
    out = tmp_path / "limit.smt2"
    for sentence, code in cases:
        src.write_text(DEEP_HEAD + sentence + DEEP_TAIL)
        rc = main(["ground", str(src), "--strategy", strategy, "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == code, err
        assert "Traceback" not in err
        if code == 0:
            assert "(assert" in out.read_text()


def test_memory_error_is_a_resource_error(tmp_path, capsys, monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError("out of memory")

    monkeypatch.setattr(sli.cli, "ground_problem", exhausted)
    src = tmp_path / "cover.sli"
    src.write_text(COVER_SRC)
    assert main(["ground", str(src)]) == 3
    assert "out of memory" in capsys.readouterr().err


def test_bare_memory_error_has_a_message(tmp_path, capsys, monkeypatch):
    # a MemoryError raised by the interpreter itself carries no message
    def exhausted(*args, **kwargs):
        raise MemoryError()

    monkeypatch.setattr(sli.cli, "ground_problem", exhausted)
    src = tmp_path / "cover.sli"
    src.write_text(COVER_SRC)
    assert main(["ground", str(src)]) == 3
    message = capsys.readouterr().err.strip().removeprefix("sli: error:").strip()
    assert message


@pytest.mark.parametrize("strategy", ["vec", "naive", "noreduce"])
def test_timeout_holds_on_an_equivalence_chain(tmp_path, capsys, strategy):
    # a <=> b holds a and b twice, so 30 links make a DAG whose tree has
    # about 2^30 nodes; grounding must still stop at the deadline
    chain = " <=> ".join(["u(x)"] * 31)
    src = tmp_path / "chain.sli"
    src.write_text(DEEP_HEAD + f"!x in T: {chain}." + DEEP_TAIL)
    t0 = time.monotonic()
    rc = main(["ground", str(src), "--strategy", strategy, "--timeout", "1"])
    assert rc == 3
    assert time.monotonic() - t0 < 5
    assert "deadline" in capsys.readouterr().err


HUGE_LITERAL_SRC = """\
vocabulary {
  type N := Int[1..3].
  pred u(N, N).
}
theory {
  !x, y in N: x ~= 99999999999999999999 => u(x, y).
}
structure {
}
"""


def test_huge_integer_literal(tmp_path, capsys):
    src = tmp_path / "huge.sli"
    src.write_text(HUGE_LITERAL_SRC)
    assert main(["ground", str(src)]) == 3
    assert "exceeds 64 bits" in capsys.readouterr().err
    for strategy in ("naive", "noreduce"):
        assert main(["ground", str(src), "--strategy", strategy]) == 0
        assert "verdict open, 9 assertions" in capsys.readouterr().err


HUGE_DOMAIN_SRC = """\
vocabulary {
  type N := Int[0..4294967295].
  type M := Int[-9223372036854775808..9223372036854775807].
  pred p(N, N, M).
  pred q(M).
}
theory {
  !m in M: p(1073741824, 0, m) => q(m).
}
structure {
  p := {(1073741824, 0, 3)}.
}
"""


@pytest.mark.parametrize("strategy", ["vec", "naive", "noreduce"])
def test_a_block_over_a_huge_type_is_a_resource_error(tmp_path, capsys, strategy):
    # M has 2^64 values: more bits than the budget, more tuples than an index
    src = tmp_path / "huge.sli"
    src.write_text(HUGE_DOMAIN_SRC)
    assert main(["ground", str(src), "--strategy", strategy]) == 3
    err = capsys.readouterr().err.strip()
    assert err.startswith("sli: error:") and len(err.splitlines()) == 1, err


def test_summary_reports_phase_times(capsys):
    assert main(["ground", str(DATA / "mapcolour3.sli")]) == 0
    err = capsys.readouterr().err
    assert re.search(
        r"assertions \(vec\); parse \d+\.\d{3} s, ground \d+\.\d{3} s, emit \d+\.\d{3} s$",
        err.strip(),
    ), err


@pytest.mark.parametrize("command", ["check", "ground"])
def test_non_utf8_input_is_an_input_error(tmp_path, capsys, command):
    src = tmp_path / "bad.sli"
    src.write_bytes(b"vocabulary {\n  type T := {a\xff}.\n}\n")
    assert main([command, str(src)]) == 2
    err = capsys.readouterr().err
    assert f"{src}: byte 0xff at offset 27 is not UTF-8" in err
    assert "Traceback" not in err


def test_crlf_file_gives_the_spans_of_a_lf_file(tmp_path, capsys):
    src = tmp_path / "crlf.sli"
    src.write_bytes(COVER_SRC.replace("P := {a}", "P := {zz}").replace("\n", "\r\n").encode())
    assert main(["check", str(src)]) == 2
    assert f"{src}:10:9-11: unknown element: zz" in capsys.readouterr().err


def test_noreduce_facts_over_a_huge_table_are_a_resource_error(tmp_path, capsys):
    # p's table has 2^128 entries: noreduce emits the interpreted tables as
    # facts, and refuses this one before enumerating any of it
    src = tmp_path / "huge.sli"
    src.write_text(
        HUGE_DOMAIN_SRC.replace(
            "!m in M: p(1073741824, 0, m) => q(m).", "p(1073741824, 0, 3) => q(3)."
        )
    )
    assert main(["ground", str(src), "--strategy", "noreduce", "--timeout", "5"]) == 3
    err = capsys.readouterr().err.strip()
    assert err == (
        f"sli: error: the table of p has {2**128} entries, more than the budget of 8589934592"
    ), err


def test_python_m_sli_runs_the_command_line():
    """`python -m sli` is the `sli` command: it exits 0 and prints no
    warning to stderr."""
    root = Path(__file__).parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    run = subprocess.run(
        [sys.executable, "-m", "sli", "check", "tests/data/mapcolour3.sli"],
        cwd=root, env=env, capture_output=True, text=True, timeout=60,
    )
    assert run.returncode == 0 and run.stderr == ""
    assert run.stdout == "tests/data/mapcolour3.sli: ok (1 sentence)\n"
