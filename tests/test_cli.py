"""Command line behavior: parsing, exit codes, JSON documents, batch mode."""

import argparse
import io
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import EXAMPLE_TRIO, int_digit_limit, time_limit, trio_spec
from monobase import cli, cross_check_with_dedekind, integer_core, polynomials
from monobase.cli import build_parser, main, parse_poly
from monobase.discriminant import QuadrinomialSpec, quadrinomial_discriminant
from monobase.polynomials import ZPoly

GOLDEN = Path(__file__).resolve().parent / "data" / "analyze_golden.json"
README = Path(__file__).resolve().parents[1] / "README.md"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    return code, json.loads(out), err


def test_parse_poly_ascending_order():
    assert parse_poly("2,4,2,0,0,0,0,1") == ZPoly((2, 4, 2, 0, 0, 0, 0, 1))
    assert parse_poly(" -5 , 0 , 1 ") == ZPoly((-5, 0, 1))
    assert parse_poly("−5,0,1") == ZPoly((-5, 0, 1))  # Unicode minus
    assert parse_poly("3,") == ZPoly((3,))


def test_parse_poly_rejects_garbage(capsys):
    with pytest.raises(ValueError):
        parse_poly("")
    with pytest.raises(ValueError):
        parse_poly("1,x,2")
    # An empty field would shift every later degree: "1,,1" is not x + 1.
    for text in ("1,,1", ",1", "1,2,,", " , "):
        with pytest.raises(ValueError, match="empty"):
            parse_poly(text)
    code, out, err = run(capsys, "oracle", "--poly", "1,,1", "--p", "2")
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "empty coefficient" in err


def test_seed_precedence(capsys, monkeypatch):
    code, doc, _ = run_json(
        capsys, "analyze", "--n", "7", "--a", "2", "--b", "4", "--c", "2",
        "--seed", "42",
    )
    assert code == 0 and doc["config"]["seed"] == 42
    # Only --seed sets the seed; the environment does not.
    monkeypatch.setenv("MONOBASE_SEED", "99")
    code, doc, _ = run_json(
        capsys, "analyze", "--n", "7", "--a", "2", "--b", "4", "--c", "2"
    )
    assert code == 0 and doc["config"]["seed"] == 1729


def test_analyze_human_output(capsys):
    code, out, _ = run(capsys, "analyze", "--n", "7", "--a", "2", "--b", "4", "--c", "2")
    assert code == 0
    assert "f = x^7 + 2*x^2 + 4*x + 2" in out
    assert "monogenic: no" in out
    assert "index: 3" in out
    assert "|disc K| = 5678528 = 2^6 * 83^1 * 1069^1" in out
    assert "p = 3" in out and "p divides index" in out


def test_analyze_json_document(capsys):
    code, doc, _ = run_json(
        capsys, "analyze", "--n", "7", "--a", "2", "--b", "4", "--c", "2"
    )
    assert code == 0
    assert doc["schema_version"] == 1
    assert doc["command"] == "analyze"
    assert set(doc["config"]) == {"seed", "trial_division_bound", "rho_iteration_budget"}
    assert doc["result"]["monogenic"] == "no"
    assert doc["result"]["index"] == {"kind": "exact", "value": 3}
    assert doc["result"]["abs_disc_field"]["value"] == 2**6 * 83 * 1069
    assert doc["warnings"] == []


def test_analyze_template_form(capsys):
    code, doc, _ = run_json(capsys, "analyze", "--n", "7", "--template", "pc", "--c", "5")
    assert code == 0
    assert doc["result"]["spec"] == {"n": 7, "a": 5, "b": 10, "c": 5}
    assert doc["result"]["monogenic"] == "yes"
    code, _, err = run(
        capsys, "analyze", "--n", "7", "--template", "pc", "--c", "5", "--a", "5"
    )
    assert code == 1 and "conflicts" in err


def test_analyze_factors_the_discriminant_once(capsys, monkeypatch):
    disc = quadrinomial_discriminant(QuadrinomialSpec(7, 5, 10, 5))
    # analyze strips the factors 5 of c off disc f and factors the rest.
    rest = integer_core.p_valuation(abs(disc), 5)[1]
    original = integer_core.factor_integer
    calls = []

    def counting(n, *args, **kwargs):
        if n in (disc, rest):
            calls.append(n)
        return original(n, *args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("monobase") and getattr(module, "factor_integer", None) is original:
            monkeypatch.setattr(module, "factor_integer", counting)
    code, out, _ = run(capsys, "analyze", "--n", "7", "--template", "pc", "--c", "5")
    assert code == 0 and "monogenic: yes" in out
    assert len(calls) == 1

    # The JSON document is the same as before: its result is the golden
    # corpus entry for x^7 + 5(x + 1)^2.
    with open(GOLDEN, encoding="utf-8") as fh:
        docs = [json.loads(line) for line in fh]
    (report,) = [d["report"] for d in docs if d["kind"] == "trio" and d["c"] == 5]
    expected = {
        "schema_version": 1,
        "command": "analyze",
        "config": {
            "seed": 1729,
            "trial_division_bound": 100000,
            "rho_iteration_budget": 1000000,
        },
        "warnings": [],
        "result": report,
    }
    code, out, _ = run(capsys, "analyze", "--n", "7", "--template", "pc", "--c", "5", "--json")
    assert code == 0
    assert out == json.dumps(expected, indent=2, sort_keys=True) + "\n"


def test_only_a_printed_witness_factors_mod_p(capsys, monkeypatch):
    original = polynomials.factor_mod_p
    calls = []

    def counting(f, p, *args, **kwargs):
        calls.append((f, p))
        return original(f, p, *args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("monobase") and getattr(module, "factor_mod_p", None) is original:
            monkeypatch.setattr(module, "factor_mod_p", counting)
    for c in EXAMPLE_TRIO:
        assert cross_check_with_dedekind(trio_spec(c)) == []
    assert calls == []

    expected = {
        "schema_version": 1,
        "command": "oracle",
        "config": {
            "seed": 1729,
            "trial_division_bound": 100000,
            "rho_iteration_budget": 1000000,
        },
        "warnings": [],
        "result": {
            "poly": [-5, 0, 1],
            "p": 2,
            "divides_index": True,
            "factorization": {
                "p": 2,
                "unit": 1,
                "factors": [{"coeffs": [1, 1], "multiplicity": 2}],
            },
            "m_reduced": [1, 1],
            "offending_index": 0,
            "offending_factor": [1, 1],
        },
    }
    code, out, _ = run(capsys, "oracle", "--poly=-5,0,1", "--p", "2", "--json")
    assert code == 0
    assert out == json.dumps(expected, indent=2, sort_keys=True) + "\n"
    assert calls == [(ZPoly((-5, 0, 1)), 2)]


def test_analyze_unknown_exit_code(capsys):
    code, doc, _ = run_json(
        capsys,
        "analyze", "--n", "5", "--template", "pc", "--c", "1000003",
        "--trial-division-bound", "50", "--rho-budget", "0",
    )
    assert code == 2
    assert doc["result"]["monogenic"] == "unknown"
    assert any(
        w.startswith("discriminant factorization incomplete") for w in doc["warnings"]
    )


def test_analyze_invalid_spec(capsys):
    code, out, err = run(capsys, "analyze", "--n", "7", "--a", "1", "--b", "3", "--c", "1")
    assert code == 1
    assert err.startswith("error:")
    assert out == ""
    code, _, err = run(capsys, "analyze", "--n", "7", "--c", "5")
    assert code == 1 and "provide --a --b --c" in err


def test_analyze_reducible_is_invalid(capsys):
    code, _, err = run(capsys, "analyze", "--n", "5", "--a", "49", "--b", "84", "--c", "36")
    assert code == 1 and "reducible" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["analyze", "--n", "7", "--a", "2", "--b", "4", "--c", "2",
          "--trial-division-bound", "1"], "trial_division_bound must be at least 2"),
        (["analyze", "--n", "7", "--a", "2", "--b", "4", "--c", "2",
          "--rho-budget", "-5"], "rho_iteration_budget must be nonnegative"),
        (["analyze", "--n", "2", "--template", "pc", "--c", "5"],
         "degree must be at least 3"),
        (["analyze", "--n", "7", "--a", "1", "--b", "3", "--c", "1"],
         "b**2 = 4ac violated: 3**2 != 4*1*1"),
        (["analyze", "--n", "7", "--a", "0", "--b", "0", "--c", "0"],
         "constant term must be nonzero"),
        (["analyze", "--n", "5", "--a", "49", "--b", "84", "--c", "36"],
         "polynomial is reducible: {'root': -1}"),
        (["analyze", "--n", "6", "--a", "-9", "--b", "-12", "--c", "-4"],
         "polynomial is reducible: {'root': -1}"),
        (["search", "--n", "2", "--c-min", "1", "--c-max", "3"],
         "degree must be at least 3"),
        # x^n - c is an analyze spec now; the binomial command is gone.
        (["binomial", "--n", "5", "--c", "7"],
         "argument command: invalid choice: 'binomial' "
         "(choose from 'analyze', 'search', 'oracle', 'batch', 'selftest')"),
        (["analyze", "--n", "2", "--a", "0", "--b", "0", "--c", "1"],
         "degree must be at least 3"),
        (["oracle", "--poly=-5,0,1", "--p", "4"], "4 is not prime"),
        # The oracle leaves its input checks to the Dedekind layer.
        (["oracle", "--poly", "1,2", "--p", "2"],
         "Dedekind criterion requires a monic polynomial"),
        (["analyze", "--n", "7", "--a", "2", "--b", "4", "--c", "2",
          "--trial-division-bound", "10000000000"],
         "trial_division_bound must be at most 10000000"),
        # Usage errors exit 1 too, not argparse's 2, which means Unknown here.
        (["analyze", "--n", "x"], "argument --n: invalid int value: 'x'"),
        (["search", "--n", "5", "--c-min", "1"],
         "the following arguments are required: --c-max"),
        (["oracle", "--poly", "1", "--p", "2"], "degree must be at least 1"),
        # Options that could not change the output are gone, and refused.
        (["oracle", "--poly=-5,0,1", "--p", "2", "--seed", "5"],
         "unrecognized arguments: --seed 5"),
        (["oracle", "--poly=-5,0,1", "--p", "2", "--rho-budget", "5"],
         "unrecognized arguments: --rho-budget 5"),
        (["selftest", "--json"], "unrecognized arguments: --json"),
        (["search", "--n", "5", "--c-min", "1", "--c-max", "3", "--template", "pc"],
         "unrecognized arguments: --template pc"),
        (["analyze", "--n", "7", "--template", "pc"], "--template requires --c"),
    ],
)
def test_invalid_input_error_lines(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (1, "", f"error: {message}\n")


def test_each_command_takes_only_options_that_act():
    parser = build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    options = {
        name: [s for a in sub._actions for s in a.option_strings if s not in ("-h", "--help")]
        for name, sub in commands.choices.items()
    }
    effort = ["--json", "--seed", "--trial-division-bound", "--rho-budget"]
    assert options == {
        "analyze": ["--n", "--a", "--b", "--c", "--template", *effort],
        "search": ["--n", "--c-min", "--c-max", *effort],
        "oracle": ["--poly", "--p", "--json"],
        "batch": ["--input", *effort],
        "selftest": [],
    }


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str digit limit"
)
def test_main_restores_the_int_digit_limit(capsys):
    with int_digit_limit(4300):
        assert main(["oracle", "--poly=-5,0,1", "--p", "2"]) == 0
        assert sys.get_int_max_str_digits() == 4300
        assert main(["analyze", "--n", "x"]) == 1
        assert sys.get_int_max_str_digits() == 4300


def _readme_usage_lines():
    """Every `monobase ...` command in the README's command-line block."""
    text = README.read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("monobase ")]


def test_readme_usage_lines_run(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "specs.jsonl").write_text(
        '{"n":7,"a":2,"b":4,"c":2}\n{"n":5,"template":"pc","c":5}\n{"n":5,"a":0,"b":0,"c":-7}\n'
    )
    commands = _readme_usage_lines()
    assert len(commands) >= 7
    for argv in commands:
        code, _, err = run(capsys, *argv)
        assert code in (0, 2), (argv, err)


def test_readme_seed_example_exit_codes(capsys):
    text = " ".join(README.read_text(encoding="utf-8").split())
    match = re.search(
        r"\(`(analyze [^`]+)` is `unknown` with `--seed (\d+)` and `yes` with `--seed (\d+)`\)",
        text,
    )
    assert match, "seed example not found in README.md"
    argv = shlex.split(match.group(1))
    code, out, _ = run(capsys, *argv, "--seed", match.group(2))
    assert code == 2 and "monogenic: unknown" in out
    code, out, _ = run(capsys, *argv, "--seed", match.group(3))
    assert code == 0 and "monogenic: yes" in out


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: monobase")


def test_analyze_prints_discriminants_beyond_the_int_digit_limit(capsys):
    # disc = -27 * 2**14402 has 4,337 digits, past the default str(int) cap.
    # main lifts the limit for its own output; reading the output back here
    # needs it lifted too.
    spec = QuadrinomialSpec(3, 0, 0, 2**7201)
    with time_limit(30), int_digit_limit(4300):
        code, out, err = run(
            capsys, "analyze", "--n", "3", "--a", "0", "--b", "0",
            "--c", str(spec.c), "--json",
        )
    assert (code, err) == (0, "")
    with int_digit_limit(0):
        assert json.loads(out)["result"]["disc_poly"] == quadrinomial_discriminant(spec)


@pytest.mark.parametrize("p", ["-3", "-2", "0", "1"])
def test_oracle_rejects_moduli_below_two(capsys, p):
    with time_limit(5):
        code, out, err = run(capsys, "oracle", "--poly", "1,0,1", f"--p={p}")
    assert (code, out, err) == (1, "", f"error: {p} is not prime\n")


def test_search_command(capsys):
    code, doc, _ = run_json(
        capsys, "search", "--n", "5", "--c-min", "-3", "--c-max", "5"
    )
    assert code == 0
    by_c = {entry["c"]: entry for entry in doc["result"]}
    assert by_c[0]["skipped"] and by_c[1]["skipped"] and by_c[-1]["skipped"]
    assert by_c[4]["reason"] == "c is divisible by 2**2"
    assert by_c[5]["monogenic"] == "yes"
    assert by_c[-3]["monogenic"] == "yes"
    code, _, err = run(capsys, "search", "--n", "5", "--c-min", "3", "--c-max", "1")
    assert code == 1 and "--c-min" in err


def test_oracle_command(capsys):
    code, out, _ = run(capsys, "oracle", "--poly", "−5,0,1", "--p", "2")
    assert code == 0
    assert "p divides the index" in out
    code, doc, _ = run_json(capsys, "oracle", "--poly=-5,0,1", "--p", "2")
    assert code == 0
    assert doc["result"]["divides_index"] is True
    code, doc, _ = run_json(capsys, "oracle", "--poly", "1,0,1", "--p", "2")
    assert doc["result"]["divides_index"] is False
    code, _, err = run(capsys, "oracle", "--poly=-5,0,1", "--p", "4")
    assert code == 1 and "not prime" in err
    code, _, err = run(capsys, "oracle", "--poly", "1,2", "--p", "2")
    assert code == 1 and "monic" in err


def test_batch_command(capsys, tmp_path):
    path = tmp_path / "specs.jsonl"
    path.write_text(
        '{"n": 7, "a": 2, "b": 4, "c": 2}\n'
        "\n"
        '{"n": 5, "template": "pc", "c": 5}\n'
    )
    code, doc, _ = run_json(capsys, "batch", "--input", str(path))
    assert code == 0
    assert [r["monogenic"] for r in doc["result"]] == ["no", "yes"]

    path.write_text('{"n": 7, "a": 2, "b": 4, "c": 2}\n{oops\n')
    code, _, err = run(capsys, "batch", "--input", str(path))
    assert code == 1 and "line 2: invalid JSON" in err

    # Nesting too deep for the JSON decoder is invalid JSON, not a traceback.
    path.write_text("[" * 100_000 + "]" * 100_000 + "\n")
    code, out, err = run(capsys, "batch", "--input", str(path))
    assert (code, out) == (1, "")
    assert err.startswith("error: line 1: invalid JSON (") and err.count("\n") == 1

    path.write_text('{"n": 5, "a": 49, "b": 84, "c": 36}\n')
    code, _, err = run(capsys, "batch", "--input", str(path))
    assert code == 1 and "line 1:" in err and "reducible" in err

    # Only JSON integers: floats and booleans are refused, not truncated.
    for bad in (
        '{"n": 7.9, "a": 2, "b": 4, "c": 2}',
        '{"n": 7, "template": "pc", "c": 2.7}',
        '{"n": 7, "a": true, "b": 2, "c": true}',
    ):
        path.write_text('{"n": 7, "a": 2, "b": 4, "c": 2}\n' + bad + "\n")
        code, out, err = run(capsys, "batch", "--input", str(path))
        assert code == 1 and "line 2: bad spec (" in err and "JSON integer" in err, bad
        assert out == "", bad

    # A template fixes a and b, as --template does for analyze.
    for bad in (
        '{"n": 7, "template": "pc", "c": 5, "a": 1, "b": 2}',
        '{"n": 7, "template": "pc", "c": 5, "b": 10}',
    ):
        path.write_text('{"n": 7, "a": 2, "b": 4, "c": 2}\n' + bad + "\n")
        code, out, err = run(capsys, "batch", "--input", str(path))
        assert code == 1 and out == "", bad
        assert "line 2: bad spec (template conflicts with explicit a/b)" in err, bad

    # A line that is not an object, or lacks a key, gets a message, not a
    # Python exception text.
    for bad, message in (
        ("[1,2]", "expected a JSON object"),
        ('"x"', "expected a JSON object"),
        ("7", "expected a JSON object"),
        ('{"n": 7, "c": 2}', "missing key 'a'"),
        ('{"template": "pc", "c": 2}', "missing key 'n'"),
        ('{"n": 7, "template": "cubic", "c": 5}', "unknown template rule 'cubic'"),
    ):
        path.write_text(bad + "\n")
        code, out, err = run(capsys, "batch", "--input", str(path))
        assert code == 1 and out == "", bad
        assert f"line 1: bad spec ({message})" in err, bad

    code, _, err = run(capsys, "batch", "--input", str(tmp_path / "missing.jsonl"))
    assert code == 1 and "cannot read" in err


def test_batch_reads_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO('{"n": 7, "template": "pc", "c": 7}\n'))
    code, doc, _ = run_json(capsys, "batch")
    assert code == 0
    assert doc["result"][0]["index"] == {"kind": "exact", "value": 11}


BOM_LINES = '\ufeff{"n": 7, "template": "pc", "c": 7}\n{"n": 7, "a": 2, "b": 4, "c": 2}\n'


def test_batch_accepts_a_byte_order_mark_in_a_file(capsys, tmp_path):
    # PowerShell 5 writes UTF-8 files with a leading U+FEFF.
    path = tmp_path / "specs.jsonl"
    path.write_text(BOM_LINES, encoding="utf-8")
    code, doc, err = run_json(capsys, "batch", "--input", str(path))
    assert (code, err) == (0, "")
    assert [r["monogenic"] for r in doc["result"]] == ["no", "no"]


def test_batch_accepts_a_byte_order_mark_on_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(BOM_LINES))
    code, doc, err = run_json(capsys, "batch")
    assert (code, err) == (0, "")
    assert doc["result"][0]["index"] == {"kind": "exact", "value": 11}


def test_search_exits_two_when_a_verdict_is_unknown(capsys):
    # c = 1000003 is prime, but the discriminant cannot be factored this cheaply.
    code, out, err = run(
        capsys, "search", "--n", "5", "--c-min", "1000003", "--c-max", "1000003",
        "--trial-division-bound", "50", "--rho-budget", "0",
    )
    assert (code, out, err) == (2, "c = 1000003: monogenic = unknown, index = unknown\n", "")


def test_selftest_reports_failures_and_exits_one(capsys, monkeypatch):
    monkeypatch.setattr(cli, "cross_check_with_dedekind", lambda spec: [2])
    code, out, _ = run(capsys, "selftest")
    assert code == 1
    lines = out.splitlines()
    assert [ln[:4] for ln in lines] == ["PASS"] * 3 + ["FAIL"] * 4
    assert lines[3] == "FAIL  case tests match Dedekind for x^7 + 2*x^2 + 4*x + 2"


def test_module_entry_point_prints_what_main_prints(capsys):
    argv = ["oracle", "--poly=-5,0,1", "--p", "2", "--json"]
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "monobase.cli", *argv],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)}, timeout=60,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == run(capsys, *argv)[1]


@pytest.mark.parametrize("c_bound, first_line", [
    # About 2 KB of output: the reader is gone before it is flushed at exit.
    (30, None),
    # About 230 KB, more than a pipe holds: `| head -1`, print itself fails.
    (3000, "c = -3000: skipped (c is divisible by 2**2)\n"),
])
def test_a_reader_that_closes_stdout_early_gets_no_traceback(c_bound, first_line):
    src = Path(__file__).resolve().parents[1] / "src"
    argv = ["search", "--n", "7", "--c-min", str(-c_bound), "--c-max", str(c_bound)]
    proc = subprocess.Popen(
        [sys.executable, "-m", "monobase.cli", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    if first_line is not None:
        assert proc.stdout.readline() == first_line
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert (proc.returncode, err) == (1, "")


def test_selftest_passes(capsys):
    code, out, _ = run(capsys, "selftest")
    assert code == 0
    lines = [ln for ln in out.splitlines() if ln.strip()]
    assert len(lines) >= 7
    assert all(ln.startswith("PASS") for ln in lines)
