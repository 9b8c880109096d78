"""Command line behavior: parsing, exit codes, JSON documents, batch mode."""

import io
import json
import sys
from pathlib import Path

import pytest

from helpers import time_limit
from monobase import integer_core
from monobase.cli import CliError, main, parse_poly
from monobase.discriminant import QuadrinomialSpec, quadrinomial_discriminant
from monobase.polynomials import ZPoly

GOLDEN = Path(__file__).resolve().parent / "data" / "analyze_golden.json"


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


def test_parse_poly_rejects_garbage():
    with pytest.raises(CliError):
        parse_poly("")
    with pytest.raises(CliError):
        parse_poly("1,x,2")


def test_seed_precedence(capsys, monkeypatch):
    monkeypatch.setenv("MONOBASE_SEED", "99")
    code, doc, _ = run_json(
        capsys, "analyze", "--n", "7", "--a", "2", "--b", "4", "--c", "2",
        "--seed", "42",
    )
    assert code == 0 and doc["config"]["seed"] == 42
    code, doc, _ = run_json(
        capsys, "analyze", "--n", "7", "--a", "2", "--b", "4", "--c", "2"
    )
    assert code == 0 and doc["config"]["seed"] == 99
    monkeypatch.delenv("MONOBASE_SEED")
    code, doc, _ = run_json(
        capsys, "analyze", "--n", "7", "--a", "2", "--b", "4", "--c", "2"
    )
    assert code == 0 and doc["config"]["seed"] == 1729


def test_bad_seed_env_is_invalid_input(capsys, monkeypatch):
    monkeypatch.setenv("MONOBASE_SEED", "not-a-number")
    code, _, err = run(
        capsys, "analyze", "--n", "7", "--a", "2", "--b", "4", "--c", "2"
    )
    assert code == 1
    assert err.startswith("error: MONOBASE_SEED")


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
    original = integer_core.factor_integer
    calls = []

    def counting(n, *args, **kwargs):
        if n == disc:
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
        (["binomial", "--n", "5", "--c", "0"], "c must be nonzero"),
        (["binomial", "--n", "1", "--c", "3"], "degree must be at least 2"),
        (["oracle", "--poly=-5,0,1", "--p", "4"], "4 is not prime"),
        (["oracle", "--poly", "1,2", "--p", "2"], "oracle requires a monic polynomial"),
        (["analyze", "--n", "7", "--a", "2", "--b", "4", "--c", "2",
          "--trial-division-bound", "10000000000"],
         "trial_division_bound must be at most 10000000"),
    ],
)
def test_invalid_input_error_lines(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (1, "", f"error: {message}\n")


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


def test_binomial_command(capsys):
    code, doc, _ = run_json(capsys, "binomial", "--n", "5", "--c", "7")
    assert code == 0
    assert doc["result"] == {"status": "not_monogenic", "witness": 5}
    code, out, _ = run(capsys, "binomial", "--n", "5", "--c", "2")
    assert code == 0 and "monogenic" in out
    code, _, err = run(capsys, "binomial", "--n", "5", "--c", "0")
    assert code == 1


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

    path.write_text('{"n": 5, "a": 49, "b": 84, "c": 36}\n')
    code, _, err = run(capsys, "batch", "--input", str(path))
    assert code == 1 and "line 1:" in err and "reducible" in err

    code, _, err = run(capsys, "batch", "--input", str(tmp_path / "missing.jsonl"))
    assert code == 1 and "cannot read" in err


def test_batch_reads_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO('{"n": 7, "template": "pc", "c": 7}\n'))
    code, doc, _ = run_json(capsys, "batch")
    assert code == 0
    assert doc["result"][0]["index"] == {"kind": "exact", "value": 11}


def test_selftest_passes(capsys):
    code, out, _ = run(capsys, "selftest")
    assert code == 0
    lines = [ln for ln in out.splitlines() if ln.strip()]
    assert len(lines) >= 7
    assert all(ln.startswith("PASS") for ln in lines)
