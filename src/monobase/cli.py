"""Command line front end.

Exit codes: 0 for a decided result, 2 when the verdict is Unknown (an effort
bound was hit), 1 for invalid input, usage errors included, and when the
reader closes stdout early.  --json emits a single document with a
schema_version field; the human-readable output carries the same facts.

Only analyze, search and batch take the effort flags (--seed, default 1729;
--trial-division-bound; --rho-budget).  oracle and selftest run at
DEFAULT_EFFORT, where no flag could change their output.

--poly takes comma-separated coefficients in ascending degree order
("2,4,2,0,0,0,0,1" is x^7 + 2x^2 + 4x + 2) and accepts a Unicode minus sign
wherever a '-' is; the integer options do not.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .dedekind import dedekind_divides_index
from .discriminant import QuadrinomialSpec
from .families import FamilyTemplate, search_family
from .integer_core import DEFAULT_EFFORT, EffortConfig
from .polynomials import ZPoly
from .report import ReduciblePolynomialError, analyze, cross_check_with_dedekind

SCHEMA_VERSION = 1

EXIT_DECIDED = 0
EXIT_INVALID = 1
EXIT_UNKNOWN = 2


class _Parser(argparse.ArgumentParser):
    """Reports usage errors as ValueError, so they exit 1 like any invalid
    input instead of argparse's 2, the code reserved for Unknown."""

    def error(self, message: str):
        raise ValueError(message)


def _parse_int(text: str) -> int:
    normalized = text.strip().replace("−", "-")
    try:
        return int(normalized)
    except ValueError:
        raise ValueError(f"not an integer: {text!r}") from None


def parse_poly(text: str) -> ZPoly:
    """Comma-separated coefficients, ascending degree order.  One trailing
    comma is allowed; any other empty field is an error, since dropping it
    would shift every later degree."""
    parts = text.split(",")
    if len(parts) > 1 and not parts[-1].strip():
        parts.pop()
    if not any(p.strip() for p in parts):
        raise ValueError("empty polynomial")
    if not all(p.strip() for p in parts):
        raise ValueError(f"empty coefficient in {text!r}")
    return ZPoly(tuple(_parse_int(p) for p in parts))


def _effort(args: argparse.Namespace) -> EffortConfig:
    return EffortConfig(
        trial_division_bound=args.trial_division_bound,
        rho_iteration_budget=args.rho_budget,
        rng_seed=args.seed,
    )


def _document(command: str, effort: EffortConfig, result, warnings: list[str]) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "config": {
            "seed": effort.rng_seed,
            "trial_division_bound": effort.trial_division_bound,
            "rho_iteration_budget": effort.rho_iteration_budget,
        },
        "warnings": warnings,
        "result": result,
    }


def _emit(doc: dict, as_json: bool, lines: list[str]) -> None:
    if as_json:
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        for line in lines:
            print(line)
        for w in doc["warnings"]:
            print(f"warning: {w}")


def _spec_from_args(args: argparse.Namespace) -> QuadrinomialSpec:
    if args.template is not None:
        if args.c is None:
            raise ValueError("--template requires --c")
        if args.a is not None or args.b is not None:
            raise ValueError("--template conflicts with explicit --a/--b")
        return FamilyTemplate(args.n).spec(args.c)
    if args.a is None or args.b is None or args.c is None:
        raise ValueError("provide --a --b --c, or --template with --c")
    return QuadrinomialSpec(args.n, args.a, args.b, args.c)


def _index_text(report) -> str:
    idx = report.index
    if idx.kind == "exact":
        return str(idx.value)
    if idx.kind == "lower_bound":
        return f">= {idx.value} (lower bound)"
    return "unknown"


def cmd_analyze(args: argparse.Namespace) -> int:
    effort = _effort(args)
    spec = _spec_from_args(args)
    report = analyze(spec, effort)
    lines = [
        f"f = {spec.polynomial()}",
        f"irreducibility: {report.irreducibility.status}"
        + (
            f" ({report.irreducibility.method})"
            if report.irreducibility.method
            else ""
        ),
        f"disc(f) = {report.disc_poly}",
        f"monogenic: {report.monogenic}",
        f"index: {_index_text(report)}",
    ]
    for v in report.prime_verdicts:
        outcome = "index coprime to p" if v.case.passes else "p divides index"
        lines.append(
            f"  p = {v.p}: v_p(disc f) = {v.disc_poly_valuation}, "
            f"{v.case.tag.value} [{v.case.source}] -> {outcome}"
        )
    if report.abs_disc_field is not None:
        parts = " * ".join(f"{p}^{e}" for p, e in report.abs_disc_field.factors) or "1"
        lines.append(f"|disc K| = {report.abs_disc_field.value} = {parts}")
    doc = _document("analyze", effort, report.to_dict(), list(report.caveats))
    _emit(doc, args.json, lines)
    return EXIT_UNKNOWN if report.monogenic == "unknown" else EXIT_DECIDED


def cmd_search(args: argparse.Namespace) -> int:
    effort = _effort(args)
    if args.c_min > args.c_max:
        raise ValueError("--c-min must not exceed --c-max")
    entries = search_family(FamilyTemplate(args.n), range(args.c_min, args.c_max + 1), effort)
    lines = []
    for e in entries:
        if e.skipped:
            lines.append(f"c = {e.c}: skipped ({e.reason})")
        else:
            lines.append(
                f"c = {e.c}: monogenic = {e.monogenic}, index = "
                + _index_text(e.report)
            )
    result = [e.to_dict() for e in entries]
    doc = _document("search", effort, result, [])
    _emit(doc, args.json, lines)
    if any(not e.skipped and e.monogenic == "unknown" for e in entries):
        return EXIT_UNKNOWN
    return EXIT_DECIDED


def cmd_oracle(args: argparse.Namespace) -> int:
    f = parse_poly(args.poly)
    divides, witness = dedekind_divides_index(f, args.p)
    lines = [f"f = {f}", f"p = {args.p}"]
    for g, e in witness.factorization.factors:
        lines.append(f"  factor: ({g})^{e}")
    lines.append(f"M mod p = {witness.m_reduced}")
    if divides:
        lines.append(
            f"p divides the index (repeated factor {witness.offending_factor} divides M)"
        )
    else:
        lines.append("p does not divide the index")
    result = {"poly": list(f.coeffs), "p": args.p, "divides_index": divides}
    result.update(witness.to_dict())
    doc = _document("oracle", DEFAULT_EFFORT, result, [])
    _emit(doc, args.json, lines)
    return EXIT_DECIDED


def _iter_batch_lines(path: str):
    if path == "-":
        yield from sys.stdin
    else:
        try:
            with open(path, encoding="utf-8") as fh:
                yield from fh
        except OSError as exc:
            raise ValueError(f"cannot read {path}: {exc}") from None


def _json_int(obj: dict, key: str) -> int:
    """obj[key] when it is a JSON integer; floats and booleans are refused,
    not truncated."""
    if key not in obj:
        raise ValueError(f"missing key {key!r}")
    value = obj[key]
    if type(value) is not int:
        raise ValueError(f"{key} must be a JSON integer, got {json.dumps(value)}")
    return value


def cmd_batch(args: argparse.Namespace) -> int:
    effort = _effort(args)
    results = []
    lines_out = []
    any_unknown = False
    for lineno, raw in enumerate(_iter_batch_lines(args.input), start=1):
        # A leading byte-order mark (PowerShell 5 writes one) is not JSON.
        raw = raw.removeprefix("\ufeff").strip()
        if not raw:
            continue
        try:
            obj = json.loads(raw)
            if not isinstance(obj, dict):
                raise ValueError("expected a JSON object")
            n, c = _json_int(obj, "n"), _json_int(obj, "c")
            if "template" in obj:
                if "a" in obj or "b" in obj:
                    raise ValueError("template conflicts with explicit a/b")
                if obj["template"] != "pc":
                    raise ValueError(f"unknown template rule {obj['template']!r}")
                spec = FamilyTemplate(n).spec(c)
            else:
                spec = QuadrinomialSpec(n, _json_int(obj, "a"), _json_int(obj, "b"), c)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise ValueError(f"line {lineno}: invalid JSON ({exc})") from None
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"line {lineno}: bad spec ({exc})") from None
        try:
            report = analyze(spec, effort)
        except ReduciblePolynomialError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
        any_unknown = any_unknown or report.monogenic == "unknown"
        results.append(report.to_dict())
        lines_out.append(
            f"{spec.polynomial()}: monogenic = {report.monogenic}, "
            f"index = {_index_text(report)}"
        )
    doc = _document("batch", effort, results, [])
    _emit(doc, args.json, lines_out)
    return EXIT_UNKNOWN if any_unknown else EXIT_DECIDED


def cmd_selftest(args: argparse.Namespace) -> int:
    failures = []

    def check(label: str, ok: bool) -> None:
        print(f"{'PASS' if ok else 'FAIL'}  {label}")
        if not ok:
            failures.append(label)

    trio = {2: ("no", 3), 5: ("yes", 1), 7: ("no", 11)}
    for c, (expected, index) in trio.items():
        report = analyze(QuadrinomialSpec(7, c, 2 * c, c))
        check(
            f"x^7 + {c}(x+1)^2 monogenic={expected} index={index}",
            report.monogenic == expected
            and report.index.kind == "exact"
            and report.index.value == index,
        )
    for spec in (
        QuadrinomialSpec(7, 2, 4, 2),
        QuadrinomialSpec(5, 1, 6, 9),
        QuadrinomialSpec(4, 3, 6, 3),
        QuadrinomialSpec(6, -1, -4, -4),
    ):
        bad = cross_check_with_dedekind(spec)
        check(f"case tests match Dedekind for {spec.polynomial()}", not bad)
    return EXIT_DECIDED if not failures else EXIT_INVALID


def _add_effort_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--json", action="store_true", help="emit a JSON document")
    p.add_argument("--seed", type=int, default=DEFAULT_EFFORT.rng_seed, help="RNG seed")
    p.add_argument(
        "--trial-division-bound",
        type=int,
        default=DEFAULT_EFFORT.trial_division_bound,
        dest="trial_division_bound",
    )
    p.add_argument(
        "--rho-budget", type=int, default=DEFAULT_EFFORT.rho_iteration_budget, dest="rho_budget"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="monobase",
        description="Monogenicity of number fields from x^n + a*x^2 + b*x + c with b^2 = 4ac",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="analyze one quadrinomial spec")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--a", type=int, default=None)
    p.add_argument("--b", type=int, default=None)
    p.add_argument("--c", type=int, default=None)
    p.add_argument("--template", choices=["pc"], default=None)
    _add_effort_flags(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("search", help="sweep a template family over a parameter range")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--c-min", type=int, required=True, dest="c_min")
    p.add_argument("--c-max", type=int, required=True, dest="c_max")
    _add_effort_flags(p)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("oracle", help="run the Dedekind criterion on any monic polynomial")
    p.add_argument("--poly", required=True, help="coefficients, ascending degree")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--json", action="store_true", help="emit a JSON document")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("batch", help="analyze JSON-lines specs from a file or stdin")
    p.add_argument("--input", default="-", help="path or - for stdin")
    _add_effort_flags(p)
    p.set_defaults(func=cmd_batch)

    p = sub.add_parser("selftest", help="run built-in cross checks")
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv: list[str] | None = None) -> int:
    # Python 3.10.7+ refuses to print ints of more than 4300 digits by default;
    # discriminants of large specs exceed that.  The limit is lifted for this
    # call only, so a caller in the same process keeps its own.
    has_limit = hasattr(sys, "set_int_max_str_digits")
    if has_limit:
        previous_limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
    try:
        args = build_parser().parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()
        return code
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except BrokenPipeError:
        # `| head` closed stdout: the exit flush goes to devnull (Python docs).
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_INVALID
    finally:
        if has_limit:
            sys.set_int_max_str_digits(previous_limit)


if __name__ == "__main__":
    sys.exit(main())
