"""End-to-end analysis: irreducibility certificates, verdict assembly, caveats."""

import dataclasses
import json

import pytest

from helpers import EXAMPLE_TRIO, random_specs, trio_spec
from monobase import (
    FamilyTemplate,
    QuadrinomialSpec,
    ReduciblePolynomialError,
    ZPoly,
    analyze,
    cross_check_with_dedekind,
    factor_integer,
    irreducibility_check,
)
from monobase import report
from monobase.integer_core import EffortConfig, IntFactorization


def test_irreducibility_rational_root():
    res = irreducibility_check(QuadrinomialSpec(5, 49, 84, 36).polynomial())
    assert res.status == "reducible"
    assert res.method == "rational_root"
    assert res.detail["root"] == -1
    res = irreducibility_check(ZPoly((0, 0, 1)))  # x**2
    assert (res.status, res.detail["root"]) == ("reducible", 0)


def test_irreducibility_eisenstein():
    res = irreducibility_check(QuadrinomialSpec(4, 448, 1008, 567).polynomial())
    assert (res.status, res.method) == ("irreducible", "eisenstein")
    assert res.detail["prime"] == 7


def test_irreducibility_factors_a_pc_constant_once(monkeypatch):
    # On x**n + c*(x + 1)**2 the gcd of the lower coefficients is |c|, so
    # Eisenstein reuses the factorization of the constant c.
    calls = []

    def counting(m, effort):
        calls.append(m)
        return factor_integer(m, effort)

    monkeypatch.setattr(report, "factor_integer", counting)
    res = irreducibility_check(FamilyTemplate(7).spec(-12).polynomial())
    assert (res.status, res.method, res.detail) == ("irreducible", "eisenstein", {"prime": 3})
    assert calls == [-12]


@pytest.mark.parametrize(
    "n, c, prime", [(7, -12, 3), (3, 6, 2), (5, -30, 2), (12, 101, 101), (9, 18, 2)]
)
def test_eisenstein_pc_spec_skips_the_root_search(monkeypatch, n, c, prime):
    # A certified f has no rational root, so its divisors are never listed.
    calls = []
    divisors_from = report._divisors_from

    def counting(fac):
        calls.append(fac)
        return divisors_from(fac)

    monkeypatch.setattr(report, "_divisors_from", counting)
    res = irreducibility_check(FamilyTemplate(n).spec(c).polynomial())
    assert (res.status, res.method, res.detail) == ("irreducible", "eisenstein", {"prime": prime})
    assert calls == []


def test_irreducibility_newton_polygon():
    # v_2 of 8 is 3, coprime to 7; inner points sit above the segment.
    res = irreducibility_check(QuadrinomialSpec(7, -648, 144, -8).polynomial())
    assert (res.status, res.method) == ("irreducible", "newton_polygon")
    assert res.detail == {"prime": 2, "constant_valuation": 3}


def test_irreducibility_mod_p():
    res = irreducibility_check(QuadrinomialSpec(4, 36, -180, 225).polynomial())
    assert (res.status, res.method) == ("irreducible", "irreducible_mod_p")
    assert res.detail["prime"] == 7


def test_irreducibility_degree_patterns():
    res = irreducibility_check(QuadrinomialSpec(7, 567, 882, 343).polynomial())
    assert (res.status, res.method) == ("irreducible", "factor_degree_patterns")
    assert res.detail["primes"] == [2, 3]


def test_irreducibility_root_free_patterns():
    res = irreducibility_check(QuadrinomialSpec(3, -288, 480, -200).polynomial())
    assert (res.status, res.method) == (
        "irreducible",
        "root_free_factor_degree_patterns",
    )
    assert res.detail["primes"] == [2]


def test_irreducibility_unverified():
    # x**4 + 1 is irreducible over Q but reducible mod every prime, so the
    # checker must decline rather than guess.
    assert irreducibility_check(ZPoly((1, 0, 0, 0, 1))).status == "unverified"
    res = irreducibility_check(QuadrinomialSpec(6, -4, 36, -81).polynomial())
    assert res.status == "unverified"


def test_irreducibility_validation():
    with pytest.raises(ValueError):
        irreducibility_check(ZPoly((2, 4)))  # non-monic
    with pytest.raises(ValueError):
        irreducibility_check(ZPoly((5, 1)))  # degree 1
    with pytest.raises(ValueError):
        irreducibility_check(ZPoly(()))


def test_analyze_known_degree_seven_family():
    for c, (abs_disc, index, monogenic) in EXAMPLE_TRIO.items():
        rep = analyze(trio_spec(c))
        assert rep.irreducibility.status == "irreducible"
        assert abs(rep.disc_poly) == abs_disc
        assert rep.monogenic == monogenic
        assert rep.index.kind == "exact"
        assert rep.index.value == index
        assert rep.abs_disc_field is not None
        assert abs(rep.disc_poly) == index**2 * rep.abs_disc_field.value
        assert rep.caveats == ()


def test_analyze_per_prime_detail():
    rep = analyze(trio_spec(2))
    by_p = {v.p: v for v in rep.prime_verdicts}
    assert sorted(by_p) == [2, 3, 83, 1069]
    assert by_p[2].case.passes and by_p[2].case.tag.value == "p_divides_a_and_c"
    assert not by_p[3].case.passes and by_p[3].case.tag.value == "p_coprime_to_b"
    assert (by_p[3].index_valuation, by_p[3].to_dict()["vp_index_exact"]) == (1, True)
    assert by_p[3].field_disc_valuation == 0
    assert by_p[2].field_disc_valuation == 6
    assert all(v.case.source == "theorem" for v in rep.prime_verdicts)


def test_analyze_rejects_reducible():
    with pytest.raises(ReduciblePolynomialError) as exc:
        analyze(QuadrinomialSpec(5, 49, 84, 36))
    assert exc.value.status.method == "rational_root"
    with pytest.raises(ReduciblePolynomialError):
        analyze(QuadrinomialSpec(5, 4, 12, 9))  # root -1


def test_vanishing_discriminant_is_the_same_error_on_every_route(monkeypatch):
    # x^6 - (3x + 2)^2 = (x + 1)^2 (x - 2)(x^3 + 3x + 2): disc f = 0.
    spec = QuadrinomialSpec(6, -9, -12, -4)
    with pytest.raises(ReduciblePolynomialError) as checked:
        cross_check_with_dedekind(spec)
    assert checked.value.status.to_dict() == {
        "status": "reducible",
        "method": "vanishing_discriminant",
        "detail": {"detail": "repeated root"},
    }
    # With the certificates unable to decide, analyze reaches the closed form.
    monkeypatch.setattr(
        report, "irreducibility_check", lambda *_: report.IrreducibilityStatus("unverified")
    )
    with pytest.raises(ReduciblePolynomialError) as analysed:
        analyze(spec)
    assert analysed.value.status == checked.value.status


def test_analyze_unverified_irreducibility_caveat():
    rep = analyze(QuadrinomialSpec(6, -4, 36, -81))
    assert rep.irreducibility.status == "unverified"
    assert any(c.startswith("irreducibility unverified") for c in rep.caveats)


def test_analyze_raises_when_valuation_bookkeeping_breaks(monkeypatch):
    # Shift one field valuation: index**2 * |disc K| no longer equals
    # |disc f|, and the check must raise whatever the interpreter's -O flag.
    real = report._prime_verdict

    def shifted(spec, p, e, disc):
        v = real(spec, p, e, disc)
        if p != 7:
            return v
        return dataclasses.replace(v, field_disc_valuation=v.field_disc_valuation + 1)

    spec = QuadrinomialSpec(7, 7, 14, 7)
    assert analyze(spec).index.kind == "exact"
    monkeypatch.setattr(report, "_prime_verdict", shifted)
    with pytest.raises(ArithmeticError, match="bookkeeping"):
        analyze(spec)


def test_analyze_incomplete_factorization_caveat():
    # 2000006**2 = 4 * 1000003**2, and with factoring effort this low the
    # discriminant keeps a composite cofactor, so no verdict is possible.
    spec = QuadrinomialSpec(5, 1000003, 2000006, 1000003)
    rep = analyze(spec, EffortConfig(trial_division_bound=50, rho_iteration_budget=0))
    assert any(
        c.startswith("discriminant factorization incomplete") for c in rep.caveats
    )
    assert rep.monogenic == "unknown"
    assert rep.abs_disc_field is None
    assert not rep.disc_poly_factorization.is_complete


def test_analyze_failing_divisor_of_b_leaves_lower_bound():
    rep = analyze(QuadrinomialSpec(5, 1, 6, 9))
    assert rep.disc_poly == 20476881  # 3**8 * 3121
    assert rep.disc_poly_factorization.factors == ((3, 8), (3121, 1))
    assert rep.monogenic == "no"
    assert rep.index.kind == "lower_bound"
    assert rep.index.value == 3
    assert rep.abs_disc_field is None
    v3 = next(v for v in rep.prime_verdicts if v.p == 3)
    assert not v3.to_dict()["vp_index_exact"]
    assert v3.field_disc_valuation is None


def test_analyze_field_disc_leaves_out_zero_valuations():
    # For c = 2, 3 divides disc f twice and the index once: v_3(disc K) = 0.
    rep = analyze(trio_spec(2))
    assert rep.index == report.IndexStatus("exact", 3)
    assert rep.abs_disc_field.factors == ((2, 6), (83, 1), (1069, 1))


def test_report_round_trips_through_json():
    rep = analyze(trio_spec(2))
    blob = json.loads(json.dumps(rep.to_dict()))
    assert blob["monogenic"] == "no"
    assert blob["index"] == {"kind": "exact", "value": 3}
    assert blob["abs_disc_field"]["value"] == 2**6 * 83 * 1069
    assert blob["polynomial"] == "x^7 + 2*x^2 + 4*x + 2"
    assert {v["p"] for v in blob["primes"]} == {2, 3, 83, 1069}


def test_cross_check_agrees_on_random_specs():
    specs = [s for s in random_specs(seed=2025, count=120)]
    checked = 0
    for spec in specs:
        try:
            bad = cross_check_with_dedekind(spec)
        except ReduciblePolynomialError:  # pragma: no cover - not raised here
            continue
        assert bad == [], spec
        checked += 1
    assert checked >= 100


def test_disc_identity_on_random_exact_reports():
    seen = 0
    for spec in random_specs(seed=77, count=900):
        try:
            rep = analyze(spec)
        except ReduciblePolynomialError:
            continue
        if rep.index.kind == "exact" and rep.abs_disc_field is not None:
            assert abs(rep.disc_poly) == rep.index.value**2 * rep.abs_disc_field.value
            seen += 1
    assert seen >= 40


def test_int_factorization_exposed_on_report():
    rep = analyze(trio_spec(7))
    assert isinstance(rep.disc_poly_factorization, IntFactorization)
    assert rep.disc_poly_factorization.factors == ((7, 7), (11, 3), (79, 1))
    assert rep.abs_disc_field.factors == ((7, 7), (11, 1), (79, 1))
    assert rep.index.value == 11
