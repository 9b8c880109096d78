"""End-to-end analysis: irreducibility certificates, verdict assembly, caveats."""

import dataclasses
import json
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from helpers import (
    EXAMPLE_TRIO,
    first_rational_root,
    polygon_reference,
    random_specs,
    subset_sums_reference,
    trio_spec,
)
from monobase import (
    DEFAULT_EFFORT,
    FamilyTemplate,
    QuadrinomialSpec,
    ReduciblePolynomialError,
    ZPoly,
    analyze,
    cross_check_with_dedekind,
    factor_integer,
    generate_spec,
    irreducibility_check,
    quadrinomial_discriminant,
    search_family,
)
from monobase import report
from monobase.integer_core import EffortConfig, IntFactorization, p_valuation


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


def test_eisenstein_reads_the_gcd_primes_off_the_constant(monkeypatch):
    # Eisenstein is the Newton polygon at a prime with v_p(c0) = 1, so its
    # primes come off the one factorization of c0: the constant is factored
    # once, and the gcd of the lower coefficients never.
    calls = []

    def counting(m, effort):
        calls.append(m)
        return factor_integer(m, effort)

    monkeypatch.setattr(report, "factor_integer", counting)
    # The lower coefficients 18, 12, 2 have gcd 2, neither 1 nor |c0|.
    res = irreducibility_check(QuadrinomialSpec(5, 2, 12, 18).polynomial())
    assert (res.status, res.method, res.detail) == ("irreducible", "eisenstein", {"prime": 2})
    assert calls == [18]

    # An incomplete factorization of c0 = 18 * P * Q still lists 2 once.
    big = (2**89 - 1) * (2**107 - 1)
    calls.clear()
    low = EffortConfig(trial_division_bound=50, rho_iteration_budget=0)
    res = irreducibility_check(QuadrinomialSpec(5, 2 * big, 12 * big, 18 * big).polynomial(), low)
    assert (res.status, res.method, res.detail) == ("irreducible", "eisenstein", {"prime": 2})
    assert calls == [18 * big]

    # A complete factorization from FULL_FACTOR_BOUND up, c0 = 18 * P with P
    # prime.
    prime = 2**89 - 1
    calls.clear()
    res = irreducibility_check(QuadrinomialSpec(5, 2 * prime, 12 * prime, 18 * prime).polynomial())
    assert (res.status, res.method, res.detail) == ("irreducible", "eisenstein", {"prime": 2})
    assert calls == [18 * prime]

    # A prime that hides in the unfactored cofactor of c0 is not found.
    # x**n + 2q*x**2 + 2q*x + 4qr is Eisenstein at q, but at this effort
    # c0 = 4qr factors as 2**2 times the cofactor q*r.  Degree patterns
    # certify degrees 8 and 5, not 6; the default effort finds q.
    q, r = 1099511627791, 2199023255579

    def hidden(n):
        return ZPoly((4 * q * r, 2 * q, 2 * q) + (0,) * (n - 3) + (1,))

    calls.clear()
    assert irreducibility_check(hidden(6), low).status == "unverified"
    for n in (8, 5):
        res = irreducibility_check(hidden(n), low)
        assert (res.status, res.method) == ("irreducible", "factor_degree_patterns")
    assert calls == [4 * q * r] * 3
    for n in (6, 8, 5):
        res = irreducibility_check(hidden(n))
        assert (res.status, res.method, res.detail) == ("irreducible", "eisenstein", {"prime": q})


_EXPONENTS = st.sampled_from((0, 1, 1, 1, 2))


@given(
    st.sampled_from((2, 3, 5, 7)),
    st.integers(min_value=2, max_value=12).flatmap(
        lambda n: st.lists(st.tuples(_EXPONENTS, st.integers(-20, 20)), min_size=n, max_size=n)
    ),
)
def test_eisenstein_is_the_newton_polygon_with_constant_valuation_one(p, terms):
    # Each non-leading coefficient is m * p**e with e in {0, 1, 2}, so
    # multiples of p, of p**2 and non-multiples all occur.
    lower = tuple(m * p**e for e, m in terms)
    assume(lower[0] != 0)
    f = ZPoly(lower + (1,))

    def textbook(q):
        return all(c % q == 0 for c in lower) and lower[0] % (q * q) != 0

    polygon = p_valuation(lower[0], p)[0] == 1 and report._newton_polygon_certifies(f, p, 1)
    assert textbook(p) == polygon
    # |c0| <= 20 * 7**2 factors completely, so every Eisenstein prime is seen.
    eisenstein = [q for q, _ in factor_integer(lower[0]).factors if textbook(q)]
    res = irreducibility_check(f)
    if eisenstein:
        assert (res.method, res.detail) == ("eisenstein", {"prime": eisenstein[0]})
    else:
        assert res.method != "eisenstein"


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


@given(st.lists(st.integers(min_value=1, max_value=12), max_size=10))
def test_subset_sums_bitmask_is_the_set_of_sub_multiset_sums(degrees):
    expected = subset_sums_reference(degrees)
    assert report._subset_sums(degrees) == sum(1 << s for s in expected)


@given(
    st.sampled_from((2, 3, 5, 7)),
    st.integers(min_value=1, max_value=9),
    st.integers(min_value=2, max_value=12).flatmap(
        lambda n: st.lists(
            st.tuples(st.integers(0, 10), st.integers(-20, 20)), min_size=n - 1, max_size=n - 1
        )
    ),
)
def test_newton_polygon_remainders_match_valuations(p, k, terms):
    # Inner coefficients m * p**e with e up to 10 fall on both sides of the
    # segment for every k; the constant is p**k, so k = v_p(c0).
    f = ZPoly((p**k,) + tuple(m * p**e for e, m in terms) + (1,))
    assert report._newton_polygon_certifies(f, p, k) == polygon_reference(f, p, k)


def _x_minus(r):
    return ZPoly((-r, 1))


@pytest.mark.parametrize(
    "f, root",
    [
        # c0 = 12 lists its divisors 1, 3, 2, 6, 4, 12: 3 comes before 2.
        (_x_minus(2) * _x_minus(3) * ZPoly((2, 0, 1)), 3),
        (_x_minus(-2) * _x_minus(-3) * ZPoly((2, 0, 1)), -3),
        (_x_minus(2) * _x_minus(-3) * ZPoly((-2, 0, 1)), -3),
        # d is tried before -d.
        (_x_minus(5) * _x_minus(-5) * ZPoly((1, 1, 1)), 5),
        (_x_minus(1) * _x_minus(-1) * ZPoly((7, 0, 1)), 1),
        (_x_minus(-1) * ZPoly((7, 0, 1)), -1),
        (_x_minus(12) * ZPoly((-1, 1, 1)), 12),
    ],
)
def test_planted_roots_are_named_in_divisor_order(f, root):
    assert first_rational_root(f, report._divisors_from(factor_integer(f.constant))) == root
    res = irreducibility_check(f)
    assert (res.status, res.method, res.detail) == ("reducible", "rational_root", {"root": root})


def test_screened_root_search_names_the_first_root_an_unscreened_scan_finds():
    rng = random.Random(28)
    for _ in range(1500):
        r = rng.randint(-15, 15)
        g = ZPoly(tuple(rng.randint(-12, 12) for _ in range(rng.randint(1, 8))) + (1,))
        f = _x_minus(r) * g
        if f.constant == 0:
            continue
        divisors = report._divisors_from(factor_integer(f.constant))
        res = irreducibility_check(f)
        # A reducible f can take no irreducibility certificate.
        assert (res.status, res.method) == ("reducible", "rational_root")
        assert res.detail == {"root": first_rational_root(f, divisors)}


def test_root_search_evaluates_only_candidates_that_pass_the_screen(monkeypatch):
    # Root-free specs: each reaching the search is evaluated at 1 and -1, then
    # at each later candidate r with r - 1 | f(1) and r + 1 | f(-1).
    polys = [s.polynomial() for s in random_specs(5, 600)]
    polys = [f for f in polys if irreducibility_check(f).status != "reducible"]
    searched = []
    divisors_from = report._divisors_from

    def listing(fac):
        searched.append(divisors_from(fac))
        return searched[-1]

    evaluations = []
    call = ZPoly.__call__

    def counting(f, x):
        evaluations.append(x)
        return call(f, x)

    monkeypatch.setattr(report, "_divisors_from", listing)
    monkeypatch.setattr(ZPoly, "__call__", counting)
    expected = 0
    unscreened = 0
    for f in polys:
        before = len(searched)
        irreducibility_check(f)
        if len(searched) == before:
            continue  # a polygon certificate came first
        f1, fm1 = call(f, 1), call(f, -1)
        expected += 2 + sum(
            1 for d in searched[-1][1:] for r in (d, -d) if f1 % (r - 1) == 0 == fm1 % (r + 1)
        )
        unscreened += 2 * len(searched[-1])
    assert len(searched) > 100
    assert len(evaluations) == expected
    assert len(evaluations) < unscreened / 3


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
    assert (by_p[3].case.index_valuation, by_p[3].to_dict()["vp_index_exact"]) == (1, True)
    assert by_p[3].case.field_disc_valuation == 0
    assert by_p[2].case.field_disc_valuation == 6
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
    real = report.prime_divides_index

    def shifted(spec, p, e):
        v = real(spec, p, e)
        if p != 7:
            return v
        return dataclasses.replace(v, field_disc_valuation=v.field_disc_valuation + 1)

    spec = QuadrinomialSpec(7, 7, 14, 7)
    assert analyze(spec).index.kind == "exact"
    monkeypatch.setattr(report, "prime_divides_index", shifted)
    with pytest.raises(ArithmeticError, match="bookkeeping"):
        analyze(spec)


_DISC_EFFORTS = (
    DEFAULT_EFFORT,
    EffortConfig(trial_division_bound=50, rho_iteration_budget=0),
    EffortConfig(trial_division_bound=1000, rho_iteration_budget=200),
    EffortConfig(trial_division_bound=2, rho_iteration_budget=10**6),
)


def _disc_specs():
    rng = random.Random(22)
    pc = [
        FamilyTemplate(rng.randint(3, 12)).spec(rng.choice((-1, 1)) * rng.randint(2, 3000))
        for _ in range(60)
    ]
    zero_b = [
        QuadrinomialSpec(n, 0, 0, c)
        for n, c in ((3, 2), (4, -3), (5, -72), (7, 1000003), (9, 10), (10, -1))
    ]
    # c = 1000003 is a prime above every bound here; the degree-22 and -20
    # specs leave a rest of at least FULL_FACTOR_BOUND once the primes of c
    # are stripped.  These take the whole route.
    whole = [
        FamilyTemplate(5).spec(1000003),
        QuadrinomialSpec(22, 42, 84, 42),
        QuadrinomialSpec(20, 3456, 39744, 114264),
    ]
    specs = random_specs(22, 60) + pc + zero_b + whole
    return [spec for spec in specs if quadrinomial_discriminant(spec) != 0]


@pytest.mark.parametrize("effort", _DISC_EFFORTS)
def test_analyze_factors_the_discriminant_as_factor_integer_does(effort):
    checked = 0
    for spec in _disc_specs():
        try:
            rep = analyze(spec, effort)
        except ReduciblePolynomialError:
            continue
        assert rep.disc_poly_factorization == factor_integer(rep.disc_poly, effort), spec
        checked += 1
    assert checked >= 100


@pytest.mark.parametrize(
    "spec, effort, split",
    [
        (FamilyTemplate(5).spec(99991), DEFAULT_EFFORT, True),
        (FamilyTemplate(7).spec(626), DEFAULT_EFFORT, True),
        (QuadrinomialSpec(5, 0, 0, 626), DEFAULT_EFFORT, True),
        # c = 4 * 313: every factor 2 of disc f is stripped, not v_2(c) of them
        (QuadrinomialSpec(7, 313, 1252, 1252), DEFAULT_EFFORT, True),
        (QuadrinomialSpec(7, -313, 1252, -1252), _DISC_EFFORTS[2], True),
        # small primes of c are stripped too
        (FamilyTemplate(7).spec(30), DEFAULT_EFFORT, True),
        (QuadrinomialSpec(6, 0, 0, -72), DEFAULT_EFFORT, True),
        (FamilyTemplate(7).spec(5), DEFAULT_EFFORT, True),
        # a prime of c above the bound
        (FamilyTemplate(5).spec(1000003), DEFAULT_EFFORT, False),
        (FamilyTemplate(7).spec(626), _DISC_EFFORTS[1], False),
        # the rest is at least FULL_FACTOR_BOUND
        (FamilyTemplate(20).spec(313), DEFAULT_EFFORT, False),
        # c's factorization incomplete
        (QuadrinomialSpec(5, 0, 0, (2**89 - 1) * (2**107 - 1)), _DISC_EFFORTS[1], False),
    ],
)
def test_analyze_factors_the_cofactor_or_the_whole_discriminant(monkeypatch, spec, effort, split):
    calls = []

    def counting(m, effort):
        calls.append(m)
        return factor_integer(m, effort)

    monkeypatch.setattr(report, "factor_integer", counting)
    rep = analyze(spec, effort)
    disc = rep.disc_poly
    rest = abs(disc)
    for p, _ in factor_integer(spec.c, effort).factors:
        rest = p_valuation(rest, p)[1]
    assert calls[0] == spec.c
    assert calls[-1] == (rest if split else disc)
    assert disc not in calls[:-1]
    assert rep.disc_poly_factorization == factor_integer(disc, effort)


def test_every_prime_of_c_divides_the_discriminant_n_minus_1_times():
    # The strip in _factor_discriminant takes this for granted: p | c gives
    # p | b/2, since (b/2)**2 = ac, so p**(n-1) divides both closed-form terms.
    rng = random.Random(26)

    def signed_c():
        return rng.choice((-1, 1)) * rng.randint(2, 10**4)

    pc = [FamilyTemplate(rng.randint(3, 14)).spec(signed_c()) for _ in range(300)]
    zero_b = [QuadrinomialSpec(rng.randint(3, 14), 0, 0, signed_c()) for _ in range(100)]
    checked = 0
    for spec in random_specs(26, 300, n_range=(3, 14), coeff_bound=40) + pc + zero_b:
        disc = quadrinomial_discriminant(spec)
        if disc == 0:
            continue
        for p, _ in factor_integer(spec.c).factors:
            assert p_valuation(disc, p)[0] >= spec.n - 1, (spec, p)
            checked += 1
    assert checked >= 1000


_nonzero = st.integers(-30, 30).filter(bool)
_generated_specs = st.builds(
    generate_spec,
    _nonzero,
    _nonzero,
    st.integers(-30, 30),
    st.integers(3, 14),
)
# squarefree |c| <= 10**4 factors completely below the trial division bound,
# so every one takes the strip route
_pc_specs = st.builds(
    lambda n, c: FamilyTemplate(n).spec(c),
    st.integers(3, 12),
    st.integers(-(10**4), 10**4).filter(
        lambda c: abs(c) > 1 and all(c % (q * q) for q in range(2, 101))
    ),
)


def _reflection_summary(spec):
    try:
        rep = analyze(spec)
    except ReduciblePolynomialError:
        return "reducible"
    return (
        rep.monogenic,
        rep.index,
        rep.abs_disc_field,
        abs(rep.disc_poly),
        rep.irreducibility.status,
    )


@settings(max_examples=150, deadline=None)
@given(st.one_of(_generated_specs, _pc_specs))
def test_reflection_gives_the_same_field_and_order(spec):
    # x -> -x (times -1 for odd n) maps theta to -theta: the same field and
    # the same order Z[theta], so every field and index figure must agree.
    n, a, b, c = spec.n, spec.a, spec.b, spec.c
    mirror = QuadrinomialSpec(n, a, -b, c) if n % 2 == 0 else QuadrinomialSpec(n, -a, b, -c)
    assert _reflection_summary(spec) == _reflection_summary(mirror)


def test_a_factorization_of_another_number_is_refused():
    spec = FamilyTemplate(7).spec(5)
    f = spec.polynomial()
    for wrong in (factor_integer(-5), factor_integer(10), IntFactorization(1, (), 7)):
        with pytest.raises(ValueError, match="factorization of the constant term"):
            analyze(spec, DEFAULT_EFFORT, wrong)
        with pytest.raises(ValueError, match="factorization of the constant term"):
            irreducibility_check(f, DEFAULT_EFFORT, wrong)
    with pytest.raises(ValueError, match="factorization of the constant term"):
        irreducibility_check(ZPoly((0, 0, 1)), DEFAULT_EFFORT, factor_integer(5))
    right = factor_integer(5)
    assert analyze(spec, DEFAULT_EFFORT, right) == analyze(spec)
    assert irreducibility_check(f, DEFAULT_EFFORT, right) == irreducibility_check(f)


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
    assert v3.case.field_disc_valuation is None


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


def test_results_are_built_per_call_and_not_shared():
    # Result records are mutable, so no cache may hand the same one, or a
    # dict inside it, to two callers.  The expected documents are literals,
    # so a change made through a shared record shows.
    expected = {
        "spec": {"n": 3, "a": 2, "b": 4, "c": 2},
        "polynomial": "x^3 + 2*x^2 + 4*x + 2",
        "irreducibility": {"status": "irreducible", "method": "eisenstein", "detail": {"prime": 2}},
        "disc_poly": -76,
        "disc_poly_factorization": {"sign": -1, "factors": [[2, 2], [19, 1]], "cofactor": 1},
        "primes": [
            {"p": 2, "vp_disc_poly": 2, "case": "p_divides_a_and_c", "passes": True,
             "witnesses": {}, "source": "theorem", "vp_index": 0, "vp_index_exact": True,
             "vp_disc_field": 2},
            {"p": 19, "vp_disc_poly": 1, "case": "p_coprime_to_b", "passes": True,
             "witnesses": {"vp_disc": 1}, "source": "theorem", "vp_index": 0,
             "vp_index_exact": True, "vp_disc_field": 1},
        ],
        "monogenic": "yes",
        "index": {"kind": "exact", "value": 1},
        "abs_disc_field": {"sign": 1, "factors": [[2, 2], [19, 1]], "cofactor": 1, "value": 76},
        "caveats": [],
    }
    entry_doc = {
        "c": 2, "skipped": False, "monogenic": "yes", "index": {"kind": "exact", "value": 1}
    }
    template = FamilyTemplate(3)
    first, second = analyze(template.spec(2)), analyze(template.spec(2))
    (entry,) = search_family(template, [2])
    assert first == second == entry.report
    first.irreducibility.detail["prime"] = 5
    first.prime_verdicts[1].case.witnesses["vp_disc"] = 3
    first.prime_verdicts[1].case.field_disc_valuation = None
    entry.report.index.value = 7
    entry.c = 5
    assert first != second
    assert second.to_dict() == expected
    (fresh,) = search_family(template, [2])
    assert fresh.to_dict() == entry_doc
    assert fresh.report.to_dict() == expected
    assert analyze(template.spec(2)).to_dict() == expected


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
