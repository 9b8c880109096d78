"""Per-prime divisibility cases through prime_divides_index: case selection,
each case rule, and the derived side conditions that guard misuse."""

import random

import pytest

from helpers import binomial_integral_basis, random_specs
from monobase import (
    CaseTag,
    QuadrinomialSpec,
    ReduciblePolynomialError,
    analyze,
    dedekind_divides_index,
    factor_integer,
    generate_spec,
    p_valuation,
    prime_divides_index,
    quadrinomial_discriminant,
    shared_support_fastpath,
)
from monobase import index_criteria
from monobase.integer_core import DEFAULT_EFFORT, EffortConfig

# One prime in each case: (spec, p, tag).
CASE_FIXTURES = (
    (QuadrinomialSpec(7, 2, 4, 2), 83, CaseTag.P_COPRIME_TO_B),
    (QuadrinomialSpec(7, 2, 4, 2), 2, CaseTag.P_DIVIDES_A_AND_C),
    (QuadrinomialSpec(9, 648, -288, 32), 3, CaseTag.P_DIVIDES_A_ONLY),
    (QuadrinomialSpec(5, 1, 6, 9), 3, CaseTag.P_DIVIDES_C_ONLY),
    (QuadrinomialSpec(4, 3, 6, 3), 2, CaseTag.P_IS_2_COPRIME_TO_AC),
)


def _verdict(spec, p):
    e, _ = p_valuation(quadrinomial_discriminant(spec), p)
    return prime_divides_index(spec, p, e)


def test_case_tag_decision_order():
    for spec, p, tag in CASE_FIXTURES:
        assert _verdict(spec, p).tag is tag, (spec, p)


def test_prime_divides_index_rejects_non_divisors():
    spec = QuadrinomialSpec(7, 2, 4, 2)
    with pytest.raises(ValueError):
        prime_divides_index(spec, 5, 0)  # 5 does not divide disc
    with pytest.raises(ValueError):
        prime_divides_index(spec, 1, 1)


def test_case_divides_a_and_c_rule():
    # passes iff p**2 does not divide c
    v = _verdict(QuadrinomialSpec(7, 2, 4, 2), 2)
    assert v.tag is CaseTag.P_DIVIDES_A_AND_C
    assert v.passes and v.source == "theorem"
    v = _verdict(QuadrinomialSpec(5, 4, 8, 4), 2)
    assert v.tag is CaseTag.P_DIVIDES_A_AND_C
    assert not v.passes


def test_case_divides_a_only_fixtures():
    # Outcomes frozen from the Dedekind criterion on these instances.
    passing = QuadrinomialSpec(9, 648, -288, 32)
    v = _verdict(passing, 3)
    assert v.tag is CaseTag.P_DIVIDES_A_ONLY and v.source == "theorem"
    assert v.passes and v.witnesses["r"] == 2 and v.witnesses["b1"] == -96
    assert not dedekind_divides_index(passing.polynomial(), 3)[0]

    failing = QuadrinomialSpec(8, -64, 112, -49)
    v = _verdict(failing, 2)
    assert v.tag is CaseTag.P_DIVIDES_A_ONLY and v.source == "theorem"
    assert not v.passes and v.witnesses["r"] == 3
    assert dedekind_divides_index(failing.polynomial(), 2)[0]


def test_case_divides_c_only_always_fails():
    # b**2 = 4ac forces p**2 | c here, so x**2 | f mod p and x | M mod p:
    # p divides the index unconditionally.
    for n, a, b, c, p, l in (
        (5, 1, 6, 9, 3, 1),
        (5, 2, 12, 18, 3, 1),
        (6, 1, 4, 4, 2, 2),
        (7, 2, 12, 18, 3, 0),
        (4, 9, -12, 4, 2, 1),
    ):
        spec = QuadrinomialSpec(n, a, b, c)
        v = _verdict(spec, p)
        assert v.tag is CaseTag.P_DIVIDES_C_ONLY and v.source == "theorem"
        assert not v.passes
        assert v.witnesses["l"] == l
        assert v.witnesses["vp_c"] >= 2
        assert dedekind_divides_index(spec.polynomial(), p)[0], spec


def test_case_two_coprime_to_ac_rule():
    # passes iff a = 1 or c = 1 mod 4
    v = _verdict(QuadrinomialSpec(4, 5, 10, 5), 2)
    assert v.tag is CaseTag.P_IS_2_COPRIME_TO_AC and v.source == "theorem"
    assert v.passes
    assert not dedekind_divides_index(QuadrinomialSpec(4, 5, 10, 5).polynomial(), 2)[0]
    v = _verdict(QuadrinomialSpec(4, 3, 6, 3), 2)
    assert v.tag is CaseTag.P_IS_2_COPRIME_TO_AC
    assert not v.passes
    assert dedekind_divides_index(QuadrinomialSpec(4, 3, 6, 3).polynomial(), 2)[0]


def test_case_coprime_to_b_rule():
    spec = QuadrinomialSpec(7, 2, 4, 2)
    disc = quadrinomial_discriminant(spec)
    assert disc == -(2**6 * 3**2 * 83 * 1069)
    v = prime_divides_index(spec, 3, 2)
    assert v.tag is CaseTag.P_COPRIME_TO_B and v.source == "theorem"
    assert not v.passes and v.witnesses["vp_disc"] == 2
    v = prime_divides_index(spec, 83, 1)
    assert v.tag is CaseTag.P_COPRIME_TO_B
    assert v.passes and v.witnesses["vp_disc"] == 1


@pytest.mark.parametrize(
    "nabc, p, match",
    (
        # prime p, but an e that is not v_p(disc f)
        ((7, 4, 4, 1), 2, r"expected p \| n"),
        ((5, 5, 10, 5), 2, r"expected 2 \| n"),
        ((7, 2, 4, 2), 7, r"coprime to n\(n-2\)"),
        # composite p
        ((8, 16, 8, 1), 4, "c1 is not integral"),
        ((5, 3, 12, 12), 6, r"expected p\*\*2 \| c"),
    ),
)
def test_misuse_fails_a_derived_check(nabc, p, match):
    # Outside the contract (p prime, e = v_p(disc f)) a derived side
    # condition fails and raises; nothing answers in its place.
    with pytest.raises(ArithmeticError, match=match):
        prime_divides_index(QuadrinomialSpec(*nabc), p, 1)


def test_prime_divides_index_matches_dedekind_randomized():
    for spec in random_specs(404, 150, n_range=(3, 9), coeff_bound=9):
        disc = quadrinomial_discriminant(spec)
        f = spec.polynomial()
        for p, e in factor_integer(disc).factors:
            verdict = prime_divides_index(spec, p, e)
            assert verdict.source == "theorem"
            divides, _ = dedekind_divides_index(f, p)
            assert verdict.passes == (not divides), (spec, p)


def test_every_case_tag_reached_by_sampler():
    seen = set()
    for spec in random_specs(505, 250, n_range=(3, 9), coeff_bound=9):
        disc = quadrinomial_discriminant(spec)
        for p, e in factor_integer(disc).factors:
            seen.add(prime_divides_index(spec, p, e).tag)
    assert seen == set(CaseTag)


def _class_lifts(p):
    """One lift (u, v, w) per class of (a, b, c) = (u*w**2, 2uvw, u*v**2) mod p**2.

    Every admissible (a, b, c) with c != 0 has this form with u, v != 0, and
    its class depends only on (u, v, w) mod p**2, so u, v in 1..p**2 and w in
    0..p**2-1 reach every class.
    """
    m = p * p
    lifts = {}
    for u in range(1, m + 1):
        for v in range(1, m + 1):
            for w in range(m):
                lifts.setdefault((u * w * w % m, 2 * u * v * w % m, u * v * v % m), (u, v, w))
    return list(lifts.values())


def test_case_rules_match_dedekind_on_every_residue_class():
    """Every class of (a, b, c) mod p**2, p in {2, 3, 5, 7}, n from 3 to 40.

    For fixed p and n both sides are functions of the class, so one lift per
    class checks them all.  Dedekind's verdict reads f mod p**2 (g and h from
    f mod p, (f - g*h)/p mod p from f mod p**2).  disc f is an integer
    polynomial in a, b, c, so disc f mod p**2 is a function of the class,
    and with it p | disc f.  The case split reads a, b, c mod p.  Rule by
    rule, besides n:
      P_COPRIME_TO_B reads e = v_p(disc f) only as e >= 2, i.e. p**2 | disc f;
      P_DIVIDES_A_AND_C reads c mod p**2;
      P_DIVIDES_A_ONLY reads r = v_p(n), c mod p, b1 = b/p mod p (b mod p**2)
        and c1 = (c + (-c)**(p**r))/p mod p, which is c mod p**2 since
        c = c' mod p**2 gives (-c)**(p**r) = (-c')**(p**r) mod p**2;
      P_DIVIDES_C_ONLY always fails, and its side condition reads c mod p**2;
      P_IS_2_COPRIME_TO_AC reads a, b and c mod 4 = p**2.
    Witnesses and valuations may differ between lifts of a class; verdicts
    may not.  Each lift also checks its valuations: p divides the index iff
    v_p(index) >= 1, and an exact pair splits e as 2 v_p(index) + v_p(disc K).
    A lift with disc f = 0 is moved by p**2 in u: disc f is u**(n-1) times a
    polynomial of degree at most 1 in u that is nonzero at u = 0, so the
    moved lift has disc f != 0.
    """
    checked = 0
    seen = set()
    for p in (2, 3, 5, 7):
        lifts = _class_lifts(p)
        for n in range(3, 41):
            for u, v, w in lifts:
                spec = generate_spec(u, v, w, n)
                disc = quadrinomial_discriminant(spec)
                if disc == 0:
                    spec = generate_spec(u + p * p, v, w, n)
                    disc = quadrinomial_discriminant(spec)
                if disc % p != 0:
                    continue
                e = p_valuation(disc, p)[0]
                verdict = prime_divides_index(spec, p, e)
                divides, _ = dedekind_divides_index(spec.polynomial(), p)
                assert verdict.passes == (not divides), (spec, p)
                assert (verdict.index_valuation >= 1) == divides, (spec, p)
                if verdict.field_disc_valuation is not None:
                    total = 2 * verdict.index_valuation + verdict.field_disc_valuation
                    assert total == e, (spec, p)
                seen.add(verdict.tag)
                checked += 1
    assert checked == 32384
    assert seen == set(CaseTag)


def test_case_rules_read_no_valuation_of_disc_f(monkeypatch):
    # analyze hands each prime its exponent from the factorization of disc f,
    # so the case layer never takes v_p(disc f) itself.
    spec = QuadrinomialSpec(7, 2, 4, 2)
    disc = quadrinomial_discriminant(spec)
    real = index_criteria.p_valuation
    on_disc = []

    def counting(m, p):
        if abs(m) == abs(disc):
            on_disc.append(p)
        return real(m, p)

    monkeypatch.setattr(index_criteria, "p_valuation", counting)
    rep = analyze(spec)
    assert [v.p for v in rep.prime_verdicts] == [2, 3, 83, 1069]
    assert on_disc == []


def _binomial(n, c, effort=DEFAULT_EFFORT):
    """analyze on x^n - c, the spec (n, 0, 0, -c): (monogenic, failing primes)."""
    rep = analyze(QuadrinomialSpec(n, 0, 0, -c), effort)
    return rep.monogenic, [v.p for v in rep.prime_verdicts if not v.case.passes]


def test_binomial_integral_basis_known_values():
    # The classical criterion, now a test oracle, and analyze on x^n - c.
    for c in (2, 3, -2):
        assert binomial_integral_basis(5, c) == ("monogenic", None), c
        assert _binomial(5, c) == ("yes", []), c
    for n, c, p in (
        (5, 7, 5),  # 25 | 7^5 - 7
        (3, 10, 3),  # 10 = 1 mod 9
        (3, 4, 2),  # 4 is not squarefree
    ):
        assert binomial_integral_basis(n, c) == ("not_monogenic", p)
        assert _binomial(n, c) == ("no", [p])
    # Gaussian integers: the oracle covers n = 2, QuadrinomialSpec does not.
    assert binomial_integral_basis(2, -1) == ("monogenic", None)


def test_binomial_integral_basis_validation_and_unknown():
    with pytest.raises(ValueError, match="degree must be at least 3"):
        QuadrinomialSpec(2, 0, 0, 1)
    with pytest.raises(ValueError, match="constant term must be nonzero"):
        QuadrinomialSpec(4, 0, 0, 0)
    effort = EffortConfig(trial_division_bound=10, rho_iteration_budget=0)
    big = (2**89 - 1) * (2**107 - 1)  # squarefreeness cannot be settled
    assert _binomial(3, big, effort) == ("unknown", [])


def test_shared_support_fastpath_applicability():
    # Same prime support, c squarefree, and the parity guard.
    assert shared_support_fastpath(QuadrinomialSpec(5, 10, 20, 10)) is not None
    assert shared_support_fastpath(QuadrinomialSpec(5, 40, 40, 10)) is not None  # a need not be squarefree
    assert shared_support_fastpath(QuadrinomialSpec(5, 4, 12, 9)) is None  # c not squarefree
    assert shared_support_fastpath(QuadrinomialSpec(5, 18, 12, 2)) is None  # support differs
    assert shared_support_fastpath(QuadrinomialSpec(4, 1, 2, 1)) is None  # c = 1
    assert shared_support_fastpath(QuadrinomialSpec(5, 12, 24, 12)) is None  # c not squarefree
    # odd a, c with even degree: excluded because 2 can pass while 4 | disc
    assert shared_support_fastpath(QuadrinomialSpec(4, 5, 10, 5)) is None
    assert shared_support_fastpath(QuadrinomialSpec(5, 5, 10, 5)) is not None
    # Applicable, but factoring stops short of disc(f) with no square found.
    effort = EffortConfig(trial_division_bound=100, rho_iteration_budget=0)
    verdict = shared_support_fastpath(QuadrinomialSpec(17, 2, 4, 2), effort)
    assert verdict.status == "unknown" and verdict.witness is None


def test_shared_support_fastpath_agrees_with_full_analysis():
    # a = c*m**2 with m built from primes of c keeps the support equal and
    # b = 2cm integral.
    rng = random.Random(606)
    agreed = 0
    squarefree_cs = (2, 3, 5, 6, 7, 10, 13, 15, -2, -3, -5, -6, -10, -15)
    for _ in range(2000):
        if agreed >= 60:
            break
        n = rng.randint(3, 8)
        c = rng.choice(squarefree_cs)
        m = rng.choice([1] + [p for p in (2, 3, 5, 7) if c % p == 0])
        spec = QuadrinomialSpec(n, c * m * m, 2 * c * m, c)
        fast = shared_support_fastpath(spec)
        if fast is None or fast.status == "unknown":
            continue
        try:
            rep = analyze(spec)
        except ReduciblePolynomialError:
            continue
        if rep.monogenic == "unknown":
            continue
        assert fast.status == {"yes": "monogenic", "no": "not_monogenic"}[
            rep.monogenic
        ], spec
        agreed += 1
    assert agreed >= 60
