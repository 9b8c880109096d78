"""Dedekind index criterion: worked examples, witnesses, lift independence."""

import random

import pytest

from collections import Counter

from helpers import DEDEKIND_PAIR_KINDS, LARGE_PRIMES, dedekind_pairs, random_specs
from monobase import (
    FpPoly,
    ZPoly,
    compute_M,
    dedekind,
    dedekind_divides_index,
    factor_mod_p,
    is_prime,
)
from monobase import polynomials
from monobase.polynomials import (
    _DEDEKIND_CACHE_SIZE,
    FpPolyFactorization,
    _dedekind_verdict,
    dedekind_gcd_mod_p,
)


def test_quadratic_worked_examples():
    # Z[sqrt(5)] has index 2 in the maximal order; Z[i] is maximal.
    divides, wit = dedekind_divides_index(ZPoly((-5, 0, 1)), 2)
    assert divides
    assert wit.m_reduced == FpPoly(2, (1, 1))
    assert wit.offending_factor == FpPoly(2, (1, 1))
    divides, wit = dedekind_divides_index(ZPoly((1, 0, 1)), 2)
    assert not divides
    assert wit.offending_index is None
    # x^2 - 5 is irreducible mod 3: no repeated factor to offend.
    divides, wit = dedekind_divides_index(ZPoly((-5, 0, 1)), 3)
    assert not divides
    assert wit.offending_factor is None


def test_cubic_and_quintic_known_fields():
    # x^3 - 2: Z[cbrt(2)] is the maximal order, so no prime divides.
    for p in (2, 3):
        divides, _ = dedekind_divides_index(ZPoly((-2, 0, 0, 1)), p)
        assert not divides
    # x^3 - 10: 10 = 1 mod 9 makes 3 divide the index.
    divides, _ = dedekind_divides_index(ZPoly((-10, 0, 0, 1)), 3)
    assert divides
    # x^7 + 2x^2 + 4x + 2: 3 divides the index (and 2 does not: Eisenstein).
    f = ZPoly((2, 4, 2, 0, 0, 0, 0, 1))
    assert dedekind_divides_index(f, 3)[0]
    assert not dedekind_divides_index(f, 2)[0]


def test_eisenstein_polynomials_never_divide_at_their_prime():
    # Orders cut out by Eisenstein polynomials are maximal at that prime.
    rng = random.Random(911)
    for p in (2, 3, 5, 7, 11):
        for _ in range(20):
            n = rng.randint(2, 8)
            coeffs = [p * rng.randint(-6, 6) for _ in range(n)] + [1]
            coeffs[0] = p * rng.choice((1, -1, 3, -3, 5))
            if coeffs[0] % (p * p) == 0:
                coeffs[0] = p
            f = ZPoly(tuple(coeffs))
            divides, _ = dedekind_divides_index(f, p)
            assert not divides, (p, coeffs)


def test_case3_instances_always_divide():
    # p | c, p coprime to a: the repeated factor x always divides M mod p.
    for coeffs, p in (
        ((9, 6, 1, 0, 0, 1), 3),       # x^5 + x^2 + 6x + 9
        ((18, 12, 2, 0, 0, 1), 3),     # x^5 + 2x^2 + 12x + 18
        ((4, 4, 1, 0, 0, 0, 1), 2),    # x^6 + x^2 + 4x + 4
        ((18, 12, 2, 0, 0, 0, 0, 1), 3),  # x^7 + 2x^2 + 12x + 18
    ):
        divides, wit = dedekind_divides_index(ZPoly(coeffs), p)
        assert divides
        assert wit.m_reduced.coeffs[0:1] in ((), (0,))  # constant term vanishes


def test_witness_reconstructs_m():
    f = ZPoly((2, 4, 2, 0, 0, 0, 0, 1))
    divides, wit = dedekind_divides_index(f, 3)
    assert divides
    m = compute_M(f, 3, wit.factorization)
    assert m == wit.m_reduced
    doc = wit.to_dict()
    assert doc["offending_index"] is not None
    assert doc["offending_factor"] == list(wit.offending_factor.coeffs)


def test_compute_m_rejects_wrong_factorization():
    f = ZPoly((-5, 0, 1))
    wrong = FpPolyFactorization(2, 1, ((FpPoly(2, (0, 1)), 2),))  # claims x^2
    with pytest.raises(ArithmeticError):
        compute_M(f, 2, wrong)
    with pytest.raises(ValueError):
        compute_M(f, 3, factor_mod_p(f, 2))


def test_input_validation():
    for criterion in (dedekind_divides_index, dedekind_gcd_mod_p):
        with pytest.raises(ValueError):
            criterion(ZPoly((1, 2)), 2)  # not monic
        with pytest.raises(ValueError):
            criterion(ZPoly((1,)), 2)  # degree 0
        with pytest.raises(ValueError):
            criterion(ZPoly((1, 0, 1)), 4)  # composite p


def factored_verdict(f, p):
    """(some repeated factor of f mod p divides M, f mod p has a repeated
    factor), from the full factorization."""
    fac = factor_mod_p(f, p)
    m = compute_M(f, p, fac)
    return (
        any(e > 1 and g.divides(m) for g, e in fac.factors),
        any(e > 1 for _, e in fac.factors),
    )


def test_gcd_verdict_matches_factored_verdict():
    # 400 pairs of each kind: squarefree reductions, F = 0 mod p, g(x^p) at
    # p = 2 and 3, degree 1, primes above 2^32 and random inputs.
    seen = Counter()
    for kind, f, p in dedekind_pairs(2026, 400 * len(DEDEKIND_PAIR_KINDS)):
        divides = dedekind_gcd_mod_p(f, p)
        offending, repeated = factored_verdict(f, p)
        assert divides == offending, (kind, f.coeffs, p)
        if kind in ("squarefree", "linear"):
            assert not repeated, (kind, f.coeffs, p)
        if kind == "f_zero":
            assert divides and repeated, (f.coeffs, p)
        seen[kind, divides] += 1
    assert sum(seen.values()) == 2800
    for kind in ("random", "repeated", "frobenius", "large_p"):
        assert seen[kind, True] >= 25 and seen[kind, False] >= 25, seen


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_verdict_at_the_route_boundary(p):
    # f = (x - r)**p + p*t has f' = 0 mod p, so it must take the squarefree
    # route: there gcd(f, f') would be f itself, not (x - r)**(p - 1).  At
    # degree p - 1, p > deg f and the gcd(f, f') route applies.
    rng = random.Random(p)
    for degree in (p, p - 1):
        seen = Counter()
        for r in range(p):
            power = ZPoly((-r, 1)) ** degree
            for _ in range(6):
                t = ZPoly(tuple(rng.randint(-9, 9) for _ in range(degree)))
                f = power + ZPoly((p,)) * t
                key = tuple(c % (p * p) for c in f.coeffs)
                verdict = _dedekind_verdict.__wrapped__(key, p)
                assert verdict == factored_verdict(f, p)[0], (f.coeffs, p)
                seen[verdict] += 1
        # A linear f (p = 2, degree 1) is squarefree, so never divides.
        assert seen[False] and (degree == 1 or seen[True]), (degree, seen)


def test_verdict_matches_factored_verdict_on_both_routes():
    # Products of monic powers (multiplicity 1-4, the first one repeated),
    # degree 2-12, lifted by random p-multiples.  Half the lifts are multiples
    # of the repeated linear factor, so both verdicts occur at large p too.
    rng = random.Random(18)
    primes = [q for q in range(2, 102) if is_prime(q)] + [LARGE_PRIMES[0]]
    seen = Counter()
    while sum(seen.values()) < 2000:
        p = rng.choice(primes if rng.random() < 0.5 else (2, 3, 5, 7, 11))
        parts = [(ZPoly((rng.randrange(p), 1)), rng.randint(2, 4))]
        for _ in range(rng.randint(0, 3)):
            lower = tuple(rng.randrange(p) for _ in range(rng.randint(1, 3)))
            parts.append((ZPoly(lower + (1,)), rng.randint(1, 4)))
        prod = ZPoly((1,))
        for q, e in parts:
            prod = prod * q**e
        n = prod.degree
        if n > 12:
            continue
        if rng.random() < 0.5:
            t = parts[0][0] * ZPoly(tuple(rng.randint(-9, 9) for _ in range(n - 1)))
        else:
            t = ZPoly(tuple(rng.randint(-9, 9) for _ in range(n)))
        f = prod + ZPoly((p * rng.randint(-3, 3),)) * t
        verdict = _dedekind_verdict.__wrapped__(tuple(c % (p * p) for c in f.coeffs), p)
        assert verdict == factored_verdict(f, p)[0], (f.coeffs, p)
        seen["p > deg f" if p > n else "p <= deg f", verdict, p > 2**32] += 1
    for route in ("p > deg f", "p <= deg f"):
        assert seen[route, True, False] >= 100 and seen[route, False, False] >= 100, seen
    assert seen["p > deg f", True, True] >= 10 and seen["p > deg f", False, True] >= 10, seen


def test_verdict_is_memoized_on_f_mod_p_squared():
    # f and f + p^2*t share F mod p, so the second call is a hit; the
    # factored form confirms the verdict for the shifted polynomial too.
    _dedekind_verdict.cache_clear()
    f = ZPoly((2, 4, 2, 0, 0, 0, 0, 1))
    shifted = f + ZPoly((9,)) * ZPoly((5, -1, 7, 0, 3))
    assert dedekind_gcd_mod_p(f, 3)
    assert dedekind_gcd_mod_p(shifted, 3)
    info = _dedekind_verdict.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    assert factored_verdict(shifted, 3)[0]


def test_cached_verdict_matches_uncached_verdict():
    # Each f is followed by f + p^2*t, a cache hit on f's entry.  Both must
    # match the uncached computation on their full coefficients.
    _dedekind_verdict.cache_clear()
    rng = random.Random(16)
    seen = Counter()
    for kind, f, p in dedekind_pairs(77, 120 * len(DEDEKIND_PAIR_KINDS)):
        t = ZPoly(tuple(rng.randint(-9, 9) for _ in range(f.degree)))
        shifted = f + ZPoly((p * p,)) * t
        for poly in (f, shifted):
            uncached = _dedekind_verdict.__wrapped__(poly.coeffs, p)
            assert dedekind_gcd_mod_p(poly, p) == uncached, (kind, poly.coeffs, p)
        seen[kind, "p < 4" if p < 4 else "p > 2^32" if p > 2**32 else "other"] += 1
    assert set(k for k, _ in seen) == set(DEDEKIND_PAIR_KINDS)
    assert seen["frobenius", "p < 4"] == 120 and seen["large_p", "p > 2^32"] == 120
    assert _dedekind_verdict.cache_info().hits >= 120 * len(DEDEKIND_PAIR_KINDS)


def test_input_checks_run_before_the_cache_lookup():
    _dedekind_verdict.cache_clear()
    # The prime test runs inside the memoized verdict, so a composite p
    # raises there and never gets an entry that a later call could hit.
    with pytest.raises(ValueError, match="^9 is not prime$"):
        _dedekind_verdict((1, 1), 9)
    assert _dedekind_verdict.cache_info().currsize == 0
    _dedekind_verdict((1,), 2)
    assert not dedekind_gcd_mod_p(ZPoly((1, 1)), 3)
    for f, p in (
        (ZPoly((1, 1)), 9),    # composite p
        (ZPoly((1, 10)), 3),   # not monic, yet its key is (1, 1) mod 9
        (ZPoly((1,)), 2),      # degree 0
    ):
        with pytest.raises(ValueError):
            dedekind_gcd_mod_p(f, p)
    assert _dedekind_verdict.cache_info().hits == 0


def test_a_cache_hit_skips_the_prime_test(monkeypatch):
    original = polynomials.is_prime
    calls = []

    def counting(n, *args, **kwargs):
        calls.append(n)
        return original(n, *args, **kwargs)

    monkeypatch.setattr(polynomials, "is_prime", counting)
    _dedekind_verdict.cache_clear()
    f = ZPoly((3, 0, 1, 1))
    assert dedekind_gcd_mod_p(f, 101) == dedekind_gcd_mod_p(f, 101)
    info = _dedekind_verdict.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    assert calls == [101]


def test_verdict_cache_is_bounded():
    _dedekind_verdict.cache_clear()
    for c in range(_DEDEKIND_CACHE_SIZE + 10):
        dedekind_gcd_mod_p(ZPoly((c, 1)), 101)  # distinct keys below 101^2
    info = _dedekind_verdict.cache_info()
    assert info.maxsize == _DEDEKIND_CACHE_SIZE
    assert info.currsize == _DEDEKIND_CACHE_SIZE
    assert info.misses == _DEDEKIND_CACHE_SIZE + 10


@pytest.mark.parametrize("coeffs, p", [((-5, 0, 1), 2), ((1, 0, 1), 2)])
def test_witness_rejects_a_wrong_gcd_verdict(monkeypatch, coeffs, p):
    f = ZPoly(coeffs)
    truth = dedekind_gcd_mod_p(f, p)
    monkeypatch.setattr(dedekind, "dedekind_gcd_mod_p", lambda f, p: not truth)
    divides, witness = dedekind_divides_index(f, p)
    assert divides != truth
    with pytest.raises(ArithmeticError):
        witness.to_dict()


def _dedekind_with_random_lifts(f: ZPoly, p: int, rng: random.Random) -> bool:
    """Independent criterion evaluation using randomized monic lifts."""
    fac = factor_mod_p(f, p, seed=rng.randrange(2**30))
    lifts = []
    for g, e in fac.factors:
        shift = tuple(
            c + p * rng.randint(-3, 3) for c in g.coeffs[:-1]
        ) + (1,)
        lifts.append((ZPoly(shift), e))
    prod = ZPoly((1,))
    for g, e in lifts:
        prod = prod * g**e
    diff = f - prod
    m_coeffs = []
    for coef in diff.coeffs:
        q, r = divmod(coef, p)
        assert r == 0  # the product reduces to f mod p by construction
        m_coeffs.append(q)
    mbar = FpPoly(p, tuple(m_coeffs))
    return any(e > 1 and FpPoly(p, g.coeffs).divides(mbar) for g, e in lifts)


def test_lift_independence():
    # The criterion's verdict cannot depend on which monic lifts are chosen.
    rng = random.Random(88)
    specs = random_specs(88, 40, n_range=(3, 8), coeff_bound=8)
    checked = 0
    for spec in specs:
        f = spec.polynomial()
        for p in (2, 3, 5, 7):
            baseline, _ = dedekind_divides_index(f, p)
            for _ in range(3):
                assert _dedekind_with_random_lifts(f, p, rng) == baseline, (spec, p)
            checked += 1
    assert checked == 160
