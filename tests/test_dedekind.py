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


def _gcd_degree(f, p):
    """deg gcd(f, f') mod p, read off the factorization: an irreducible factor
    of multiplicity m contributes its degree times m - 1, or times m when p | m.
    A miss whose gcd is linear is settled by evaluating f at its root."""
    return sum(g.degree * (e if e % p == 0 else e - 1) for g, e in factor_mod_p(f, p).factors)


def _route(f, p):
    return "linear gcd(f, f')" if _gcd_degree(f, p) == 1 else "squarefree pass"


def _lift(base, r, p, rng, vanish):
    """base + p*t with t of lower degree.  With vanish, t's constant term is
    chosen so that p^2 | f(r): when r is a repeated root of base mod p, that
    puts x - r into gcd(F, g, h) and the verdict is "divides"."""
    t = [rng.randint(-9, 9) for _ in range(base.degree)]
    if vanish:
        t[0] -= (base(r) // p + ZPoly(tuple(t))(r)) % p
    return base + ZPoly((p,)) * ZPoly(tuple(t))


def _verdict(f, p):
    return _dedekind_verdict.__wrapped__(tuple(c % (p * p) for c in f.coeffs), p)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_verdict_at_the_route_boundary(p):
    # (x - r)^2 + p*t has gcd(f, f') = x - r for odd p, so one evaluation of
    # f(r) mod p^2 settles it.  (x - r)^3 + p*t, (x - r)^2 at p = 2 and
    # (x - r)^p, where f' = 0 mod p, have a gcd of degree at least 2 and must
    # take the squarefree pass.
    rng = random.Random(p)
    for degree in sorted({2, 3, p}):
        seen = Counter()
        for r in range(p):
            power = ZPoly((-r, 1)) ** degree
            for i in range(8):
                f = _lift(power, r, p, rng, vanish=i % 2)
                verdict = _verdict(f, p)
                assert verdict == factored_verdict(f, p)[0], (f.coeffs, p)
                seen[_route(f, p), verdict] += 1
        route = "linear gcd(f, f')" if degree == 2 and p > 2 else "squarefree pass"
        assert set(seen) == {(route, False), (route, True)}, (degree, seen)


def test_verdict_matches_factored_verdict_on_both_routes():
    # Products of monic powers (multiplicity 1-4, the first one linear and
    # repeated, twice in four times squared), degree 2-12, lifted by random
    # p-multiples.  Half the lifts are multiples of the repeated linear
    # factor, so both verdicts occur on both routes at large p too.
    rng = random.Random(18)
    primes = [q for q in range(2, 102) if is_prime(q)] + [LARGE_PRIMES[0]] * 4
    seen = Counter()
    while sum(seen.values()) < 2000:
        p = rng.choice(primes if rng.random() < 0.5 else (2, 3, 5, 7, 11))
        parts = [(ZPoly((rng.randrange(p), 1)), rng.choice((2, 2, 3, 4)))]
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
        verdict = _verdict(f, p)
        assert verdict == factored_verdict(f, p)[0], (f.coeffs, p)
        seen[_route(f, p), verdict, p > 2**32] += 1
    for route in ("linear gcd(f, f')", "squarefree pass"):
        assert seen[route, True, False] >= 100 and seen[route, False, False] >= 100, seen
        assert seen[route, True, True] >= 10 and seen[route, False, True] >= 10, seen


def test_a_lone_double_root_is_settled_by_evaluating_f_mod_p_squared():
    # f = (x - r)^2 * s + p*t, s squarefree and prime to x - r mod p, p odd:
    # gcd(f, f') = x - r, and p divides the index iff p^2 | f(r).
    rng = random.Random(19)
    seen = Counter()
    for p in (3, 5, 7, 11, 101, LARGE_PRIMES[0]):
        for i, r in enumerate([0, p - 1] * 8 + [rng.randrange(p) for _ in range(16)]):
            square = ZPoly((-r, 1)) ** 2
            while True:
                s = ZPoly(tuple(rng.randrange(p) for _ in range(rng.randint(0, 10))) + (1,))
                f = _lift(square * s, r, p, rng, vanish=i % 2)
                if _gcd_degree(f, p) == 1:
                    break
            verdict = _verdict(f, p)
            assert verdict == factored_verdict(f, p)[0] == (f(r) % (p * p) == 0), (f.coeffs, p)
            seen[verdict] += 1
    assert seen[True] >= 50 and seen[False] >= 50, seen


def test_keys_without_a_lone_double_root_skip_the_evaluation():
    # Each of these has gcd(f, f') of degree other than 1 mod p, so evaluating
    # f at minus the gcd's constant term would be meaningless.  With vanish,
    # p^2 | f(r) at a repeated root r, so every shape meets both verdicts.
    kinds = ("two double roots", "triple root", "quadratic squared", "f' = 0", "p = 2")
    rng = random.Random(20)
    seen = Counter()
    for i in range(600):
        kind, vanish = kinds[i % 5], i // 5 % 2
        if kind == "p = 2":
            p = 2
        elif kind == "f' = 0":
            p = rng.choice((2, 3, 5, 7, 11))
        else:
            p = rng.choice((3, 5, 7, 11, 101, LARGE_PRIMES[0]))
        r = rng.randrange(p)
        linear = ZPoly((-r, 1))
        s = ZPoly(tuple(rng.randrange(p) for _ in range(rng.randint(0, 6))) + (1,))
        if kind == "two double roots":
            other = ZPoly((-(r + rng.randrange(1, p)), 1))
            f = _lift(linear**2 * other**2 * s, r, p, rng, vanish)
        elif kind == "triple root":
            f = _lift(linear**3 * s, r, p, rng, vanish)
        elif kind == "quadratic squared":
            q = ZPoly((rng.randrange(p), rng.randrange(p), 1))
            while factor_mod_p(q, p).factors[0][0].degree != 2:
                q = ZPoly((rng.randrange(p), rng.randrange(p), 1))
            u = ZPoly(tuple(rng.randint(-9, 9) for _ in range(s.degree + 2)))
            f = q**2 * s + ZPoly((p,)) * (q * u if vanish else u)
        elif kind == "f' = 0":
            # f = w(x^p) mod p with r a root of w, degree at most 12.
            cofactor = [rng.randrange(p) for _ in range(rng.randint(0, 12 // p - 1))] + [1]
            w = linear * ZPoly(tuple(cofactor))
            spread = [0] * (p * w.degree + 1)
            spread[::p] = w.coeffs
            f = _lift(ZPoly(tuple(spread)), r, p, rng, vanish)
        else:
            f = _lift(linear ** rng.randint(1, 4) * s, r, p, rng, vanish)
        assert _gcd_degree(f, p) != 1, (kind, f.coeffs, p)
        verdict = _verdict(f, p)
        assert verdict == factored_verdict(f, p)[0], (kind, f.coeffs, p)
        seen[kind, verdict] += 1
    for kind in kinds:
        assert seen[kind, True] >= 20 and seen[kind, False] >= 20, seen


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
