"""Polynomial arithmetic over Z and F_p, resultants, mod-p factorization."""

import itertools
import random

import pytest
from hypothesis import given, strategies as st

from helpers import sylvester_resultant, time_limit
from monobase import (
    FpPoly,
    ZPoly,
    discriminant_via_resultant,
    factor_mod_p,
    is_prime,
    resultant,
)
from monobase import polynomials
from monobase.polynomials import (
    _PATTERN_CACHE_SIZE,
    _degree_pattern,
    _fp_gcd,
    _fp_mul,
    _fp_sqf_list,
    _monic_reduction,
    degree_pattern_mod_p,
)
from monobase.report import _PATTERN_PRIMES

coeff_lists = st.lists(st.integers(min_value=-50, max_value=50), min_size=1, max_size=7)


def test_zpoly_normalization_and_accessors():
    f = ZPoly((1, 2, 0, 0))
    assert f.coeffs == (1, 2) and f.degree == 1
    assert ZPoly(()).is_zero and ZPoly((0, 0)).is_zero
    g = ZPoly((2, 0, 1))
    assert g.is_monic and g.leading == 1 and g.constant == 2
    assert g.coeffs == (2, 0, 1)


@given(coeff_lists, coeff_lists, st.integers(min_value=-9, max_value=9))
def test_zpoly_ring_evaluation_homomorphism(a, b, x):
    f, g = ZPoly(tuple(a)), ZPoly(tuple(b))
    assert (f + g)(x) == f(x) + g(x)
    assert (f - g)(x) == f(x) - g(x)
    assert (f * g)(x) == f(x) * g(x)


def test_zpoly_derivative():
    f = ZPoly((4, 0, 6))  # 6x^2 + 4
    assert f.derivative().coeffs == (0, 12)
    assert ZPoly(()).derivative().is_zero


def test_zpoly_pow_and_str():
    f = ZPoly((1, 1))
    assert (f**3).coeffs == (1, 3, 3, 1)
    assert str(ZPoly((2, 4, 2, 0, 0, 0, 0, 1))) == "x^7 + 2*x^2 + 4*x + 2"
    assert str(ZPoly((-4, -4, -1, 0, 0, 0, 1))) == "x^6 - x^2 - 4*x - 4"
    assert str(ZPoly(())) == "0"


def test_resultant_product_over_roots_convention():
    # res(f, g) = lc(g)**deg f * prod f(root of g), frozen on factored g.
    f = ZPoly((1, 2, 3))  # 3x^2 + 2x + 1
    g = ZPoly((2, -3, 1))  # (x - 1)(x - 2)
    assert resultant(f, g) == f(1) * f(2)
    g3 = ZPoly((6, -9, 3))  # 3(x - 1)(x - 2): lc 3, same roots
    assert resultant(f, g3) == 3**2 * f(1) * f(2)
    assert resultant(ZPoly((1, 0, 1)), ZPoly((-1, 1))) == 2  # x^2+1 at x=1


def test_resultant_matches_sylvester_determinant():
    # Degree 0 on either side covers constant operands: Res(a, c) = c**deg a.
    rng = random.Random(31)
    for _ in range(400):
        da = rng.randint(0, 6)
        db = rng.randint(0, 6)
        a = [rng.randint(-9, 9) for _ in range(da)] + [rng.choice((1, -3, 2, 7))]
        b = [rng.randint(-9, 9) for _ in range(db)] + [rng.choice((1, -2, 5))]
        f, g = ZPoly(tuple(a)), ZPoly(tuple(b))
        # package convention res(f, g) == standard Res(g, f)
        expected = sylvester_resultant(list(reversed(b)), list(reversed(a)))
        assert resultant(f, g) == expected, (a, b)


def test_resultant_shared_root_vanishes():
    common = ZPoly((3, 1))  # x + 3
    f = common * ZPoly((1, 2, 1))
    g = common * ZPoly((-5, 1))
    assert resultant(f, g) == 0
    with pytest.raises(ValueError):
        resultant(ZPoly(()), f)


def test_discriminant_via_resultant_known_values():
    assert discriminant_via_resultant(ZPoly((1, 2, 1))) == 0  # (x+1)^2
    assert discriminant_via_resultant(ZPoly((-1, -1, 0, 1))) == -23  # x^3 - x - 1
    assert discriminant_via_resultant(ZPoly((-2, 0, 0, 1))) == -108  # x^3 - 2
    assert discriminant_via_resultant(ZPoly((1, -1, 0, 0, 0, 1))) == 2869  # x^5 - x + 1
    assert discriminant_via_resultant(ZPoly((1, 1, 1))) == -3
    with pytest.raises(ValueError):
        discriminant_via_resultant(ZPoly((1, 2)))  # degree 1
    with pytest.raises(ValueError):
        discriminant_via_resultant(ZPoly((1, 1, 2)))  # not monic


def test_fp_poly_reduction_and_ops():
    p = 7
    f = FpPoly(p, (10, -1, 14))
    assert f.coeffs == (3, 6)  # 14 vanishes mod 7
    assert f.degree == 1 and f.coeffs[-1] == 6 and str(f) == "6*x + 3"
    assert FpPoly(p, (7, 14)).is_zero and FpPoly(p, ()).degree == -1
    with pytest.raises(ValueError):
        f.divides(FpPoly(5, (1,)))  # mixed moduli
    with pytest.raises(ValueError):
        FpPoly(1, (1,))


def test_fp_poly_divides_and_mod():
    p = 5
    f = FpPoly(p, (1, 2, 1))  # (x+1)^2
    g = FpPoly(p, (1, 1))
    assert g.divides(f)
    assert not FpPoly(p, (2, 1)).divides(f)
    zero = FpPoly(p, ())
    assert g.divides(zero) and zero.divides(zero) and not zero.divides(f)


def test_gcd_mod_p_matches_brute_force():
    # _fp_gcd is the gcd the squarefree and distinct-degree stages use.
    rng = random.Random(77)
    for p in (2, 3, 5, 13):
        for _ in range(60):
            a = FpPoly(p, tuple(rng.randrange(p) for _ in range(rng.randint(1, 6))))
            b = FpPoly(p, tuple(rng.randrange(p) for _ in range(rng.randint(1, 6))))
            if a.is_zero and b.is_zero:
                continue
            gcs = _fp_gcd(list(a.coeffs), list(b.coeffs), p)
            g = FpPoly(p, tuple(gcs))
            assert g.coeffs[-1] == 1
            assert g.divides(a) and g.divides(b)
            # maximality: g * (x + 1) does not divide both
            bigger = FpPoly(p, tuple(_fp_mul(gcs, [1, 1], p)))
            assert not (bigger.divides(a) and bigger.divides(b))


def test_squarefree_list_of_a_constant_is_empty():
    # A constant has zero derivative and is its own p-th root; the
    # decomposition must stop at once rather than take roots forever.
    with time_limit(5):
        for p in (2, 3, 5):
            for k in range(1, p):
                assert _fp_sqf_list([k], p) == []
                fac = factor_mod_p(ZPoly((k,)), p)
                assert (fac.unit, fac.factors) == (k, ())
                assert degree_pattern_mod_p(ZPoly((k + p,)), p) == []


@pytest.mark.parametrize("p", [-3, -2, 0, 1])
def test_moduli_below_two_are_rejected(p):
    # is_prime tests |p|, so a negative prime must be refused before the
    # F_p arithmetic runs (a negative exponent never halves to zero).
    with time_limit(5):
        for f in (ZPoly((1, 0, 1)), ZPoly((1, 0, 0, 1))):
            with pytest.raises(ValueError, match=f"^{p} is not prime$"):
                factor_mod_p(f, p)
            with pytest.raises(ValueError, match=f"^{p} is not prime$"):
                degree_pattern_mod_p(f, p)


def _product(fac) -> FpPoly:
    """The factorization multiplied back out: unit * prod g**e over F_p."""
    out = [fac.unit]
    for g, e in fac.factors:
        for _ in range(e):
            out = _fp_mul(out, list(g.coeffs), fac.p)
    return FpPoly(fac.p, tuple(out))


def _is_irreducible_brute(g: FpPoly) -> bool:
    p, n = g.p, g.degree
    if n < 1:
        return False
    for d in range(1, n // 2 + 1):
        for code in range(p**d):
            cs, x = [], code
            for _ in range(d):
                cs.append(x % p)
                x //= p
            if FpPoly(p, tuple(cs + [1])).divides(g):
                return False
    return True


def test_factor_mod_p_reconstructs_and_is_irreducible():
    rng = random.Random(4231)
    for p in (2, 3, 5, 7):
        for _ in range(40):
            deg = rng.randint(1, 6)
            coeffs = [rng.randint(-20, 20) for _ in range(deg)] + [1]
            f = ZPoly(tuple(coeffs))
            fac = factor_mod_p(f, p)
            assert _product(fac) == FpPoly(p, f.coeffs)
            assert sum(g.degree * e for g, e in fac.factors) == deg
            for g, e in fac.factors:
                assert e >= 1 and g.coeffs[-1] == 1
                assert _is_irreducible_brute(g), (p, coeffs, g.coeffs)


def test_factor_mod_p_handles_pth_powers():
    # x^4 + 2x^2 + 1 = (x^2+1)^2 = (x+1)^4 mod 2: derivative vanishes.
    fac = factor_mod_p(ZPoly((1, 0, 2, 0, 1)), 2)
    assert fac.factors == ((FpPoly(2, (1, 1)), 4),)
    fac = factor_mod_p(ZPoly((1, 0, 0, 3, 0, 0, 1)), 3)  # f(x) = g(x^3) mod 3
    assert _product(fac) == FpPoly(3, (1, 0, 0, 3, 0, 0, 1))


def test_factor_mod_p_deterministic_and_sorted():
    f = ZPoly((6, 5, 0, 4, 0, 0, 1))
    a = factor_mod_p(f, 13, seed=5)
    b = factor_mod_p(f, 13, seed=5)
    assert a == b
    keys = [(g.degree, g.coeffs) for g, _ in a.factors]
    assert keys == sorted(keys)


def test_factor_mod_p_input_validation():
    with pytest.raises(ValueError):
        factor_mod_p(ZPoly((1, 1)), 6)  # composite modulus
    with pytest.raises(ValueError):
        factor_mod_p(ZPoly((1, 3)), 3)  # leading coefficient vanishes
    assert is_prime(13)


def _factor_degrees(f: ZPoly, p: int) -> list[int]:
    fac = factor_mod_p(f, p)
    return sorted(d for g, e in fac.factors for d in [g.degree] * e)


def test_degree_pattern_matches_factor_mod_p():
    rng = random.Random(2303)
    for _ in range(40):
        deg = rng.randint(2, 14)
        f = ZPoly(tuple(rng.randint(-30, 30) for _ in range(deg)) + (1,))
        for p in _PATTERN_PRIMES:
            assert degree_pattern_mod_p(f, p) == _factor_degrees(f, p), (f.coeffs, p)


def test_degree_pattern_on_pth_powers_and_repeated_factors():
    rng = random.Random(3138)
    for p in _PATTERN_PRIMES:
        for _ in range(3):
            g = ZPoly(tuple(rng.randint(-9, 9) for _ in range(rng.randint(1, 2))) + (1,))
            h = ZPoly(tuple(rng.randint(-9, 9) for _ in range(rng.randint(1, 3))) + (1,))
            # g(x**p): each coefficient followed by p - 1 zeros
            g_of_xp = ZPoly(sum(((c,) + (0,) * (p - 1) for c in g.coeffs), ()))
            for f in (g_of_xp, g_of_xp * h, g * g * h, (g**3) * (h**2)):
                assert degree_pattern_mod_p(f, p) == _factor_degrees(f, p), (f.coeffs, p)
    # (x + 1)**4 mod 2 and x**6 + 1 = (x**2 + 1)**3 mod 3
    assert degree_pattern_mod_p(ZPoly((1, 0, 2, 0, 1)), 2) == [1, 1, 1, 1]
    assert degree_pattern_mod_p(ZPoly((1, 0, 0, 0, 0, 0, 1)), 3) == [2, 2, 2]


@pytest.mark.parametrize("p", [2, 3])
def test_degree_pattern_detects_exactly_the_irreducibles(p):
    # Every monic f of degree 1..6 over F_p: the pattern is [n] exactly when
    # no monic polynomial of degree <= n/2 divides f.
    for n in range(1, 7):
        for lower in itertools.product(range(p), repeat=n):
            f = ZPoly(lower + (1,))
            pattern = degree_pattern_mod_p(f, p)
            assert sum(pattern) == n
            assert (pattern == [n]) == _is_irreducible_brute(
                FpPoly(p, f.coeffs)
            ), (lower, p)


def test_degree_pattern_input_validation():
    with pytest.raises(ValueError):
        degree_pattern_mod_p(ZPoly((1, 1)), 6)  # composite modulus
    with pytest.raises(ValueError):
        degree_pattern_mod_p(ZPoly((1, 3)), 3)  # leading coefficient vanishes
    assert degree_pattern_mod_p(ZPoly((2, 0, 3)), 5) == [1, 1]  # 3(x - 1)(x + 1)
    assert degree_pattern_mod_p(ZPoly((4, 0, 3)), 5) == [2]  # 3(x**2 + 3)
    assert degree_pattern_mod_p(ZPoly((4,)), 5) == []


def _uncached_pattern(f: ZPoly, p: int) -> list[int]:
    return list(_degree_pattern.__wrapped__(tuple(_monic_reduction(f, p)[1]), p))


def test_degree_pattern_result_is_a_fresh_list():
    f = ZPoly((1, 0, 2, 0, 1))
    first = degree_pattern_mod_p(f, 2)
    first.append(99)
    first[0] = 7
    assert degree_pattern_mod_p(f, 2) == [1, 1, 1, 1]
    assert degree_pattern_mod_p(f, 2) is not degree_pattern_mod_p(f, 2)


def test_degree_pattern_cache_is_keyed_on_the_monic_reduction():
    p = 7
    f = ZPoly((3, 5, 2, 0, 0, 1))  # x^5 + 2x^2 + 5x + 3
    g = ZPoly((4, -1, 9))
    shifted = f + ZPoly((p,)) * g  # same reduction mod 7
    scaled = ZPoly(tuple(3 * c for c in f.coeffs))  # lc 3, same monic reduction
    _degree_pattern.cache_clear()
    patterns = [degree_pattern_mod_p(h, p) for h in (f, shifted, scaled)]
    info = _degree_pattern.cache_info()
    assert info.misses == 1 and info.hits == 2
    assert patterns[0] == patterns[1] == patterns[2] == _factor_degrees(f, p)


def test_degree_pattern_validates_before_the_cache():
    # The prime test runs inside the memoized pattern, so a composite p
    # raises there and never gets an entry that a later call could hit.
    _degree_pattern.cache_clear()
    with pytest.raises(ValueError, match="^6 is not prime$"):
        _degree_pattern((1, 1), 6)
    assert _degree_pattern.cache_info().currsize == 0
    # Warm the entry under the key (1 + 3x) mod 3 would reduce to.
    assert degree_pattern_mod_p(ZPoly((1,)), 3) == []
    for _ in range(2):
        with pytest.raises(ValueError, match="^6 is not prime$"):
            degree_pattern_mod_p(ZPoly((1, 1)), 6)  # composite modulus
        with pytest.raises(ValueError, match="^6 is not prime$"):
            degree_pattern_mod_p(ZPoly((1, 6)), 6)  # composite p and p | lc(f)
        with pytest.raises(ValueError, match="^leading coefficient vanishes mod p$"):
            degree_pattern_mod_p(ZPoly((1, 3)), 3)  # p | lc(f)
    assert _degree_pattern.cache_info().currsize == 1
    _degree_pattern.cache_clear()


def test_a_pattern_cache_hit_skips_the_prime_test(monkeypatch):
    original = polynomials.is_prime
    calls = []

    def counting(n, *args, **kwargs):
        calls.append(n)
        return original(n, *args, **kwargs)

    monkeypatch.setattr(polynomials, "is_prime", counting)
    _degree_pattern.cache_clear()
    f = ZPoly((3, 0, 1, 1))
    assert degree_pattern_mod_p(f, 101) == degree_pattern_mod_p(f, 101)
    info = _degree_pattern.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    assert calls == [101]
    calls.clear()
    # A composite p and p | lc(f) raise, and are tested, on every call.
    for _ in range(2):
        with pytest.raises(ValueError, match="^9 is not prime$"):
            degree_pattern_mod_p(ZPoly((1, 1)), 9)
        with pytest.raises(ValueError, match="^leading coefficient vanishes mod p$"):
            degree_pattern_mod_p(ZPoly((1, 0, 7)), 7)
    assert calls == [9, 7, 9, 7]
    assert _degree_pattern.cache_info().currsize == 1
    _degree_pattern.cache_clear()


def test_degree_pattern_cache_is_bounded():
    assert _degree_pattern.cache_info().maxsize == _PATTERN_CACHE_SIZE
    assert 0 < _PATTERN_CACHE_SIZE <= 1 << 16


def test_cached_and_uncached_degree_patterns_agree():
    for p in (2, 3):
        for n in range(1, 7):
            for lower in itertools.product(range(p), repeat=n):
                f = ZPoly(lower + (1,))
                assert degree_pattern_mod_p(f, p) == _uncached_pattern(f, p), (lower, p)
    rng = random.Random(2024)
    for _ in range(80):
        deg = rng.randint(2, 14)
        f = ZPoly(tuple(rng.randint(-30, 30) for _ in range(deg)) + (rng.randint(1, 5),))
        for p in _PATTERN_PRIMES:
            if f.leading % p:
                assert degree_pattern_mod_p(f, p) == _uncached_pattern(f, p), (f.coeffs, p)
