"""Shared test utilities: seeded spec sampling and brute-force oracles."""

import math
import random
import signal
import sys
from contextlib import contextmanager
from fractions import Fraction

from monobase import (
    QuadrinomialSpec,
    ZPoly,
    factor_mod_p,
    generate_spec,
    quadrinomial_discriminant,
)
from monobase.integer_core import p_valuation


def random_specs(seed, count, n_range=(3, 9), coeff_bound=9):
    """Deterministic stream of admissible specs with nonzero discriminant."""
    rng = random.Random(seed)
    nonzero = [i for i in range(-coeff_bound, coeff_bound + 1) if i]
    out = []
    while len(out) < count:
        n = rng.randint(*n_range)
        u = rng.choice(nonzero)
        v = rng.choice(nonzero)
        w = rng.randint(-coeff_bound, coeff_bound)
        spec = generate_spec(u, v, w, n)
        if quadrinomial_discriminant(spec) == 0:
            continue
        out.append(spec)
    return out


SMALL_PRIMES = (2, 3, 5, 7, 11, 13)
LARGE_PRIMES = (4294967311, 2**61 - 1)  # both above 2**32
DEDEKIND_PAIR_KINDS = ("random", "repeated", "squarefree", "f_zero", "frobenius", "linear", "large_p")


def _monic(rng, degree, low, high):
    return ZPoly(tuple(rng.randint(low, high) for _ in range(degree)) + (1,))


def _reduced_product(factors, p):
    """Integer product of the given (ZPoly, exponent) pairs, coefficients
    reduced into [0, p)."""
    prod = ZPoly((1,))
    for g, e in factors:
        prod = prod * g**e
    return ZPoly(tuple(c % p for c in prod.coeffs))


def _split_radical(f0, p):
    """(g, h): the radical of f0 mod p and f0 / g mod p, reduced into [0, p)."""
    fac = factor_mod_p(f0, p).factors
    g = _reduced_product([(ZPoly(q.coeffs), 1) for q, _ in fac], p)
    h = _reduced_product([(ZPoly(q.coeffs), e - 1) for q, e in fac], p)
    return g, h


def dedekind_pairs(seed, count):
    """Deterministic stream of (kind, f, p) inputs for Dedekind's criterion,
    cycling through DEDEKIND_PAIR_KINDS.  With g the radical of f mod p and h
    the cofactor, both reduced into [0, p), and F = (f - g*h) / p:

    random      monic f of degree 2..8, coefficients in [-20, 20], small p;
    repeated    f = g*h + p*t for a product of small monic powers with a
                repeated factor, so F = t is random;
    squarefree  f mod p squarefree (rejection-sampled on factor_mod_p);
    f_zero      as repeated, but f = g*h + p**2 * t: F = 0 mod p;
    frobenius   w(x**p), plus p*t half the time, at p = 2 and 3;
    linear      degree 1;
    large_p     p above 2**32, f = g*h + p*t for a product of linear powers;
                half the time t vanishes at the first root.
    """
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        kind = DEDEKIND_PAIR_KINDS[len(out) % len(DEDEKIND_PAIR_KINDS)]
        p = rng.choice(SMALL_PRIMES)
        if kind in ("random", "squarefree"):
            f = _monic(rng, rng.randint(2, 8), -20, 20)
            if kind == "squarefree" and any(e > 1 for _, e in factor_mod_p(f, p).factors):
                continue
        elif kind == "frobenius":
            p = rng.choice((2, 3))
            w = _monic(rng, rng.randint(1, 3), -9, 9)
            f = ZPoly(tuple(0 if j % p else w.coeffs[j // p] for j in range(p * w.degree + 1)))
            if rng.random() < 0.5:
                f = f + ZPoly((p,)) * _monic(rng, f.degree - 1, -9, 9)
        elif kind == "linear":
            f = ZPoly((rng.randint(-50, 50), 1))
        else:
            if kind == "large_p":
                p = rng.choice(LARGE_PRIMES)
                parts = [(ZPoly((rng.randrange(p), 1)), rng.randint(1, 3))
                         for _ in range(rng.randint(1, 3))]
            else:
                parts = [(_monic(rng, rng.randint(1, 2), 0, p - 1), rng.randint(1, 3))
                         for _ in range(rng.randint(1, 3))]
                parts[0] = (parts[0][0], rng.randint(2, 3))
            g, h = _split_radical(_reduced_product(parts, p), p)
            degree = g.degree + h.degree
            if kind == "large_p" and degree >= 2 and rng.random() < 0.5:
                t = parts[0][0] * _monic(rng, degree - 2, -9, 9)
            else:
                t = _monic(rng, degree - 1, -9, 9)
            if kind == "f_zero":
                t = ZPoly((p,)) * t
            f = g * h + ZPoly((p,)) * t
        out.append((kind, f, p))
    return out


@contextmanager
def time_limit(seconds):
    """Raise TimeoutError in the block if it runs longer than seconds (SIGALRM),
    so a hang fails the test instead of stalling the suite."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@contextmanager
def int_digit_limit(digits):
    """Python's int-to-str digit limit set to digits (0: none) in the block;
    a no-op on Pythons without the limit."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(digits)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(previous)


def naive_is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


MR_REFERENCE_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def strong_probable_prime(n, a):
    """True if odd n > 2 passes the strong (Miller-Rabin) test to base a."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    x = pow(a, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def thirteen_base_is_prime(n):
    """Primality of |n| below 3317044064679887385961981 by trial division
    by 2..41 and all thirteen strong bases 2..41 (Sorenson & Webster)."""
    n = abs(n)
    if n < 2:
        return False
    for q in MR_REFERENCE_BASES:
        if n % q == 0:
            return n == q
    return all(strong_probable_prime(n, a) for a in MR_REFERENCE_BASES)


def naive_factor(n):
    """Sorted (prime, exponent) pairs of n >= 1 by trial division."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


def sylvester_resultant(f_desc, g_desc):
    """Res(f, g) = lc(g)**deg(f) * prod f at roots of g, via the Sylvester
    matrix determinant (fraction-free Bareiss).  Coefficients descending."""
    m = len(f_desc) - 1
    n = len(g_desc) - 1
    if m == 0:
        return f_desc[0] ** n
    if n == 0:
        return g_desc[0] ** m
    size = m + n
    rows = []
    for i in range(n):
        rows.append([0] * i + list(f_desc) + [0] * (size - m - 1 - i))
    for i in range(m):
        rows.append([0] * i + list(g_desc) + [0] * (size - n - 1 - i))
    # Standard convention Res(f, g) = det(Sylvester(f, g)); the package's
    # resultant(f, g) equals the standard Res(g, f), so callers swap.
    return _bareiss_det(rows)


def _bareiss_det(rows):
    n = len(rows)
    mat = [list(r) for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if mat[k][k] == 0:
            for i in range(k + 1, n):
                if mat[i][k] != 0:
                    mat[k], mat[i] = mat[i], mat[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                mat[i][j] = (mat[i][j] * mat[k][k] - mat[i][k] * mat[k][j]) // prev
            mat[i][k] = 0
        prev = mat[k][k]
    return sign * mat[n - 1][n - 1]


def eval_poly(coeffs_asc, x):
    v = Fraction(0)
    for c in reversed(coeffs_asc):
        v = v * x + c
    return v


EXAMPLE_TRIO = {
    # c -> (|disc f|, index, monogenic) for x**7 + c*(x + 1)**2
    2: (2**6 * 3**2 * 83 * 1069, 3, "no"),
    5: (5**6 * 3 * 253681, 1, "yes"),
    7: (7**7 * 11**3 * 79, 11, "no"),
}


def trio_spec(c):
    return QuadrinomialSpec(7, c, 2 * c, c)


def binomial_integral_basis(n, c):
    """Monogenicity of x**n - c (irreducibility assumed, theta a root) by the
    classical criterion, which shares no code with the case rules: Z[theta]
    is maximal iff c is squarefree and, for every prime p | n with p coprime
    to c and r = v_p(n), p**2 does not divide c**(p**r) - c.

    Returns (status, witness): ("monogenic", None) or ("not_monogenic", p)
    with p a prime dividing the index.
    """
    for p, r in naive_factor(n):
        if c % p != 0 and (pow(c, p**r, p * p) - c) % (p * p) == 0:
            return "not_monogenic", p
    for p, e in naive_factor(abs(c)):
        if e >= 2:
            return "not_monogenic", p
    return "monogenic", None


def subset_sums_reference(degrees):
    """The set of sums of every sub-multiset of degrees."""
    sums = {0}
    for d in degrees:
        sums |= {s + d for s in sums}
    return sums


def polygon_reference(f, p, k):
    """The single-segment Newton polygon test from (0, k) to (n, 0), point by
    point: gcd(k, n) = 1 and every nonzero inner coefficient c_i has
    v_p(c_i) / (n - i) >= k / n."""
    n = f.degree
    return math.gcd(k, n) == 1 and all(
        ci == 0 or p_valuation(ci, p)[0] * n >= k * (n - i)
        for i, ci in enumerate(f.coeffs[1:n], 1)
    )


def first_rational_root(f, candidates):
    """The first of d, -d over candidates, in order, at which f vanishes,
    evaluating f at each; None if there is none."""
    for d in candidates:
        for r in (d, -d):
            if f(r) == 0:
                return r
    return None
