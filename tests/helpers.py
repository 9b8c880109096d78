"""Shared test utilities: seeded spec sampling and brute-force oracles."""

import random
import signal
from contextlib import contextmanager
from fractions import Fraction

from monobase import QuadrinomialSpec, generate_spec, quadrinomial_discriminant


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


def naive_is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


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
