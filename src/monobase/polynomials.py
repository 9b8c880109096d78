"""Exact polynomial arithmetic over Z and F_p.

Polynomials are coefficient sequences in *ascending* degree order with no
trailing zeros, so coeffs[i] is the coefficient of x**i and the zero
polynomial is the empty tuple.

Resultants over Z run Euclid's algorithm over Q in exact Fraction
arithmetic, an independent route to disc(f) that checks the closed form.
Factorization over F_p is the classical squarefree / distinct-degree /
equal-degree pipeline with Cantor-Zassenhaus splitting; the only randomness
is the splitting element, drawn from a generator seeded by (seed, p,
coefficients).  The factor degrees alone (degree_pattern_mod_p) need no split
and no randomness, and neither does Dedekind's criterion in its gcd form
(dedekind_gcd_mod_p).  It takes gcd(f, f') mod p: a linear gcd x - r leaves
one evaluation of f(r) mod p^2, and otherwise the squarefree decomposition
gives the verdict.

Degree patterns are memoized per (p, monic reduction of f mod p) in an LRU
cache of _PATTERN_CACHE_SIZE = 4096 entries, about 1.2 MiB when full.  For
x^n + a x^2 + b x + c at most p^3 reductions exist per degree, whatever the
size of the coefficients, so an irreducibility sweep meets the same few
thousand patterns again and again.  When f mod p is monic, the primality test
of p runs inside the memoized pattern, so a hit skips it.

Dedekind's mod-p work is memoized per (f mod p, p) in an LRU cache of
_DEDEKIND_CACHE_SIZE = 2048 entries, about 150 bytes each and under 0.3 MiB
when full: the double root r when gcd(f, f') = x - r mod p, otherwise g*h and
the parts that repeat.  Each call finishes mod p^2 on its own coefficients,
which is one Horner pass or one short gcd.  For x^n + a x^2 + b x + c the
same small-p reductions recur: in an oracle sweep of small specs, primes
p <= 7 make 57% of the calls but meet only a few hundred reductions (some
thousands of keys mod p^2), so a key on f mod p keeps them cached among the
one-off keys of larger primes.  The checks on f and p < 2 run on every call; the primality
test of p runs inside the memoized work, so it costs only on a miss and no
entry is ever stored for a composite p.

All arithmetic in F_p[x] lives in the _fp_* helpers on raw coefficient lists.
FpPoly is only a result type: the factors and reductions that factor_mod_p
and the Dedekind witnesses report, with a divisibility test.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache

from .integer_core import DEFAULT_SEED, is_prime


@dataclass(frozen=True)
class ZPoly:
    """Integer polynomial, ascending coefficients, no trailing zeros."""

    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        cs = tuple(self.coeffs)
        while cs and cs[-1] == 0:
            cs = cs[:-1]
        object.__setattr__(self, "coeffs", cs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self) -> int:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    @property
    def constant(self) -> int:
        return self.coeffs[0] if self.coeffs else 0

    def __call__(self, x: int) -> int:
        v = 0
        for c in reversed(self.coeffs):
            v = v * x + c
        return v

    def __add__(self, other: "ZPoly") -> "ZPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return ZPoly(tuple(out))

    def __neg__(self) -> "ZPoly":
        return ZPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "ZPoly") -> "ZPoly":
        return self + (-other)

    def __mul__(self, other: "ZPoly") -> "ZPoly":
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return ZPoly(())
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return ZPoly(tuple(out))

    def __pow__(self, e: int) -> "ZPoly":
        if e < 0:
            raise ValueError("negative polynomial power")
        result = ZPoly((1,))
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def derivative(self) -> "ZPoly":
        return ZPoly(tuple(i * c for i, c in enumerate(self.coeffs) if i))

    def __str__(self) -> str:
        return _format_poly(self.coeffs)


def _format_poly(coeffs) -> str:
    if not coeffs:
        return "0"
    terms = []
    for i in range(len(coeffs) - 1, -1, -1):
        c = coeffs[i]
        if c == 0:
            continue
        sign = "-" if c < 0 else "+"
        mag = abs(c)
        if i == 0:
            body = str(mag)
        else:
            head = "" if mag == 1 else f"{mag}*"
            body = f"{head}x" if i == 1 else f"{head}x^{i}"
        terms.append((sign, body))
    first_sign, first_body = terms[0]
    out = ("-" if first_sign == "-" else "") + first_body
    for sign, body in terms[1:]:
        out += f" {sign} {body}"
    return out


# ---------------------------------------------------------------------------
# Resultants over Z.


def _res_ascending(a: list[int], b: list[int]) -> int:
    """Res(a, b) = lc(a)**deg(b) * prod b(alpha) over roots alpha of a.

    Euclid's algorithm over Q: with r = a mod b,
    Res(a, b) = (-1)**(deg a * deg b) * lc(b)**(deg a - deg r) * Res(b, r),
    down to Res(a, c) = c**deg(a) for a constant c; a vanishing remainder
    means a common factor and a zero resultant.
    """
    # Imported here: `import monobase` must not load fractions (~4 ms cold).
    from fractions import Fraction

    a = [Fraction(c) for c in a]
    b = [Fraction(c) for c in b]
    t = Fraction(1)
    while len(b) > 1:
        da, db, lb = len(a) - 1, len(b) - 1, b[-1]
        r = a
        while len(r) > db:
            q = r[-1] / lb
            shift = len(r) - 1 - db
            r = r[:shift] + [rc - q * bc for rc, bc in zip(r[shift:-1], b)]
            while r and r[-1] == 0:
                r.pop()
        if not r:
            return 0
        if da & db & 1:
            t = -t
        t *= lb ** (da - len(r) + 1)
        a, b = b, r
    t *= b[0] ** (len(a) - 1)
    if t.denominator != 1:
        raise ArithmeticError(f"resultant {t} is not an integer")
    return t.numerator


def resultant(f: ZPoly, g: ZPoly) -> int:
    """Resultant normalized so that res(f, g) = lc(g)**deg(f) * prod f(gamma)
    over the roots gamma of g (with multiplicity)."""
    if f.is_zero or g.is_zero:
        raise ValueError("resultant of the zero polynomial is undefined")
    return _res_ascending(list(g.coeffs), list(f.coeffs))


def discriminant_via_resultant(f: ZPoly) -> int:
    """disc(f) for monic f of degree >= 2, via res(f', f)."""
    if not f.is_monic:
        raise ValueError("discriminant route requires a monic polynomial")
    n = f.degree
    if n < 2:
        raise ValueError("discriminant requires degree >= 2")
    sign = -1 if (n * (n - 1) // 2) & 1 else 1
    return sign * resultant(f.derivative(), f)


# ---------------------------------------------------------------------------
# Arithmetic in F_p[x] on raw ascending coefficient lists.


def _fp_trim(cs: list[int]) -> list[int]:
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def _fp_add(a: list[int], b: list[int], p: int) -> list[int]:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] = (out[i] + c) % p
    return _fp_trim(out)


def _fp_sub(a: list[int], b: list[int], p: int) -> list[int]:
    out = list(a) + [0] * max(0, len(b) - len(a))
    for i, c in enumerate(b):
        out[i] = (out[i] - c) % p
    return _fp_trim(out)


def _fp_mul(a: list[int], b: list[int], p: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return _fp_trim([c % p for c in out])


def _fp_scale(a: list[int], k: int, p: int) -> list[int]:
    k %= p
    return _fp_trim([c * k % p for c in a])


def _fp_divmod(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int]]:
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    inv = 1 if b[-1] == 1 else pow(b[-1], -1, p)
    rem = list(a)
    db = len(b) - 1
    low = b[:db]
    quo = [0] * (len(rem) - db)
    for k in range(len(rem) - 1, db - 1, -1):
        c = rem[k] * inv % p
        if c:
            quo[k - db] = c
            # Step k zeroes rem[k], which is never read again: update only
            # the db coefficients below it, and keep rem[:db] at the end.
            for j, cb in enumerate(low, k - db):
                rem[j] = (rem[j] - c * cb) % p
    return _fp_trim(quo), _fp_trim(rem[:db])


def _fp_rem(a: list[int], b: list[int], p: int) -> list[int]:
    return _fp_divmod(a, b, p)[1]


def _fp_quo(a: list[int], b: list[int], p: int) -> list[int]:
    q, r = _fp_divmod(a, b, p)
    if r:
        raise ArithmeticError("inexact polynomial division")
    return q


def _fp_monic(a: list[int], p: int) -> list[int]:
    if not a or a[-1] == 1:
        return list(a)
    return _fp_scale(a, pow(a[-1], -1, p), p)


def _fp_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    while b:
        if len(b) == 1:
            return [1]  # a nonzero constant divides everything
        a, b = b, _fp_rem(a, b, p)
    return _fp_monic(a, p)


def _fp_pow_mod(base: list[int], e: int, mod: list[int], p: int) -> list[int]:
    result = [1]
    base = _fp_rem(base, mod, p)
    while e:
        if e & 1:
            result = _fp_rem(_fp_mul(result, base, p), mod, p)
        base = _fp_rem(_fp_mul(base, base, p), mod, p)
        e >>= 1
    return result


def _fp_deriv(a: list[int], p: int) -> list[int]:
    return _fp_trim([i * c % p for i, c in enumerate(a)][1:])


@dataclass(frozen=True)
class FpPoly:
    """Polynomial over F_p: modulus plus ascending residue coefficients."""

    p: int
    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.p < 2:
            raise ValueError("modulus must be at least 2")
        cs = tuple(c % self.p for c in self.coeffs)
        while cs and cs[-1] == 0:
            cs = cs[:-1]
        object.__setattr__(self, "coeffs", cs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def divides(self, other: "FpPoly") -> bool:
        """True iff self divides other in F_p[x]."""
        if self.p != other.p:
            raise ValueError("mixed moduli")
        if self.is_zero:
            return other.is_zero
        return not _fp_rem(list(other.coeffs), list(self.coeffs), self.p)

    def __str__(self) -> str:
        return _format_poly(self.coeffs)


# ---------------------------------------------------------------------------
# Factorization in F_p[x].


def _fp_sqf_list(
    f: list[int], p: int, g: list[int] | None = None
) -> list[tuple[list[int], int]]:
    """Squarefree decomposition of monic f, characteristic-p aware.  g, when
    the caller already has it, is gcd(f, f') as _fp_gcd returns it."""
    factors: list[tuple[list[int], int]] = []
    mult = 1
    while len(f) > 1:
        if g is None:
            g = _fp_gcd(f, _fp_deriv(f, p), p)  # f itself when f' = 0
        h = _fp_quo(f, g, p)
        i = 1
        while h != [1]:
            gh = _fp_gcd(g, h, p)
            part = _fp_quo(h, gh, p)
            if len(part) > 1:
                factors.append((part, i * mult))
            g = _fp_quo(g, gh, p)
            h = gh
            i += 1
        # Here g is 1 or has zero derivative: g = w(x**p), and w is its p-th
        # root because Frobenius fixes the coefficients.
        f, g = g[::p], None
        mult *= p
    return factors


def _fp_ddf(f: list[int], p: int) -> list[tuple[list[int], int]]:
    """Distinct-degree factorization of monic squarefree f: (product, degree)."""
    out: list[tuple[list[int], int]] = []
    x = [0, 1]
    h = _fp_rem(x, f, p)
    i = 1
    while 2 * i <= len(f) - 1:
        h = _fp_pow_mod(h, p, f, p)
        g = _fp_gcd(_fp_sub(h, x, p), f, p)
        if g != [1]:
            out.append((g, i))
            f = _fp_quo(f, g, p)
            h = _fp_rem(h, f, p)
        i += 1
    if len(f) - 1 > 0:
        out.append((f, len(f) - 1))
    return out


def _fp_random_poly(max_deg: int, p: int, rng: random.Random) -> list[int]:
    while True:
        cs = _fp_trim([rng.randrange(p) for _ in range(max_deg + 1)])
        if len(cs) > 1:
            return cs


def _fp_edf(f: list[int], d: int, p: int, rng: random.Random) -> list[list[int]]:
    """Split monic squarefree f whose irreducible factors all have degree d."""
    n = len(f) - 1
    if n == d:
        return [f]
    while True:
        r = _fp_random_poly(n - 1, p, rng)
        if p == 2:
            # Trace map over F_{2**d}: r + r**2 + ... + r**(2**(d-1)).
            t = list(r)
            sq = list(r)
            for _ in range(d - 1):
                sq = _fp_rem(_fp_mul(sq, sq, p), f, p)
                t = _fp_add(t, sq, p)
            g = _fp_gcd(t, f, p) if t else [1]
        else:
            h = _fp_pow_mod(r, (p**d - 1) // 2, f, p)
            g = _fp_gcd(_fp_sub(h, [1], p), f, p)
        if g != [1] and g != f:
            return _fp_edf(g, d, p, rng) + _fp_edf(_fp_quo(f, g, p), d, p, rng)


@dataclass(frozen=True)
class FpPolyFactorization:
    """Monic irreducible factors with multiplicities, plus the unit lc."""

    p: int
    unit: int
    factors: tuple[tuple[FpPoly, int], ...]

    def to_dict(self) -> dict:
        return {
            "p": self.p,
            "unit": self.unit,
            "factors": [
                {"coeffs": list(g.coeffs), "multiplicity": e} for g, e in self.factors
            ],
        }


def _monic_reduction(f: ZPoly, p: int) -> tuple[int, list[int]]:
    """(lc(f) mod p, monic reduction of f mod p), for p prime not dividing lc(f)."""
    if p < 2 or not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if f.is_zero or f.leading % p == 0:
        raise ValueError("leading coefficient vanishes mod p")
    fbar = [c % p for c in f.coeffs]
    return fbar[-1], _fp_monic(fbar, p)


def factor_mod_p(f: ZPoly, p: int, *, seed: int = DEFAULT_SEED) -> FpPolyFactorization:
    """Full factorization of f mod p into monic irreducibles.

    Requires p prime and p not dividing lc(f).  Deterministic for a fixed
    seed: the Cantor-Zassenhaus generator is keyed on (seed, p, coefficients).
    """
    unit, fbar = _monic_reduction(f, p)
    rng = random.Random(f"edf:{seed}:{p}:{f.coeffs}")
    found: list[tuple[FpPoly, int]] = []
    for part, mult in _fp_sqf_list(fbar, p):
        for stratum, d in _fp_ddf(part, p):
            for irr in _fp_edf(stratum, d, p, rng):
                found.append((FpPoly(p, tuple(irr)), mult))
    found.sort(key=lambda ge: (ge[0].degree, ge[0].coeffs))
    return FpPolyFactorization(p, unit, tuple(found))


def dedekind_gcd_mod_p(f: ZPoly, p: int) -> bool:
    """Whether p divides the index of Z[x]/(f) in its maximal order, by the gcd
    form of Dedekind's criterion (Cohen, GTM 138, Thm 6.1.4).

    With g the radical of f mod p, h = (f mod p) / g, both lifted to
    coefficients in [0, p), and F = (f - g*h) / p: p divides the index iff
    gcd(F mod p, g, h) has positive degree.  When gcd(f, f') mod p is linear,
    x - r, f has one double root r mod p and p divides the index iff
    f(r) = 0 mod p**2; otherwise g and h come from the squarefree
    decomposition, and gcd(g, h) is the product of the parts that repeat.
    Either way there is no randomness and there are no x**p powers.
    Requires monic f of degree >= 1 and p prime.

    Everything but the last step depends on f only through f mod p, so that
    mod-p work (r, or g*h and the repeated parts) is memoized per (f mod p, p)
    in an LRU cache of _DEDEKIND_CACHE_SIZE = 2048 entries.  Every call then
    finishes mod p**2 on its own coefficients: p**2 | f(r), or
    gcd(F mod p, repeated parts).  The checks on f and p < 2 run on every
    call, before the lookup; p's primality is tested only on a miss.
    """
    if not f.is_monic:
        raise ValueError("Dedekind criterion requires a monic polynomial")
    if f.degree < 1:
        raise ValueError("degree must be at least 1")
    if p < 2:
        raise ValueError(f"{p} is not prime")
    coeffs = f.coeffs
    # Keys are built from lists: tuple() of a generator allocates 10 slots and
    # shrinks in place, so each cached key would hold a larger block, and the
    # discarded ones pile up in CPython's per-length tuple free lists.
    work = _dedekind_mod_p(tuple([c % p for c in coeffs]), p)
    if work is None:
        return False
    if type(work) is int:
        # The lifts of g and h both vanish at the double root r mod p, so
        # p*F(r) = f(r) mod p**2, and gcd(F, g, h) is nontrivial exactly when
        # p**2 | f(r).
        pp, v = p * p, 0
        for c in reversed(coeffs):
            v = (v * work + c) % pp
        return not v
    gh, repeated = work
    F = []
    for c, d in zip(coeffs, gh):
        q, r = divmod(c - d, p)
        if r:
            raise ArithmeticError("f - g*h is not divisible by p: broken radical")
        F.append(q % p)
    # F = 0 mod p leaves repeated, a factor of positive degree.
    return len(_fp_gcd(_fp_trim(F), repeated, p)) > 1


# About 150 bytes per entry for degree 3-10 keys; see the module docstring.
_DEDEKIND_CACHE_SIZE = 2048


@lru_cache(maxsize=_DEDEKIND_CACHE_SIZE)
def _dedekind_mod_p(
    key: tuple[int, ...], p: int
) -> int | tuple[tuple[int, ...], tuple[int, ...]] | None:
    """The mod-p part of Dedekind's criterion for the monic f with
    f = key mod p: None when f mod p is squarefree (p never divides the index),
    the root r when gcd(f, f') = x - r, and otherwise (g*h over Z, the product
    of the parts that repeat).  Raises ValueError for a composite p, so no
    entry is ever stored for one."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    fbar = list(key)
    n = len(fbar) - 1
    if n % p:
        # n*f - x*f' = sum over i < n of (n - i)*c_i*x^i is n*f less a multiple
        # of f', and n is a unit mod p: one pass over the coefficients stands
        # in for the first division of Euclid's run on (f, f').
        t = _fp_trim([(n - i) * c % p for i, c in enumerate(fbar[:n])])
        h = _fp_gcd(_fp_deriv(fbar, p), t, p)
    else:
        h = _fp_gcd(fbar, _fp_deriv(fbar, p), p)  # fbar itself when f' = 0
    if len(h) == 1:
        return None
    if len(h) == 2:
        # An irreducible factor of multiplicity m adds its degree times m - 1
        # to gcd(f, f'), or times m when p | m.  So a linear gcd x - r means
        # f = (x - r)^2 * s mod p with s squarefree and prime to x - r, and
        # p odd.
        return -h[0] % p
    g = [1]
    # gcd(g, h) is the product of the parts that repeat: the parts are
    # squarefree, monic and pairwise coprime, and h is the product of each
    # part to its multiplicity minus one.
    repeated = [1]
    for part, mult in _fp_sqf_list(fbar, p, h):
        g = _fp_mul(g, part, p)
        if mult > 1:
            repeated = _fp_mul(repeated, part, p)
    h = _fp_quo(fbar, g, p)
    # g*h over Z (g and h are monic with h = f/g mod p, so g*h has the degree
    # of f).
    gh = [0] * len(fbar)
    for i, a in enumerate(g):
        if a:
            for j, b in enumerate(h, i):
                gh[j] += a * b
    return tuple(gh), tuple(repeated)


# About 310 bytes per entry for degree 3-10 reductions; see the module docstring.
_PATTERN_CACHE_SIZE = 4096


@lru_cache(maxsize=_PATTERN_CACHE_SIZE)
def _degree_pattern(fbar: tuple[int, ...], p: int) -> tuple[int, ...]:
    """Degree pattern of the monic fbar mod p.  Raises ValueError for a
    composite p, so no entry is ever stored for one."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    pattern: list[int] = []
    for part, mult in _fp_sqf_list(list(fbar), p):
        for stratum, d in _fp_ddf(part, p):
            pattern += [d] * ((len(stratum) - 1) // d * mult)
    return tuple(sorted(pattern))


def degree_pattern_mod_p(f: ZPoly, p: int) -> list[int]:
    """Sorted degrees of the irreducible factors of f mod p, with multiplicity,
    from the squarefree and distinct-degree stages alone: a stratum of degree k
    and factor degree d holds k/d factors.  [deg f] iff f is irreducible mod p.
    Requires p prime and p not dividing lc(f), as factor_mod_p does.  The
    lookup is on (monic reduction, p).  When f mod p is already monic, as it
    is for monic f, the reduction is the key and p's primality is tested
    only on a miss; otherwise _monic_reduction checks p and lc(f) first."""
    if p < 2:
        raise ValueError(f"{p} is not prime")
    fbar = [c % p for c in f.coeffs]
    if not fbar or fbar[-1] != 1:
        fbar = _monic_reduction(f, p)[1]
    return list(_degree_pattern(tuple(fbar), p))
