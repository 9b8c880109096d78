"""Exact integer arithmetic: primality, factorization, valuations, squarefreeness.

Everything runs on Python's native arbitrary-precision ints.  Factorization is
one pass: trial division up to a configurable bound, then Brent-cycle Pollard
rho on whatever composite survives.  Trial division takes the primes in blocks
of _BLOCK_SIZE and the blocks in spans that double in length (block 0, then
blocks [1, 2), [2, 4), [4, 8), ..., at most _MAX_SPAN_BLOCKS each), and takes
one gcd with each span's product (Bernstein's batch trial division).  A gcd of
1 skips the whole span; a gcd below the span's smallest prime squared is one
prime; only a gcd with several primes is split block by block.  So a number
with no prime below the bound costs at most nine C-level gcds at the default
bound rather than one per block of primes or one Python-level remainder per
prime.  The chain of gcds that strips a span's primes from the number also
gives their exponents, so no prime up to the bound is divided into the number
again.  The primes and block products are built on first use and cached per
bound, and each span product when a walk first reaches its span, so a process
that factors only small numbers never builds the large ones.  A composite that
is a perfect power r**k goes on as r, since rho cannot split the power of a
large prime.  Below 3.3e24, Miller-Rabin runs only as many of the bases 2, 3,
5, ..., 41 as the published bounds psi_k need for the input's size.  A
factorization may be partial: the unfactored part is carried in a
``cofactor`` field (1 when complete) so callers can degrade gracefully
instead of failing.

Pollard rho draws from a generator seeded by the configured rng_seed and the
input, and Miller-Rabin above 3.3e24 draws its bases from one seeded by
DEFAULT_SEED and the input, so results do not depend on call order.  The input
enters a seed in decimal below 10**4300 and in hex above, so that keys never
meet Python's default limit on int-to-str conversion.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from itertools import compress

DEFAULT_SEED = 1729

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# _MR_PSI[k - 1] is psi_k (OEIS A014233), the least odd composite that none of
# the first k bases of _MR_BASES witnesses, so those k bases decide every n
# below it (Jaeschke 1993; Sorenson & Webster 2017 for psi_12 and psi_13).
# Equal entries are equal psi_k: 3825123056546413051 passes bases 2 to 31.
_MR_PSI = (
    2_047,
    1_373_653,
    25_326_001,
    3_215_031_751,
    2_152_302_898_747,
    3_474_749_660_383,
    341_550_071_728_321,
    341_550_071_728_321,
    3_825_123_056_546_413_051,
    3_825_123_056_546_413_051,
    3_825_123_056_546_413_051,
    318_665_857_834_031_151_167_461,
    3_317_044_064_679_887_385_961_981,
)
# Below this, is_prime is deterministic.
DETERMINISTIC_PRIME_BOUND = _MR_PSI[-1]

# Above the deterministic bound, number of random Miller-Rabin rounds.
# Error probability is at most 4**-64 = 2**-128.
_MR_ROUNDS = 64

# Below this, factor_integer ignores the rho iteration budget: trial division
# plus Brent rho always terminates quickly on 64-bit inputs.
FULL_FACTOR_BOUND = 1 << 64

# Largest accepted trial_division_bound.  The sieve takes bound + 1 bytes and
# the prime table holds every prime up to the bound (664,579 at the cap, about
# 36 MB at peak), so an unbounded value could ask for gigabytes.  At the cap the
# sieve takes about 0.5 s, the block products 2.1 MB and 0.08 s, and the span
# products, once a walk has reached them all, another 1.9 MB and 0.5 s; the
# peak stays the sieve's.
MAX_TRIAL_DIVISION_BOUND = 10**7

# Trial division splits a span's gcd with the products of blocks of this many
# primes.
_BLOCK_SIZE = 64

# Spans of blocks double in length up to this many blocks and then stay there,
# which keeps each span product near 100,000 bits: at the largest bound, spans
# that doubled to the end would take about nine times as long to build.
_MAX_SPAN_BLOCKS = 64

# The block at which _trial_divide tests a large leftover for primality.  At
# the default bound the spans from block 16 on hold 132,235 of the 143,819 bits
# of the span products.  The p99 of search_pc item time (40,000 items each of
# seeds 5 and 41, each item run under every choice in turn; 2-vCPU x86_64,
# CPython 3.11) read 257 / 327 us with no early test, and 240 / 306, 230 / 276,
# 222 / 256, 204 / 245 and 203 / 246 us at blocks 1, 4, 8, 16 and 32; total
# time was lowest at 16.  An earlier test more often meets
# a leftover that a later span still splits, whose rest is then tested again.
_EARLY_PRIME_TEST_BLOCK = 16

# Inputs below this go into RNG seeds in decimal, which str() renders under
# Python's default limit of 4300 digits; larger inputs go in hex.
_DECIMAL_KEY_LIMIT = 10**4300


@dataclass(frozen=True)
class EffortConfig:
    """Resource bounds for factorization-grade work."""

    trial_division_bound: int = 100_000
    rho_iteration_budget: int = 1_000_000
    rng_seed: int = DEFAULT_SEED

    def __post_init__(self) -> None:
        if self.trial_division_bound < 2:
            raise ValueError("trial_division_bound must be at least 2")
        if self.trial_division_bound > MAX_TRIAL_DIVISION_BOUND:
            raise ValueError(
                f"trial_division_bound must be at most {MAX_TRIAL_DIVISION_BOUND}"
            )
        if self.rho_iteration_budget < 0:
            raise ValueError("rho_iteration_budget must be nonnegative")


DEFAULT_EFFORT = EffortConfig()


@lru_cache(maxsize=8)
def primes_up_to(bound: int) -> tuple[int, ...]:
    """All primes <= bound, by sieve of Eratosthenes."""
    if bound < 2:
        return ()
    sieve = bytearray([1]) * (bound + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, math.isqrt(bound) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, bound + 1, p)))
    return tuple(compress(range(bound + 1), sieve))


def _pairwise_product(xs: tuple[int, ...]) -> int:
    """Product of xs, multiplied pairwise so the factors stay balanced."""
    while len(xs) > 1:
        xs = tuple(math.prod(xs[i : i + 2]) for i in range(0, len(xs), 2))
    return xs[0]


@lru_cache(maxsize=8)
def _trial_division_table(bound: int) -> tuple[tuple[int, ...], tuple[int, ...], list[list]]:
    """(primes, blocks, spans) for primes = primes_up_to(bound).  blocks[b] is
    the product of primes[b * _BLOCK_SIZE : (b + 1) * _BLOCK_SIZE].  spans are
    [first, stop, p * p, product of blocks[first:stop]], with p the span's
    smallest prime, and tile the blocks: block 0 alone, then blocks
    [2**j, 2**(j+1)) until a span would exceed _MAX_SPAN_BLOCKS, then runs of
    _MAX_SPAN_BLOCKS; the last span is cut at the end of the table.  A span's
    product is None until _trial_divide first reaches the span."""
    primes = primes_up_to(bound)
    blocks = tuple(
        math.prod(primes[i : i + _BLOCK_SIZE]) for i in range(0, len(primes), _BLOCK_SIZE)
    )
    spans = []
    first = 0
    while first < len(blocks):
        stop = min(2 * first or 1, first + _MAX_SPAN_BLOCKS, len(blocks))
        least = primes[first * _BLOCK_SIZE]
        spans.append([first, stop, least * least, None])
        first = stop
    return primes, blocks, spans


def _trial_divide(rest: int, bound: int, factors: list[tuple[int, int]]) -> int:
    """Append to factors, in increasing order, (p, e) for every prime p up to
    bound with p**e exactly dividing rest, and return rest without them.
    Stops before the first span whose smallest prime squared exceeds what is
    left, which is then 1 or a prime.

    On reaching the span that starts at block _EARLY_PRIME_TEST_BLOCK with
    bound**2 <= rest < FULL_FACTOR_BOUND, tests rest for primality: a prime
    rest is appended as (rest, 1) and the walk returns 1, since no prime up to
    bound divides it, which skips the largest spans.  A composite rest walks
    on."""
    primes, blocks, spans = _trial_division_table(bound)
    for span in spans:
        first, stop, least_square, product = span
        if least_square > rest:
            break
        # One int comparison per span costs less than splitting the loop
        # there, which takes a call or a second copy of the loop body.
        if first == _EARLY_PRIME_TEST_BLOCK and bound * bound <= rest < FULL_FACTOR_BOUND:
            if is_prime(rest):  # deterministic below FULL_FACTOR_BOUND
                factors.append((rest, 1))
                return 1
        if product is None:
            product = span[3] = _pairwise_product(blocks[first:stop])
        # g is the squarefree product of the span's primes that divide rest.
        g = math.gcd(rest, product)
        if g == 1:
            continue
        # Strip every prime of g, with multiplicity, from rest.  Each q after
        # g is the product of g's primes that still divide rest, so a prime's
        # exponent is 1 plus the number of leading qs in chain that it divides.
        rest //= g
        q = math.gcd(rest, g)
        chain = []
        while q > 1:
            chain.append(q)
            rest //= q
            q = math.gcd(rest, q)
        if g < least_square:
            factors.append((g, len(chain) + 1))  # two primes of the span multiply to more
            continue
        # Find g's primes block by block, until none is left.
        split = []
        for b in range(first, stop):
            gb = g if stop == first + 1 else math.gcd(g, blocks[b])
            if gb == 1:
                continue
            g //= gb
            # gb is a squarefree product of block primes; once p * p > gb,
            # what is left of gb has no prime below p and so is 1 or a prime.
            start = b * _BLOCK_SIZE
            for p in primes[start : start + _BLOCK_SIZE]:
                if p * p > gb:
                    break
                if gb % p == 0:
                    split.append(p)
                    gb //= p
            if gb > 1:
                split.append(gb)
            if g == 1:
                break
        for p in split:
            e = 1
            for q in chain:
                if q % p:
                    break
                e += 1
            factors.append((p, e))
    return rest


def _key(n: int) -> str:
    return str(n) if n < _DECIMAL_KEY_LIMIT else f"x{n:x}"


def _mr_composite_witness(n: int, a: int, d: int, s: int) -> bool:
    """True if a witnesses that odd n > 2 is composite (n - 1 = d * 2**s)."""
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return False
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return False
    return True


def is_prime(m: int) -> bool:
    """True iff |m| is prime.

    Below 43**2 = 1849, trial division by the primes of _MR_BASES decides
    alone.  Below DETERMINISTIC_PRIME_BOUND = psi_13 it is deterministic: it
    runs Miller-Rabin to the first k bases of _MR_BASES for the least k with
    |m| < psi_k (_MR_PSI), so 5 rounds near 10**12 and 12 near 2**64.  Above
    it, runs _MR_ROUNDS rounds with bases from a generator seeded by
    (DEFAULT_SEED, m); the error probability is at most 2**-128.
    """
    n = abs(m)
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    if n < 43 * 43:
        return True  # no prime factor <= 41, and 43 is the next prime
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    # The first k bases decide n < psi_k, for the least such k.
    k = bisect_right(_MR_PSI, n) + 1
    if k <= len(_MR_BASES):
        return not any(_mr_composite_witness(n, a, d, s) for a in _MR_BASES[:k])
    rng = random.Random(f"is_prime:{DEFAULT_SEED}:{_key(n)}")
    return not any(
        _mr_composite_witness(n, rng.randrange(2, n - 1), d, s)
        for _ in range(_MR_ROUNDS)
    )


def _brent_rho(n: int, rng: random.Random, budget: list[int], unlimited: bool) -> int | None:
    """Nontrivial factor of odd composite n, or None once the budget is spent."""
    while unlimited or budget[0] > 0:
        y = rng.randrange(1, n)
        c = rng.randrange(1, n)
        m = 128
        g = r = q = 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = math.gcd(q, n)
                k += m
            budget[0] -= 2 * r
            r <<= 1
            if not unlimited and budget[0] <= 0 and g == 1:
                return None
        if g == n:
            # The gcd batch overshot; retreat one step at a time.
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(x - ys, n)
        if g < n:
            return g
        # g == n: the cycle collapsed, retry with a fresh constant.
    return None


def _iroot(x: int, k: int) -> int:
    """floor(x ** (1/k)) for x >= 1, k >= 2, by Newton's method from above."""
    r = 1 << -(-x.bit_length() // k)
    while True:
        s = ((k - 1) * r + x // r ** (k - 1)) // k
        if s >= r:
            return r
        r = s


def _perfect_power_root(x: int, bound: int) -> int | None:
    """r with x == r**k for the smallest k >= 2 that works, or None.  That k is
    prime: x == s**(q*m) with q prime is already a q-th power.  Every prime of
    x exceeds bound, so r > bound and only
    k <= x.bit_length() // (bound.bit_length() - 1) can occur."""
    for k in range(2, x.bit_length() // (bound.bit_length() - 1) + 1):
        r = _iroot(x, k)
        if r**k == x:
            return r
    return None


@dataclass(frozen=True)
class IntFactorization:
    """Signed factorization with an explicit unfactored cofactor.

    value == sign * prod(p**e) * cofactor.  The listed primes are pairwise
    distinct.  Those below DETERMINISTIC_PRIME_BOUND (psi_13, about 3.3e24)
    are proven prime; those above it are probable primes, which passed
    _MR_ROUNDS = 64 seeded Miller-Rabin rounds (error at most 2**-128).  The
    cofactor (if > 1) is coprime to all of them and carries no prime below the
    trial division bound used.
    Construction checks, in this order: sign is +1 or -1, cofactor >= 1, the
    primes strictly increase, and every entry has p >= 2 and e >= 1.  It
    tests neither primality nor coprimality, which factor_integer ensures.
    """

    sign: int
    factors: tuple[tuple[int, int], ...]
    cofactor: int = 1

    def __post_init__(self) -> None:
        if self.sign not in (-1, 1):
            raise ValueError("sign must be +1 or -1")
        if self.cofactor < 1:
            raise ValueError("cofactor must be positive")
        # One pass that allocates nothing; every entry is read before either
        # message is chosen, and the order message takes precedence.
        increasing = in_range = True
        prev = None
        for p, e in self.factors:
            if prev is not None and p <= prev:
                increasing = False
            if p < 2 or e < 1:
                in_range = False
            prev = p
        if not increasing:
            raise ValueError("factors must be sorted by distinct prime")
        if not in_range:
            raise ValueError("factors must have prime >= 2 and exponent >= 1")

    @property
    def is_complete(self) -> bool:
        return self.cofactor == 1

    @property
    def value(self) -> int:
        v = self.sign * self.cofactor
        for p, e in self.factors:
            v *= p**e
        return v

    def to_dict(self) -> dict:
        return {
            "sign": self.sign,
            "factors": [[p, e] for p, e in self.factors],
            "cofactor": self.cofactor,
        }


def factor_integer(m: int, effort: EffortConfig = DEFAULT_EFFORT) -> IntFactorization:
    """Factor m != 0 within the given effort bounds, in one pass.

    Trial division walks the spans of _trial_division_table.  It stops before
    the first span whose smallest prime squared exceeds what is left, skips a
    span whose product is coprime to it, and otherwise strips the primes of
    that gcd and finds them, block by block unless the gcd is a single prime.
    This finds the same primes as one remainder per prime would, so the
    result does not depend on the spans, and each prime's exponent is read off
    the gcds that stripped it.  A leftover of 1 ends the call and one below
    the bound squared is a prime.  A composite leftover above the bound
    squared goes to Brent rho, except that a perfect power r**k (k prime) is
    replaced by r first; the primes found there take their exponents from the
    leftover.

    Complete (cofactor == 1) whenever |m| < FULL_FACTOR_BOUND; beyond that the
    rho iteration budget applies and a composite cofactor may remain.
    """
    if m == 0:
        raise ValueError("cannot factor 0")
    sign = -1 if m < 0 else 1
    n = abs(m)
    bound = effort.trial_division_bound
    factors: list[tuple[int, int]] = []
    rest = _trial_divide(n, bound, factors)
    # rest has no prime up to the bound, or is below the next prime squared:
    # either way a piece below the bound squared is prime.
    if rest < bound * bound:
        if rest > 1:
            factors.append((rest, 1))
        return IntFactorization(sign=sign, factors=tuple(factors))
    found: set[int] = set()
    rng = None
    budget = [effort.rho_iteration_budget]
    stack = [rest]
    while stack:
        x = stack.pop()
        if x < bound * bound or is_prime(x):
            found.add(x)
            continue
        root = _perfect_power_root(x, bound)
        if root is not None:
            stack.append(root)
            continue
        if rng is None:
            rng = random.Random(f"rho:{effort.rng_seed}:{_key(n)}")
        d = _brent_rho(x, rng, budget, unlimited=x < FULL_FACTOR_BOUND)
        if d is not None:
            stack.extend((d, x // d))
    # Every prime found here exceeds the bound, and so every prime trial
    # division listed, so appending them sorted keeps factors sorted.  Rho may
    # split a piece into parts that share primes, so take the exponents from
    # the leftover itself: what rho could not split stays in the cofactor,
    # coprime to every listed prime.
    for p in sorted(found):
        e, rest = p_valuation(rest, p)
        factors.append((p, e))
    return IntFactorization(sign=sign, factors=tuple(factors), cofactor=rest)


def p_valuation(m: int, p: int) -> tuple[int, int]:
    """(e, u) with m = p**e * u and p not dividing u.  Requires m != 0, p >= 2."""
    if m == 0:
        raise ValueError("valuation of 0 is undefined")
    if p < 2:
        raise ValueError("p must be at least 2")
    e = 0
    while m % p == 0:
        m //= p
        e += 1
    return e, m


@dataclass(frozen=True)
class SquarefreeStatus:
    """Tri-state squarefreeness verdict with a witness prime when refuted."""

    status: str  # "squarefree" | "not_squarefree" | "unknown"
    witness: int | None = None

    @property
    def is_squarefree(self) -> bool:
        return self.status == "squarefree"


def squarefree_status(m: int, effort: EffortConfig = DEFAULT_EFFORT) -> SquarefreeStatus:
    """Decide whether |m| is squarefree, allowing Unknown on factoring failure."""
    if m == 0:
        raise ValueError("0 is not squarefree and has no witness prime")
    fac = factor_integer(m, effort)
    for p, e in fac.factors:
        if e >= 2:
            return SquarefreeStatus("not_squarefree", p)
    return SquarefreeStatus("squarefree" if fac.is_complete else "unknown")
