"""Exact integer arithmetic: primality, factorization, valuations, squarefreeness.

Everything runs on Python's native arbitrary-precision ints.  Factorization is
trial division up to a configurable bound followed by Brent-cycle Pollard rho
on whatever composite survives.  Trial division takes the primes in blocks of
_BLOCK_SIZE and asks one gcd with each block's product (Bernstein's batch trial
division), so a block that shares no prime with the number costs one C-level
gcd rather than a Python-level remainder per prime.  The primes and the block
products are built on first use and cached per bound.  A factorization may be
partial: the unfactored part is carried in a ``cofactor`` field (1 when
complete) so callers can degrade gracefully instead of failing.

All randomized routines draw from a generator seeded from the configured seed
and the input, so results are reproducible regardless of call order.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import lru_cache
from itertools import compress

DEFAULT_SEED = 1729

# The witness set (2, 3, ..., 41) is known to be exhaustive for Miller-Rabin
# below this bound (Sorenson & Webster), so is_prime is deterministic there.
DETERMINISTIC_PRIME_BOUND = 3_317_044_064_679_887_385_961_981

# Above the deterministic bound, number of random Miller-Rabin rounds.
# Error probability is at most 4**-64 = 2**-128.
_MR_ROUNDS = 64

# Below this, factor_integer ignores the rho iteration budget: trial division
# plus Brent rho always terminates quickly on 64-bit inputs.
FULL_FACTOR_BOUND = 1 << 64

# Tiered deterministic Miller-Rabin witness sets (threshold, bases).
_MR_TIERS = (
    (2_047, (2,)),
    (1_373_653, (2, 3)),
    (25_326_001, (2, 3, 5)),
    (3_215_031_751, (2, 3, 5, 7)),
    (3_474_749_660_383, (2, 3, 5, 7, 11, 13)),
    (341_550_071_728_321, (2, 3, 5, 7, 11, 13, 17)),
    (3_825_123_056_546_413_051, (2, 3, 5, 7, 11, 13, 17, 19, 23)),
    (318_665_857_834_031_151_167_461, (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)),
    (DETERMINISTIC_PRIME_BOUND, (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)),
)

# Largest accepted trial_division_bound.  The sieve takes bound + 1 bytes and
# the prime table holds every prime up to the bound (664,579 at the cap, about
# 36 MB at peak), so an unbounded value could ask for gigabytes.
MAX_TRIAL_DIVISION_BOUND = 10**7

# Trial division takes one gcd with the product of this many primes at a time.
_BLOCK_SIZE = 64

_SCREEN_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)
_SCREEN_PRIMORIAL = math.prod(_SCREEN_PRIMES)


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


@lru_cache(maxsize=8)
def _block_products(bound: int) -> tuple[int, ...]:
    """Products of primes_up_to(bound)[i : i + _BLOCK_SIZE], i = 0, _BLOCK_SIZE, ..."""
    primes = primes_up_to(bound)
    return tuple(
        math.prod(primes[i : i + _BLOCK_SIZE]) for i in range(0, len(primes), _BLOCK_SIZE)
    )


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


def is_prime(m: int, *, seed: int = DEFAULT_SEED) -> bool:
    """True iff |m| is prime.

    Deterministic below DETERMINISTIC_PRIME_BOUND.  Above it, runs _MR_ROUNDS
    Miller-Rabin rounds with bases from a generator seeded by (seed, m); the
    error probability is at most 2**-128.
    """
    n = abs(m)
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    g = math.gcd(n, _SCREEN_PRIMORIAL)
    if g > 1:
        return n <= 53 and n in _SCREEN_PRIMES
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for threshold, bases in _MR_TIERS:
        if n < threshold:
            return not any(_mr_composite_witness(n, a, d, s) for a in bases)
    rng = random.Random(f"is_prime:{seed}:{n}")
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
                    q = q * abs(x - y) % n
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
                g = math.gcd(abs(x - ys), n)
        if g < n:
            return g
        # g == n: the cycle collapsed, retry with a fresh constant.
    return None


@dataclass(frozen=True)
class IntFactorization:
    """Signed factorization with an explicit unfactored cofactor.

    value == sign * prod(p**e) * cofactor.  The listed primes are certified
    prime and pairwise distinct; the cofactor (if > 1) is coprime to all of
    them and carries no prime below the trial division bound used.
    """

    sign: int
    factors: tuple[tuple[int, int], ...]
    cofactor: int = 1

    def __post_init__(self) -> None:
        if self.sign not in (-1, 1):
            raise ValueError("sign must be +1 or -1")
        if self.cofactor < 1:
            raise ValueError("cofactor must be positive")
        ps = [p for p, _ in self.factors]
        if ps != sorted(ps) or len(ps) != len(set(ps)):
            raise ValueError("factors must be sorted by distinct prime")
        if any(p < 2 or e < 1 for p, e in self.factors):
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
    """Factor m != 0 within the given effort bounds.

    Trial division walks the primes up to the bound in blocks, with the block
    products cached per bound by _block_products.  It stops at the first block
    whose smallest prime squared exceeds what is left, skips a block whose
    product is coprime to it, and otherwise strips the primes of that gcd.
    This finds the same primes as one remainder per prime would.  A composite
    cofactor above the bound squared goes to Brent rho.

    Complete (cofactor == 1) whenever |m| < FULL_FACTOR_BOUND; beyond that the
    rho iteration budget applies and a composite cofactor may remain.
    """
    if m == 0:
        raise ValueError("cannot factor 0")
    sign = -1 if m < 0 else 1
    n = abs(m)
    found: set[int] = set()
    rest = n
    primes = primes_up_to(effort.trial_division_bound)
    starts = range(0, len(primes), _BLOCK_SIZE)
    for start, product in zip(starts, _block_products(effort.trial_division_bound)):
        if primes[start] * primes[start] > rest:
            break
        g = math.gcd(rest, product)
        if g == 1:
            continue
        # Strip every prime of g, with multiplicity, from rest.
        q = g
        while q > 1:
            rest //= q
            q = math.gcd(rest, q)
        # g is a squarefree product of block primes; once p * p > g, what is
        # left of g has no prime below p and so is 1 or a prime.
        for p in primes[start : start + _BLOCK_SIZE]:
            if p * p > g:
                break
            if g % p == 0:
                found.add(p)
                g //= p
        if g > 1:
            found.add(g)
    if rest > 1:
        if rest < effort.trial_division_bound**2 or is_prime(rest, seed=effort.rng_seed):
            found.add(rest)
        else:
            rng = random.Random(f"rho:{effort.rng_seed}:{n}")
            budget = [effort.rho_iteration_budget]
            stack = [rest]
            while stack:
                x = stack.pop()
                if is_prime(x, seed=effort.rng_seed):
                    found.add(x)
                    continue
                d = _brent_rho(x, rng, budget, unlimited=x < FULL_FACTOR_BOUND)
                if d is not None:
                    stack.extend((d, x // d))
    # Recompute exponents from n itself: what rho could not split is left in
    # the cofactor, which stays coprime to every listed prime even when rho
    # produced overlapping composite splits.
    factors = []
    rest = n
    for p in sorted(found):
        e = 0
        while rest % p == 0:
            e += 1
            rest //= p
        if e:
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

    def to_dict(self) -> dict:
        out: dict = {"status": self.status}
        if self.witness is not None:
            out["witness"] = self.witness
        return out


def squarefree_status(m: int, effort: EffortConfig = DEFAULT_EFFORT) -> SquarefreeStatus:
    """Decide whether |m| is squarefree, allowing Unknown on factoring failure."""
    if m == 0:
        raise ValueError("0 is not squarefree and has no witness prime")
    fac = factor_integer(m, effort)
    for p, e in fac.factors:
        if e >= 2:
            return SquarefreeStatus("not_squarefree", p)
    if fac.cofactor == 1:
        return SquarefreeStatus("squarefree")
    root = math.isqrt(fac.cofactor)
    if root * root == fac.cofactor:
        # Any prime of the square root is a witness; even a partial split works.
        sub = factor_integer(root, effort)
        if sub.factors:
            return SquarefreeStatus("not_squarefree", sub.factors[0][0])
        if is_prime(root, seed=effort.rng_seed):
            return SquarefreeStatus("not_squarefree", root)
    return SquarefreeStatus("unknown")
