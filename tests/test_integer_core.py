"""Integer toolkit: primality, factorization, valuations, squarefreeness."""

import itertools
import math
import random
import sys

import pytest
from hypothesis import given, strategies as st

from helpers import (
    int_digit_limit,
    naive_factor,
    naive_is_prime,
    strong_probable_prime,
    thirteen_base_is_prime,
)
from monobase import (
    EffortConfig,
    IntFactorization,
    QuadrinomialSpec,
    SquarefreeStatus,
    factor_integer,
    is_prime,
    p_valuation,
    quadrinomial_discriminant,
    squarefree_status,
)
from monobase import integer_core
from monobase.integer_core import (
    _BLOCK_SIZE,
    _EARLY_PRIME_TEST_BLOCK,
    _MR_BASES,
    _MR_PSI,
    DEFAULT_EFFORT,
    DETERMINISTIC_PRIME_BOUND,
    FULL_FACTOR_BOUND,
    MAX_TRIAL_DIVISION_BOUND,
    _MAX_SPAN_BLOCKS,
    _brent_rho,
    _trial_division_table,
    primes_up_to,
)


def test_primes_up_to_small():
    assert primes_up_to(1) == ()
    assert primes_up_to(2) == (2,)
    assert primes_up_to(30) == (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)


def test_is_prime_matches_naive_below_20000():
    for n in range(-100, 20000):
        assert is_prime(n) == naive_is_prime(abs(n)), n
    # Trial division by 2..41 decides alone below 43^2.
    assert is_prime(1847) and is_prime(-1847)
    assert not is_prime(1849) and not is_prime(43 * 47)


def test_is_prime_strong_pseudoprimes_rejected():
    # Smallest composites passing Miller-Rabin for initial witness prefixes.
    for n in (2047, 1373653, 25326001, 3215031751, 3474749660383,
              341550071728321, 3825123056546413051, 318665857834031151167461):
        assert not is_prime(n), n
    # psi_5 and psi_13 (Sorenson & Webster); psi_13 is DETERMINISTIC_PRIME_BOUND,
    # so it takes the seeded random rounds.
    for n in (2_152_302_898_747, 3_317_044_064_679_887_385_961_981):
        assert not is_prime(n), n
    for n in (561, 41041, 825265, 321197185):  # Carmichael numbers
        assert not is_prime(n), n


# A prime factor of each psi_k, which shows it composite without is_prime.
PSI_FACTORS = (23, 829, 2251, 151, 6763, 1303, 10670053, 10670053,
               149491, 149491, 149491, 399165290221, 1287836182261)
PRIMORIAL_41 = math.prod(_MR_BASES)


def test_each_psi_passes_its_first_k_bases_and_no_more():
    assert len(_MR_PSI) == len(_MR_BASES) == len(PSI_FACTORS)
    assert list(_MR_PSI) == sorted(_MR_PSI) and DETERMINISTIC_PRIME_BOUND == _MR_PSI[-1]
    for k, (psi, q) in enumerate(zip(_MR_PSI, PSI_FACTORS), 1):
        assert psi % q == 0 and 1 < q < psi, k
        assert all(strong_probable_prime(psi, a) for a in _MR_BASES[:k]), k
        # psi_(k+1) > psi_k only if base k + 1 witnesses psi_k.
        if k < len(_MR_PSI) and _MR_PSI[k] > psi:
            assert not strong_probable_prime(psi, _MR_BASES[k]), k
        assert not is_prime(psi) and not is_prime(-psi), k


def test_miller_rabin_runs_the_first_k_bases_below_psi_k(monkeypatch):
    bases = []
    original = integer_core._mr_composite_witness

    def counting(n, a, d, s):
        bases.append(a)
        return original(n, a, d, s)

    monkeypatch.setattr(integer_core, "_mr_composite_witness", counting)
    # psi_4 < 10**12 + 39 < psi_5; all 13 bases ran here before.
    assert is_prime(10**12 + 39)
    assert bases == [2, 3, 5, 7, 11]
    # The largest prime below psi_k passes every base it is given, which are
    # the first k for the least k with that psi_k.
    for psi in sorted(set(_MR_PSI)):
        q = next(x for x in range(psi - 2, 0, -2) if thirteen_base_is_prime(x))
        bases.clear()
        assert is_prime(q)
        assert bases == list(_MR_BASES[: _MR_PSI.index(psi) + 1]), psi


def test_base_two_strong_pseudoprimes_below_1400000_are_rejected():
    # The odd composites below the limit with no prime factor up to 41 (so
    # that trial division does not decide them) that base 2 does not witness;
    # psi_2 = 1373653 is one of them.
    limit = 1_400_000
    rough = bytearray([1]) * limit  # no prime factor up to 41
    composite = bytearray(limit)
    for p in range(2, math.isqrt(limit) + 1):
        if not composite[p]:
            composite[p * p :: p] = bytes([1]) * len(range(p * p, limit, p))
            if p <= 41:
                rough[p::p] = bytes(len(range(p, limit, p)))
    pseudoprimes = [
        n for n in range(43, limit, 2)
        if rough[n] and composite[n] and strong_probable_prime(n, 2)
    ]
    assert _MR_PSI[1] in pseudoprimes and len(pseudoprimes) > 10
    for n in pseudoprimes:
        assert not is_prime(n), n


def test_is_prime_matches_the_thirteen_base_reference_in_every_tier():
    rng = random.Random(21)
    lows = (43 * 43,) + _MR_PSI[:-1]
    for low, high in zip(lows, _MR_PSI):
        if low == high:
            continue
        for i in range(200):
            if i % 2:  # a product of two factors near the square root
                r = math.isqrt(high)
                n = rng.randrange(math.isqrt(low), r) * rng.randrange(r // 2, r)
            else:
                n = rng.randrange(low, high)
            while math.gcd(n, PRIMORIAL_41) != 1:
                n += 1
            assert is_prime(n) == thirteen_base_is_prime(n), n


def test_is_prime_large_known_values():
    assert is_prime(2**61 - 1)
    assert is_prime(2**89 - 1)
    assert is_prime(2**127 - 1)  # above the deterministic bound
    assert not is_prime(2**67 - 1)  # 193707721 * 761838257287
    assert not is_prime((2**61 - 1) * (2**89 - 1))


def test_factor_integer_matches_naive():
    rng = random.Random(2024)
    for _ in range(300):
        m = rng.randint(2, 10**6) * rng.choice((1, -1))
        fac = factor_integer(m)
        assert fac.is_complete
        assert fac.value == m
        assert list(fac.factors) == naive_factor(abs(m))


def test_factor_integer_large_semiprime():
    p, q = 1000003, 1000033
    fac = factor_integer(p * q)
    assert fac.is_complete and fac.factors == ((p, 1), (q, 1))


def test_factor_integer_complete_below_full_bound_with_zero_budget():
    effort = EffortConfig(trial_division_bound=10, rho_iteration_budget=0)
    m = 1000003**2 * 1009  # < 2**64: budget is ignored there
    assert m < FULL_FACTOR_BOUND
    fac = factor_integer(m, effort)
    assert fac.is_complete and fac.value == m


def test_factor_integer_budget_exhaustion_leaves_composite_cofactor():
    effort = EffortConfig(trial_division_bound=10, rho_iteration_budget=0)
    m = (2**89 - 1) * (2**107 - 1)  # > 2**64 and free of small primes
    fac = factor_integer(m, effort)
    assert not fac.is_complete
    assert fac.cofactor == m
    assert fac.value == m


def per_prime_factor_integer(m, effort):
    """factor_integer with one remainder per prime below the bound: the
    reference the block-gcd trial division must reproduce exactly."""
    sign = -1 if m < 0 else 1
    n = abs(m)
    found = set()
    rest = n
    for p in primes_up_to(effort.trial_division_bound):
        if p * p > rest:
            break
        if rest % p == 0:
            found.add(p)
            while rest % p == 0:
                rest //= p
    if rest > 1:
        if rest < effort.trial_division_bound**2 or is_prime(rest):
            found.add(rest)
        else:
            rng = random.Random(f"rho:{effort.rng_seed}:{n}")
            budget = [effort.rho_iteration_budget]
            stack = [rest]
            while stack:
                x = stack.pop()
                if is_prime(x):
                    found.add(x)
                    continue
                d = _brent_rho(x, rng, budget, unlimited=x < FULL_FACTOR_BOUND)
                if d is not None:
                    stack.extend((d, x // d))
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


def _block_edge_inputs(bound):
    primes = primes_up_to(bound)
    blocks = [primes[i : i + _BLOCK_SIZE] for i in range(0, len(primes), _BLOCK_SIZE)]
    spans = [
        primes[first * _BLOCK_SIZE : stop * _BLOCK_SIZE]
        for first, stop, _, _ in _trial_division_table(bound)[2]
    ]
    above = next(q for q in range(bound + 1, 2 * bound + 3) if is_prime(q))
    big = [(2**89 - 1) * (2**107 - 1), (2**61 - 1) * (2**67 - 1), 2**64 + 13]
    yield from (1, -1, -2, -30, -above, above**2, -(above**2) * 6, 2 * 3 * above**2)
    for block in blocks:
        for p in {block[0], block[-1]}:
            for k in (1, 2, 5):
                yield p**k
                yield -(p**k) * above
        yield block[0] * block[-1]  # g composite
        yield math.prod(block[:3]) ** 2 * block[-1]
        yield -block[-1] * above**2
    for span in spans:
        for p in {span[0], span[-1]}:
            yield p
            yield -(p**3) * above
        yield span[0] * span[-1] * above  # two primes of one span, blocks apart
        yield span[len(span) // 2] ** 2 * span[-1]
    for left, right in zip(spans, spans[1:]):
        yield left[-1] * right[0]
        yield -left[0] * right[-1] ** 2 * above
        yield left[-1] ** 2 * right[0] * right[-1]
    for x in big:
        yield x
        yield -x * primes[-1] ** 3
        yield x * blocks[-1][0] * blocks[0][-1] ** 2
        yield x * above
    # Leftovers in [bound**2, FULL_FACTOR_BOUND), which the early primality
    # test sees: primes, composites the later spans still split, and one
    # that they cannot split.
    least = next(q for q in itertools.count(bound**2) if is_prime(q))
    for q in (least, 10**12 + 39, 2**64 - 59):
        yield q
        yield -6 * q
        yield q * primes[-1] ** 2
    yield from (38891 * 1000003, 99991 * 1000003, 1000003 * 1000033)
    # Strip chains: the exponents trial division reads off the chain of gcds
    # that strips a span's primes, with multiplicity, from what is left.
    yield 2**200
    yield -(2**7) * 3**2 * blocks[0][-1] ** 4 * above
    for block in blocks:
        yield block[0] ** 7 * block[len(block) // 2] ** 2 * block[-1] ** 4
        yield -block[0] ** 40 * block[-1] ** 3
        yield block[0] ** 40 * block[-1] ** 3 * above
    for left, right in zip(spans, spans[1:]):
        yield left[-1] ** 40 * right[0] ** 3 * right[-1] ** 17
    # Discriminants of x**n + c*(x + 1)**2, which hold c**(n - 1).
    for c in (30, -30030, 6 * primes[-1], -blocks[0][0] * blocks[-1][-1] ** 2, 4993 * above):
        for n in (3, 8, 12):
            yield quadrinomial_discriminant(QuadrinomialSpec(n, c, 2 * c, c))
    # The square of a prime above the bound times small primes.
    yield above**2 * 2**9 * 3**4 * primes[-1]
    yield -(above**2) * math.prod(primes[:5]) ** 3
    rng = random.Random(bound)
    for _ in range(40):
        yield rng.choice((1, -1)) * math.prod(
            rng.choice(primes) ** rng.randint(1, 3) for _ in range(rng.randint(1, 6))
        ) * rng.choice((1, above, rng.randrange(1, 2**80)))


@pytest.mark.parametrize(
    "bound",
    [
        2,
        3,
        10,
        50,
        primes_up_to(1000)[_BLOCK_SIZE],  # a block of one prime at the end
        primes_up_to(1000)[2 * _BLOCK_SIZE],
        1000,  # last block partial
        primes_up_to(2000)[4 * _BLOCK_SIZE - 1],  # 4 blocks: last span full
        primes_up_to(2000)[4 * _BLOCK_SIZE],  # 5 blocks: last span one block
        primes_up_to(9000)[16 * _BLOCK_SIZE - 1],  # 16 blocks
        primes_up_to(9000)[16 * _BLOCK_SIZE],  # 17 blocks
        8193,  # 17 blocks, the last one partial
        DEFAULT_EFFORT.trial_division_bound,
        # 193 blocks: a span cut at _MAX_SPAN_BLOCKS, then one of one block
        primes_up_to(140_000)[192 * _BLOCK_SIZE],
    ],
)
@pytest.mark.parametrize("budget", [0, 2000])
def test_block_trial_division_matches_per_prime_reference(bound, budget):
    effort = EffortConfig(trial_division_bound=bound, rho_iteration_budget=budget)
    small_primes = math.prod(primes_up_to(bound))
    incomplete = 0
    for m in _block_edge_inputs(bound):
        fac = factor_integer(m, effort)
        ref = per_prime_factor_integer(m, effort)
        assert (fac.sign, fac.factors, fac.cofactor) == (ref.sign, ref.factors, ref.cofactor), m
        assert fac.value == m
        assert math.gcd(fac.cofactor, small_primes) == 1, m
        incomplete += not fac.is_complete
    if budget == 0:
        assert incomplete > 0


@pytest.mark.parametrize("bound", [2, 1000, 8193, DEFAULT_EFFORT.trial_division_bound, 140_000])
def test_trial_division_spans_double_then_stay_at_the_cap(bound):
    effort = EffortConfig(trial_division_bound=bound)
    _trial_division_table.cache_clear()
    primes, blocks, spans = _trial_division_table(bound)
    assert primes == primes_up_to(bound)
    assert blocks == tuple(
        math.prod(primes[i : i + _BLOCK_SIZE]) for i in range(0, len(primes), _BLOCK_SIZE)
    )
    assert spans[0][:2] == [0, 1] and spans[-1][1] == len(blocks)
    for (_, stop, _, _), (first, _, _, _) in zip(spans, spans[1:]):
        assert first == stop
    for first, stop, least_square, product in spans:
        assert stop - first == min(max(first, 1), _MAX_SPAN_BLOCKS, len(blocks) - first)
        assert least_square == primes[first * _BLOCK_SIZE] ** 2
        assert product is None
    # A walk that stops before the last span builds only the spans it reached.
    assert factor_integer(2 * 3 * 5, effort).factors == ((2, 1), (3, 1), (5, 1))
    assert spans[0][3] == blocks[0]
    assert all(product is None for _, _, _, product in spans[1:])
    # A prime leftover in [bound**2, FULL_FACTOR_BOUND) ends the walk at the
    # span that starts at block _EARLY_PRIME_TEST_BLOCK.
    q = next(x for x in itertools.count(bound**2) if is_prime(x))
    assert factor_integer(q, effort).factors == ((q, 1),)
    later = [span for span in spans if span[0] >= _EARLY_PRIME_TEST_BLOCK]
    if later:
        assert later[0][0] == _EARLY_PRIME_TEST_BLOCK
        assert all(product is None for _, _, _, product in later)
    # A leftover with no prime up to the bound reaches every span.
    above = next(q for q in range(bound + 1, 2 * bound + 3) if is_prime(q))
    assert factor_integer(above**2, effort).factors == ((above, 2),)
    for first, stop, _, product in spans:
        assert product == math.prod(blocks[first:stop])
    if bound == DEFAULT_EFFORT.trial_division_bound:
        assert len(blocks) == 150 and len(spans) == 9


def test_a_prime_free_run_costs_one_gcd_per_span(monkeypatch):
    # 10**12 + 39 is prime and in [bound**2, FULL_FACTOR_BOUND) at the default
    # bound, so the walk tests it on reaching block _EARLY_PRIME_TEST_BLOCK and
    # stops: one gcd for each of the five spans before it, and one to strip 6.
    # The per-block walk took 151 gcds here, and the walk over all nine spans 10.
    calls = []

    class CountingMath:
        def __getattr__(self, name):
            return getattr(math, name)

        @staticmethod
        def gcd(*args):
            calls.append(args)
            return math.gcd(*args)

    monkeypatch.setattr(integer_core, "math", CountingMath())
    fac = factor_integer(6 * (10**12 + 39))
    assert fac.factors == ((2, 1), (3, 1), (10**12 + 39, 1)) and fac.is_complete
    assert len(calls) == 6
    # A prime leftover above FULL_FACTOR_BOUND gets no early test: it takes
    # every span.
    calls.clear()
    fac = factor_integer(6 * (2**89 - 1))
    assert fac.factors == ((2, 1), (3, 1), (2**89 - 1, 1)) and fac.is_complete
    spans = _trial_division_table(DEFAULT_EFFORT.trial_division_bound)[2]
    assert len(calls) == len(spans) + 1 == 10


def test_trial_division_exponents_cost_no_valuation(monkeypatch):
    # Trial division reads each exponent off its strip chain.  Only the primes
    # above the bound that factor_integer finds in the leftover take a
    # p_valuation, and on the leftover.
    original = integer_core.p_valuation
    calls = []

    def counting(m, p):
        calls.append(p)
        return original(m, p)

    monkeypatch.setattr(integer_core, "p_valuation", counting)
    for m, factors in (
        (
            30**11 * 11**2 * 23 * 353 * 419,
            ((2, 11), (3, 11), (5, 11), (11, 2), (23, 1), (353, 1), (419, 1)),
        ),
        (2**200 * 311**40 * 313**3, ((2, 200), (311, 40), (313, 3))),
    ):
        fac = factor_integer(m)
        assert fac.factors == factors and fac.is_complete
        assert calls == []
    fac = factor_integer(6 * 1000003 * 1000033)
    assert fac.factors == ((2, 1), (3, 1), (1000003, 1), (1000033, 1)) and fac.is_complete
    assert calls == [1000003, 1000033]


def test_factor_integer_rejects_zero():
    with pytest.raises(ValueError):
        factor_integer(0)


def test_int_factorization_validation():
    sign = "sign must be \\+1 or -1"
    cofactor = "cofactor must be positive"
    order = "factors must be sorted by distinct prime"
    bounds = "factors must have prime >= 2 and exponent >= 1"
    for kwargs, message in (
        (dict(sign=0, factors=()), sign),
        (dict(sign=2, factors=()), sign),
        (dict(sign=1, factors=(), cofactor=0), cofactor),
        (dict(sign=1, factors=(), cofactor=-1), cofactor),
        (dict(sign=1, factors=((3, 1), (2, 1))), order),  # unsorted
        (dict(sign=1, factors=((2, 1), (2, 1))), order),  # duplicated prime
        (dict(sign=1, factors=((2, 1), (3, 1), (3, 2))), order),
        (dict(sign=1, factors=((2, 0),)), bounds),
        (dict(sign=1, factors=((1, 1),)), bounds),
        (dict(sign=1, factors=((0, 1), (2, 1))), bounds),
        (dict(sign=1, factors=((-2, 1), (3, 1))), bounds),
        (dict(sign=1, factors=((2, 1), (3, 0), (5, 1))), bounds),  # e = 0 mid-list
        # Precedence: sign, then cofactor, then order, then the bounds.
        (dict(sign=0, factors=((3, 1), (2, 0)), cofactor=0), sign),
        (dict(sign=-1, factors=((3, 1), (1, 1)), cofactor=0), cofactor),
        (dict(sign=1, factors=((3, 1), (1, 1))), order),  # p = 1, unsorted
        (dict(sign=1, factors=((5, 1), (3, 0))), order),  # e = 0, unsorted
        (dict(sign=1, factors=((2, 0), (2, 1))), order),  # e = 0, duplicated
        (dict(sign=1, factors=((1, 1), (-2, 1))), order),
    ):
        with pytest.raises(ValueError, match=f"^{message}$"):
            IntFactorization(**kwargs)
    fac = IntFactorization(sign=-1, factors=((2, 3), (5, 1)), cofactor=49)
    assert fac.value == -1 * 8 * 5 * 49
    assert dict(fac.factors) == {2: 3, 5: 1}


@given(st.integers(min_value=1, max_value=10**9), st.integers(min_value=2, max_value=97))
def test_p_valuation_reconstructs(m, p):
    e, u = p_valuation(m, p)
    assert m == p**e * u and u % p != 0


def test_p_valuation_rejects_zero_and_bad_p():
    with pytest.raises(ValueError):
        p_valuation(0, 2)
    with pytest.raises(ValueError):
        p_valuation(12, 1)


def test_squarefree_status_matches_naive():
    for m in range(1, 5000):
        expected = all(e == 1 for _, e in naive_factor(m))
        st_ = squarefree_status(m)
        assert st_.is_squarefree == expected, m
        if not expected:
            assert st_.status == "not_squarefree"
            assert m % (st_.witness**2) == 0
    assert squarefree_status(-18).status == "not_squarefree"
    with pytest.raises(ValueError):
        squarefree_status(0)


def test_squarefree_square_cofactor_is_refuted_despite_budget():
    p = 2**89 - 1
    effort = EffortConfig(trial_division_bound=10, rho_iteration_budget=0)
    st_ = squarefree_status(p * p, effort)
    assert st_.status == "not_squarefree" and st_.witness == p


def test_perfect_power_cofactors_are_peeled_without_rho():
    # Rho cannot split the power of a large prime; the k-th root test can.
    p = 2**89 - 1
    effort = EffortConfig(trial_division_bound=10, rho_iteration_budget=0)
    for k in (2, 3):
        fac = factor_integer(p**k, effort)
        assert fac.is_complete and fac.factors == ((p, k),)
    assert squarefree_status(p**3, effort) == SquarefreeStatus("not_squarefree", p)
    fac = factor_integer(-(3**4) * p**6, effort)
    assert fac.is_complete and fac.factors == ((3, 4), (p, 6)) and fac.sign == -1


def test_square_of_unsplit_composite_stays_unknown():
    # The root p * q is peeled but rho, with no budget, cannot split it.
    effort = EffortConfig(trial_division_bound=10, rho_iteration_budget=0)
    m = ((2**89 - 1) * (2**107 - 1)) ** 2
    fac = factor_integer(m, effort)
    assert fac.factors == () and fac.cofactor == m
    assert squarefree_status(m, effort) == SquarefreeStatus("unknown")


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str digit limit"
)
def test_rng_keys_of_long_inputs_stay_under_the_default_digit_limit(monkeypatch):
    with int_digit_limit(4300):
        # One real Miller-Rabin round on a 14,000-bit number takes seconds;
        # the stub keeps the key, which is built before any round, in the test.
        monkeypatch.setattr(integer_core, "_mr_composite_witness", lambda n, a, d, s: True)
        assert not is_prime(3**9100 + 2)
        monkeypatch.undo()
        # 4,305 digits; the rho key is built from the whole input.
        m = 2**14300 * 1000003 * 1000033
        fac = factor_integer(m, EffortConfig(trial_division_bound=1000))
        assert fac.is_complete and fac.factors == ((2, 14300), (1000003, 1), (1000033, 1))


def test_where_a_leftover_is_tested_for_primality(monkeypatch):
    m = (2**89 - 1) * (2**107 - 1)
    original = integer_core.is_prime
    calls = []

    def counting(x):
        calls.append(x)
        return original(x)

    monkeypatch.setattr(integer_core, "is_prime", counting)
    fac = factor_integer(m, EffortConfig(rho_iteration_budget=0))
    assert fac.factors == () and fac.cofactor == m
    assert calls.count(m) == 1
    # Leftovers in [bound**2, FULL_FACTOR_BOUND): the walk tests each once
    # and settles a prime one; factor_integer tests a composite one again
    # before rho.
    for m, tests in ((10**12 + 39, 1), (1000003 * 1000033, 2)):
        calls.clear()
        assert factor_integer(m).value == m
        assert calls == [m] * tests
    # Below bound**2 the walk settles a leftover without a test.
    for m in (10**9 + 7, 38891 * 99991):
        calls.clear()
        assert factor_integer(m).value == m
        assert calls == []


def test_squarefree_unknown_on_unsplit_composite():
    effort = EffortConfig(trial_division_bound=10, rho_iteration_budget=0)
    st_ = squarefree_status((2**89 - 1) * (2**107 - 1), effort)
    assert st_ == SquarefreeStatus("unknown")


def test_effort_config_validation():
    with pytest.raises(ValueError):
        EffortConfig(trial_division_bound=1)
    with pytest.raises(ValueError):
        EffortConfig(rho_iteration_budget=-1)
    with pytest.raises(ValueError, match=f"at most {MAX_TRIAL_DIVISION_BOUND}$"):
        EffortConfig(trial_division_bound=MAX_TRIAL_DIVISION_BOUND + 1)
    assert EffortConfig(trial_division_bound=MAX_TRIAL_DIVISION_BOUND)
