"""Integer toolkit: primality, factorization, valuations, squarefreeness."""

import random

import pytest
from hypothesis import given, strategies as st

from helpers import naive_factor, naive_is_prime
from monobase import (
    EffortConfig,
    IntFactorization,
    SquarefreeStatus,
    factor_integer,
    is_prime,
    p_valuation,
    squarefree_status,
)
from monobase.integer_core import FULL_FACTOR_BOUND, primes_up_to


def test_primes_up_to_small():
    assert primes_up_to(1) == ()
    assert primes_up_to(2) == (2,)
    assert primes_up_to(30) == (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)


def test_is_prime_matches_naive_below_20000():
    for n in range(-100, 20000):
        assert is_prime(n) == naive_is_prime(abs(n)), n


def test_is_prime_strong_pseudoprimes_rejected():
    # Smallest composites passing Miller-Rabin for initial witness prefixes.
    for n in (2047, 1373653, 25326001, 3215031751, 3474749660383,
              341550071728321, 3825123056546413051, 318665857834031151167461):
        assert not is_prime(n), n
    for n in (561, 41041, 825265, 321197185):  # Carmichael numbers
        assert not is_prime(n), n


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


def test_factor_integer_rejects_zero():
    with pytest.raises(ValueError):
        factor_integer(0)


def test_int_factorization_validation():
    with pytest.raises(ValueError):
        IntFactorization(sign=0, factors=())
    with pytest.raises(ValueError):
        IntFactorization(sign=1, factors=((3, 1), (2, 1)))  # unsorted
    with pytest.raises(ValueError):
        IntFactorization(sign=1, factors=((2, 0),))
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


def test_squarefree_square_cofactor_is_refuted_despite_budget():
    p = 2**89 - 1
    effort = EffortConfig(trial_division_bound=10, rho_iteration_budget=0)
    st_ = squarefree_status(p * p, effort)
    assert st_.status == "not_squarefree" and st_.witness == p


def test_squarefree_unknown_on_unsplit_composite():
    effort = EffortConfig(trial_division_bound=10, rho_iteration_budget=0)
    st_ = squarefree_status((2**89 - 1) * (2**107 - 1), effort)
    assert st_ == SquarefreeStatus("unknown")


def test_effort_config_validation():
    with pytest.raises(ValueError):
        EffortConfig(trial_division_bound=1)
    with pytest.raises(ValueError):
        EffortConfig(rho_iteration_budget=-1)
