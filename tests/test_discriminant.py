"""Quadrinomial specs, closed-form discriminant, double-root divisibility."""

import pytest

from helpers import EXAMPLE_TRIO, random_specs, trio_spec
from monobase import (
    QuadrinomialSpec,
    discriminant_via_resultant,
    double_root_divisibility_test,
    quadrinomial_discriminant,
)
from monobase.integer_core import primes_up_to


def test_spec_validation():
    with pytest.raises(ValueError):
        QuadrinomialSpec(2, 1, 2, 1)  # degree too small
    with pytest.raises(ValueError):
        QuadrinomialSpec(5, 1, 2, 0)  # zero constant term
    with pytest.raises(ValueError):
        QuadrinomialSpec(5, 1, 3, 1)  # b**2 != 4ac
    spec = QuadrinomialSpec(5, 1, 2, 1)
    assert spec.polynomial().coeffs == (1, 2, 1, 0, 0, 1)
    assert str(spec) == "x^5 + x^2 + 2*x + 1"
    assert spec.to_dict() == {"n": 5, "a": 1, "b": 2, "c": 1}


def test_zero_a_is_admissible():
    # b**2 = 4ac forces b = 0 with a = 0; the polynomial is x**n + c.
    spec = QuadrinomialSpec(4, 0, 0, 3)
    assert spec.polynomial().coeffs == (3, 0, 0, 0, 1)
    assert quadrinomial_discriminant(spec) == discriminant_via_resultant(
        spec.polynomial()
    )


def test_closed_form_trio_values():
    for c, (abs_disc, _, _) in EXAMPLE_TRIO.items():
        assert abs(quadrinomial_discriminant(trio_spec(c))) == abs_disc


def test_closed_form_equals_resultant_route_both_parities():
    specs = random_specs(101, 250, n_range=(3, 10), coeff_bound=12)
    specs += random_specs(103, 40, n_range=(20, 40), coeff_bound=12)
    for spec in specs:
        assert quadrinomial_discriminant(spec) == discriminant_via_resultant(
            spec.polynomial()
        ), spec


def test_closed_form_sign_even_degree():
    # Even degrees exercise the sign of the closed form, not just |disc|.
    for n, a, b, c in ((4, -5, 30, -45), (6, -125, -150, -45), (8, 1, 4, 4)):
        spec = QuadrinomialSpec(n, a, b, c)
        assert quadrinomial_discriminant(spec) == discriminant_via_resultant(
            spec.polynomial()
        )


def test_double_root_test_agrees_with_disc_valuation():
    specs = random_specs(202, 60, n_range=(3, 9), coeff_bound=9)
    primes = [p for p in primes_up_to(200)]
    for spec in specs:
        disc = quadrinomial_discriminant(spec)
        for p in primes:
            if spec.b % p == 0 or (spec.n - 2) % p == 0:
                continue
            expected = disc % (p * p) == 0
            assert double_root_divisibility_test(spec, p) == expected, (spec, p)


def test_double_root_test_scope_errors():
    spec = QuadrinomialSpec(5, 1, 6, 9)
    with pytest.raises(ValueError):
        double_root_divisibility_test(spec, 3)  # 3 | b
    with pytest.raises(ValueError):
        double_root_divisibility_test(QuadrinomialSpec(5, 1, 2, 1), 3)  # 3 | n - 2
    with pytest.raises(ValueError):
        double_root_divisibility_test(spec, 1)
    # composite p coprime to b*(n-2) that shares the factor 3 with a
    with pytest.raises(ValueError, match="shares a factor"):
        double_root_divisibility_test(QuadrinomialSpec(7, 3, 6, 3), 9)


def test_pc_family_discriminant_shape():
    # a = c, b = 2c gives x**n + c*(x+1)**2; the closed form collapses to
    # c**(n-1) times a linear function of c.
    for c in (2, 3, -7, 10, 22):
        assert quadrinomial_discriminant(
            QuadrinomialSpec(5, c, 2 * c, c)
        ) == c**4 * (3125 - 108 * c)
        assert quadrinomial_discriminant(
            QuadrinomialSpec(7, c, 2 * c, c)
        ) == c**6 * (4 * 5**5 * c - 7**7)
