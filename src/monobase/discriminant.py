"""Quadrinomials x**n + a*x**2 + b*x + c constrained by b**2 = 4*a*c.

Under that constraint the discriminant collapses to a closed form:

    disc(f) = (-1)**(n*(n+1)/2 + 1) * (n**n * (-c)**(n-1) - 4*(n-2)**(n-2) * (b/2)**n)

(b is forced even: b**2 = 4ac makes 4 | b**2).  The closed form is the fast
route; discriminant_via_resultant is the independent slow route used to
cross-check it.  analyze strips the primes of c it already has off disc(f)
and factors the rest, under the guards in report.py.

double_root_divisibility_test decides p**2 | disc(f) without computing the
discriminant, for primes p coprime to b*(n-2): f has a double root mod p**2
at the unique critical residue d = -n*b / (2*a*(n-2)) mod p**2.
"""

from __future__ import annotations

from dataclasses import dataclass

from .polynomials import ZPoly


@dataclass(frozen=True)
class QuadrinomialSpec:
    """Degree and coefficients (n, a, b, c) with n >= 3, c != 0, b**2 = 4ac."""

    n: int
    a: int
    b: int
    c: int

    def __post_init__(self) -> None:
        if self.n < 3:
            raise ValueError("degree must be at least 3")
        if self.c == 0:
            raise ValueError("constant term must be nonzero")
        if self.b * self.b != 4 * self.a * self.c:
            raise ValueError(f"b**2 = 4ac violated: {self.b}**2 != 4*{self.a}*{self.c}")

    def polynomial(self) -> ZPoly:
        coeffs = [0] * (self.n + 1)
        coeffs[0] = self.c
        coeffs[1] = self.b
        coeffs[2] = self.a
        coeffs[self.n] = 1
        return ZPoly(tuple(coeffs))

    def to_dict(self) -> dict:
        return {"n": self.n, "a": self.a, "b": self.b, "c": self.c}

    def __str__(self) -> str:
        return str(self.polynomial())


def quadrinomial_discriminant(spec: QuadrinomialSpec) -> int:
    """disc(f) by the closed form; exact for every valid spec."""
    n, c = spec.n, spec.c
    half_b = spec.b // 2  # exact: b**2 = 4ac forces b even
    sign = -1 if (n * (n + 1) // 2 + 1) & 1 else 1
    return sign * (n**n * (-c) ** (n - 1) - 4 * (n - 2) ** (n - 2) * half_b**n)


def double_root_divisibility_test(spec: QuadrinomialSpec, p: int) -> bool:
    """True iff p**2 divides disc(f), for p coprime to b*(n - 2).

    p coprime to b forces p odd and coprime to a and c (odd p | a or p | c
    would divide b**2 = 4ac twice), so the critical residue below is defined.
    """
    n, a, b, c = spec.n, spec.a, spec.b, spec.c
    if p < 2:
        raise ValueError("p must be at least 2")
    if b % p == 0 or (n - 2) % p == 0:
        raise ValueError("test requires p coprime to b*(n-2)")
    p2 = p * p
    try:
        inv = pow(2 * a * (n - 2) % p2, -1, p2)
    except ValueError:
        # unreachable for prime p by the argument above; guards composite p
        raise ValueError("p shares a factor with 2*a*(n-2)") from None
    d = -n * b * inv % p2
    value = (pow(d, n, p2) + (a * d % p2) * d + b * d + c) % p2
    return value == 0
