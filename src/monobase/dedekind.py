"""Dedekind's index criterion at a prime p, in full generality.

For monic f and the order Z[x]/(f), p divides the index of that order in the
maximal order iff gcd(F mod p, g, h) has positive degree, where g is the
radical of f mod p, h = (f mod p) / g, and F = (f - g*h) / p with g and h
lifted to coefficients in [0, p) (Cohen, GTM 138, Thm 6.1.4).  The verdict
comes from that one squarefree pass (polynomials.dedekind_gcd_mod_p).

The witness holds the factored form of the same criterion: the full
factorization of f mod p, the reduction of

    M = (f - prod lifts**multiplicity) / p

and the first repeated factor that divides it.  It is built on first access,
so callers that want only the verdict never factor f mod p.  Building it
raises ArithmeticError when p does not divide f - prod lifts**multiplicity
(a broken factorization) or when the factored form disagrees with the gcd
verdict, so the two routes check each other.

This route never looks at the shape of f, so it serves as the independent
oracle for the divisibility criteria in index_criteria.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .integer_core import DEFAULT_SEED
from .polynomials import (
    FpPoly,
    FpPolyFactorization,
    ZPoly,
    dedekind_gcd_mod_p,
    factor_mod_p,
)


def compute_M(f: ZPoly, p: int, factorization: FpPolyFactorization) -> FpPoly:
    """Reduction mod p of (f - prod lifts**e) / p.

    Raises ArithmeticError if the difference is not divisible by p, which can
    only happen when `factorization` does not actually factor f mod p.
    """
    if factorization.p != p:
        raise ValueError("factorization modulus does not match p")
    prod = ZPoly((factorization.unit,))
    for g, e in factorization.factors:
        prod = prod * ZPoly(g.coeffs) ** e
    diff = f - prod
    lifted = []
    for coef in diff.coeffs:
        q, r = divmod(coef, p)
        if r:
            raise ArithmeticError(
                "f - prod(lifts) is not divisible by p: broken factorization"
            )
        lifted.append(q)
    return FpPoly(p, tuple(lifted))


@dataclass
class DedekindWitness:
    """Everything needed to audit a divides/not-divides verdict.

    `factorization`, `m_reduced` and `offending_index` (an index into
    factorization.factors, or None) are computed together on first access.
    """

    f: ZPoly
    p: int
    divides: bool
    seed: int

    @cached_property
    def _factored(self) -> tuple[FpPolyFactorization, FpPoly, int | None]:
        factorization = factor_mod_p(self.f, self.p, seed=self.seed)
        m_reduced = compute_M(self.f, self.p, factorization)
        offending = None
        for i, (g, e) in enumerate(factorization.factors):
            if e > 1 and g.divides(m_reduced):
                offending = i
                break
        if (offending is not None) != self.divides:
            raise ArithmeticError(
                "gcd and factored forms of Dedekind's criterion disagree"
            )
        return factorization, m_reduced, offending

    @property
    def factorization(self) -> FpPolyFactorization:
        return self._factored[0]

    @property
    def m_reduced(self) -> FpPoly:
        return self._factored[1]

    @property
    def offending_index(self) -> int | None:
        return self._factored[2]

    @property
    def offending_factor(self) -> FpPoly | None:
        if self.offending_index is None:
            return None
        return self.factorization.factors[self.offending_index][0]

    def to_dict(self) -> dict:
        out = {
            "factorization": self.factorization.to_dict(),
            "m_reduced": list(self.m_reduced.coeffs),
            "offending_index": self.offending_index,
        }
        if self.offending_index is not None:
            out["offending_factor"] = list(self.offending_factor.coeffs)
        return out


def dedekind_divides_index(
    f: ZPoly, p: int, *, seed: int = DEFAULT_SEED
) -> tuple[bool, DedekindWitness]:
    """Whether p divides [maximal order : Z[x]/(f)], with an audit witness.

    Requires monic f of degree >= 1 and prime p.  The verdict comes from the
    gcd form of the criterion; the witness factors f mod p only when read.
    Deterministic for a fixed seed.
    """
    divides = dedekind_gcd_mod_p(f, p)
    return divides, DedekindWitness(f, p, divides, seed)
