"""Whole-field analysis: irreducibility, per-prime verdicts, index, field disc.

analyze() is the one-stop entry point.  It certifies irreducibility (or
refuses on a proven reducible input), factors the discriminant, runs the
divisibility test for every known prime divisor, and assembles:

  * the monogenicity verdict (yes / no / unknown),
  * the index [maximal order : Z[theta]] as exact value or lower bound,
  * |disc K| as a factored integer when every valuation is pinned down.

Valuations come from the parity of v_p(disc f): for p coprime to b the index
always absorbs floor(v/2) and the field keeps v mod 2, whether or not p
divides the index.  For p | b a passing prime contributes v entirely to the
field; a failing one leaves only the bound v_p(index) >= 1.

Irreducibility certificates, strongest first: a rational root refutes; the
Eisenstein or single-segment Newton polygon conditions certify; an
irreducible reduction mod p certifies; and factor degree patterns that admit
no proper subset sum across several primes certify (optionally combined with
the complete absence of rational roots to excuse degrees 1 and n-1).  Both
mod-p certificates come from one deterministic squarefree plus distinct-degree
pass per prime (degree_pattern_mod_p; the reduction is irreducible iff the
pattern is [n]).  Degree patterns alone can never prove reducibility.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd

from .dedekind import dedekind_divides_index
from .discriminant import QuadrinomialSpec, quadrinomial_discriminant
from .index_criteria import CaseVerdict, prime_divides_index
from .integer_core import (
    DEFAULT_EFFORT,
    EffortConfig,
    IntFactorization,
    factor_integer,
    p_valuation,
)
from .polynomials import ZPoly, degree_pattern_mod_p

_MAX_ROOT_CANDIDATES = 4096
_PATTERN_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19)


@dataclass(frozen=True)
class IrreducibilityStatus:
    status: str  # "irreducible" | "reducible" | "unverified"
    method: str | None = None
    detail: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        out: dict = {"status": self.status}
        if self.method is not None:
            out["method"] = self.method
        if self.detail:
            out["detail"] = dict(self.detail)
        return out


class ReduciblePolynomialError(ValueError):
    """Raised by analyze() when the input is provably reducible."""

    def __init__(self, status: IrreducibilityStatus):
        super().__init__(f"polynomial is reducible: {status.detail}")
        self.status = status


def _nonzero_discriminant(spec: QuadrinomialSpec) -> int:
    """disc(f) by the closed form; zero means a repeated root, so f is reducible."""
    disc = quadrinomial_discriminant(spec)
    if disc == 0:
        raise ReduciblePolynomialError(
            IrreducibilityStatus(
                "reducible", "vanishing_discriminant", {"detail": "repeated root"}
            )
        )
    return disc


def _divisors_from(fac: IntFactorization) -> list[int] | None:
    """All positive divisors of the factored part; None when too many or
    when an unfactored cofactor makes the list incomplete."""
    if not fac.is_complete:
        return None
    count = 1
    for _, e in fac.factors:
        count *= e + 1
        if count > _MAX_ROOT_CANDIDATES:
            return None
    divs = [1]
    for p, e in fac.factors:
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return divs


def _newton_polygon_certifies(f: ZPoly, p: int, k: int) -> bool:
    """Single-segment Newton polygon test at p: with k = v_p(constant) coprime
    to n and every inner coefficient lying on or above the segment from
    (0, k) to (n, 0), f is irreducible."""
    n = f.degree
    if gcd(k, n) != 1:
        return False
    for i in range(1, n):
        ci = f.coeff(i)
        if ci == 0:
            continue
        v, _ = p_valuation(ci, p)
        # point (i, v) must not drop below the segment: v/(n-i) >= k/n
        if v * n < k * (n - i):
            return False
    return True


def _subset_sums(degrees: list[int]) -> set[int]:
    sums = {0}
    for d in degrees:
        sums |= {s + d for s in sums}
    return sums


def irreducibility_check(
    f: ZPoly, effort: EffortConfig = DEFAULT_EFFORT
) -> IrreducibilityStatus:
    """Certify irreducibility over Q, refute it, or report unverified.

    Only monic inputs of degree >= 2 are considered.
    """
    if f.is_zero or not f.is_monic:
        raise ValueError("irreducibility check requires a monic polynomial")
    n = f.degree
    if n < 2:
        raise ValueError("degree must be at least 2")
    c0 = f.constant
    if c0 == 0:
        return IrreducibilityStatus("reducible", "rational_root", {"root": 0})

    c0_fac = factor_integer(c0, effort)
    divisors = _divisors_from(c0_fac)
    roots_complete = divisors is not None
    candidates = divisors if divisors is not None else [1] + [p for p, _ in c0_fac.factors]
    for d in candidates:
        for root in (d, -d):
            if f(root) == 0:
                return IrreducibilityStatus("reducible", "rational_root", {"root": root})

    # Eisenstein: some prime divides every non-leading coefficient once at c0.
    lower_gcd = 0
    for c in f.coeffs[:-1]:
        lower_gcd = gcd(lower_gcd, c)
    if lower_gcd > 1:
        # lower_gcd divides c0 and often equals |c0| (every pc spec); the
        # factorization depends on |c0| only, so reuse it.
        lower_fac = c0_fac if lower_gcd == abs(c0) else factor_integer(lower_gcd, effort)
        for p, _ in lower_fac.factors:
            if c0 % (p * p) != 0:
                return IrreducibilityStatus("irreducible", "eisenstein", {"prime": p})

    # Newton polygon, one segment of slope -k/n with gcd(k, n) = 1.
    for p, k in c0_fac.factors:
        if _newton_polygon_certifies(f, p, k):
            return IrreducibilityStatus(
                "irreducible", "newton_polygon", {"prime": p, "constant_valuation": k}
            )

    # Reductions mod small primes: an irreducible reduction certifies; else
    # intersect the achievable proper factor degrees across primes.
    allowed = set(range(1, n))
    used: list[int] = []
    for p in _PATTERN_PRIMES:
        pattern = degree_pattern_mod_p(f, p)
        if pattern == [n]:
            return IrreducibilityStatus("irreducible", "irreducible_mod_p", {"prime": p})
        allowed &= _subset_sums(pattern)
        used.append(p)
        if not allowed:
            return IrreducibilityStatus(
                "irreducible", "factor_degree_patterns", {"primes": used}
            )
        if roots_complete and allowed <= {1, n - 1}:
            return IrreducibilityStatus(
                "irreducible",
                "root_free_factor_degree_patterns",
                {"primes": used},
            )
    return IrreducibilityStatus("unverified")


@dataclass(frozen=True)
class PrimeVerdict:
    """Per-prime summary: case outcome plus index/field-disc valuations.

    index_valuation is exact when index_valuation_exact is set; otherwise it
    is a lower bound (>= 1 for a failing prime dividing b).  disc_valuation
    is None when the failing case leaves it undetermined.
    """

    p: int
    disc_poly_valuation: int
    case: CaseVerdict
    index_valuation: int
    index_valuation_exact: bool
    field_disc_valuation: int | None

    def to_dict(self) -> dict:
        return {
            "p": self.p,
            "vp_disc_poly": self.disc_poly_valuation,
            **self.case.to_dict(),
            "vp_index": self.index_valuation,
            "vp_index_exact": self.index_valuation_exact,
            "vp_disc_field": self.field_disc_valuation,
        }


@dataclass(frozen=True)
class IndexStatus:
    kind: str  # "exact" | "lower_bound" | "unknown"
    value: int | None

    def to_dict(self) -> dict:
        return {"kind": self.kind, "value": self.value}


@dataclass(frozen=True)
class AnalysisReport:
    spec: QuadrinomialSpec
    irreducibility: IrreducibilityStatus
    disc_poly: int
    disc_poly_factorization: IntFactorization
    prime_verdicts: tuple[PrimeVerdict, ...]
    monogenic: str  # "yes" | "no" | "unknown"
    index: IndexStatus
    abs_disc_field: IntFactorization | None
    caveats: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        out = {
            "spec": self.spec.to_dict(),
            "polynomial": str(self.spec.polynomial()),
            "irreducibility": self.irreducibility.to_dict(),
            "disc_poly": self.disc_poly,
            "disc_poly_factorization": self.disc_poly_factorization.to_dict(),
            "primes": [v.to_dict() for v in self.prime_verdicts],
            "monogenic": self.monogenic,
            "index": self.index.to_dict(),
            "abs_disc_field": None,
            "caveats": list(self.caveats),
        }
        if self.abs_disc_field is not None:
            out["abs_disc_field"] = {
                **self.abs_disc_field.to_dict(),
                "value": self.abs_disc_field.value,
            }
        return out


def _prime_verdict(spec: QuadrinomialSpec, p: int, e: int, disc: int, seed: int) -> PrimeVerdict:
    case = prime_divides_index(spec, p, disc, seed=seed)
    if spec.b % p != 0:
        # v_p(index) = floor(e/2) and v_p(disc K) = e mod 2, pass or fail.
        return PrimeVerdict(p, e, case, e // 2, True, e % 2)
    if case.passes:
        return PrimeVerdict(p, e, case, 0, True, e)
    return PrimeVerdict(p, e, case, 1, False, None)


def dk_formula(verdicts: tuple[PrimeVerdict, ...]) -> IntFactorization | None:
    """|disc K| assembled from per-prime valuations; None if any is open."""
    pairs = []
    for v in verdicts:
        if v.field_disc_valuation is None:
            return None
        if v.field_disc_valuation > 0:
            pairs.append((v.p, v.field_disc_valuation))
    return IntFactorization(sign=1, factors=tuple(pairs), cofactor=1)


def analyze(
    spec: QuadrinomialSpec, effort: EffortConfig = DEFAULT_EFFORT
) -> AnalysisReport:
    """Full monogenicity analysis of the field defined by spec's polynomial."""
    return analyze_with_status(spec, irreducibility_check(spec.polynomial(), effort), effort)


def analyze_with_status(
    spec: QuadrinomialSpec, irr: IrreducibilityStatus, effort: EffortConfig = DEFAULT_EFFORT
) -> AnalysisReport:
    """analyze() for a spec whose irreducibility_check result irr is already
    known, so a caller that ran the check does not pay for it twice."""
    if irr.status == "reducible":
        raise ReduciblePolynomialError(irr)
    caveats: list[str] = []
    if irr.status == "unverified":
        caveats.append(
            "irreducibility unverified: verdicts assume the polynomial is irreducible"
        )
    disc = _nonzero_discriminant(spec)
    fac = factor_integer(disc, effort)
    if not fac.is_complete:
        caveats.append(
            f"discriminant factorization incomplete: composite cofactor {fac.cofactor}"
        )
    verdicts = tuple(
        _prime_verdict(spec, p, e, disc, effort.rng_seed) for p, e in fac.factors
    )

    failing = [v for v in verdicts if not v.case.passes]
    if failing:
        monogenic = "no"
    elif fac.is_complete:
        monogenic = "yes"
    else:
        monogenic = "unknown"

    index_value = 1
    exact = fac.is_complete
    for v in verdicts:
        index_value *= v.p**v.index_valuation
        exact = exact and v.index_valuation_exact
    if exact:
        index = IndexStatus("exact", index_value)
    elif index_value > 1:
        index = IndexStatus("lower_bound", index_value)
    else:
        index = IndexStatus("unknown", None)

    abs_dk = dk_formula(verdicts) if fac.is_complete else None
    # Consistency: disc f = index**2 * disc K up to the recorded valuations.
    if abs_dk is not None and exact and abs(disc) != index_value**2 * abs_dk.value:
        raise ArithmeticError("valuation bookkeeping broke: |disc f| != index**2 * |disc K|")
    return AnalysisReport(
        spec=spec,
        irreducibility=irr,
        disc_poly=disc,
        disc_poly_factorization=fac,
        prime_verdicts=verdicts,
        monogenic=monogenic,
        index=index,
        abs_disc_field=abs_dk,
        caveats=tuple(caveats),
    )


def cross_check_with_dedekind(
    spec: QuadrinomialSpec, effort: EffortConfig = DEFAULT_EFFORT
) -> list[int]:
    """Primes where the case tests and the Dedekind criterion disagree.

    Returns the offending primes (empty means the two routes agree on every
    known prime divisor of the discriminant).  Meant for self-tests.
    Raises ReduciblePolynomialError when the discriminant vanishes.
    """
    disc = _nonzero_discriminant(spec)
    f = spec.polynomial()
    bad = []
    for p, _ in factor_integer(disc, effort).factors:
        verdict = prime_divides_index(spec, p, disc, seed=effort.rng_seed)
        divides, _ = dedekind_divides_index(f, p, seed=effort.rng_seed)
        if verdict.passes != (not divides):
            bad.append(p)
    return bad
