"""Whole-field analysis: irreducibility, per-prime verdicts, index, field disc.

analyze() is the only code that builds an AnalysisReport; family searches
call it too.  It certifies irreducibility (or refuses on a proven reducible
input), factors the discriminant, runs the divisibility test for every known
prime divisor, and assembles:

  * the monogenicity verdict (yes / no / unknown),
  * the index [maximal order : Z[theta]] as exact value or lower bound,
  * |disc K| as a factored integer when the index is exact, which pins
    down every valuation.

Valuations come from the parity of v_p(disc f): for p coprime to b the index
always absorbs floor(v/2) and the field keeps v mod 2, whether or not p
divides the index.  For p | b a passing prime contributes v entirely to the
field; a failing one leaves only the bound v_p(index) >= 1.

Irreducibility certificates, in the order tried: the Eisenstein or
single-segment Newton polygon conditions certify; a rational root refutes
(a certified f has none, so the search waits until both have failed; a
candidate ±d, d | c0, is evaluated only if f(1) and f(-1) admit it); an
irreducible reduction mod p certifies; and factor degree patterns that admit
no proper subset sum across several primes certify (optionally combined with
the complete absence of rational roots to excuse degrees 1 and n-1).
Eisenstein at p is the polygon with k = v_p(c0) = 1, so it is tried at every
prime with k = 1 before the polygon at the other primes of c0.  The two
read the one factorization of c0, so a prime that an effort bound leaves in
its unfactored cofactor is not tried.  Both mod-p certificates come from one
deterministic squarefree plus distinct-degree pass per prime
(degree_pattern_mod_p; the reduction is irreducible iff the pattern is
[n]).  Degree patterns alone can never prove reducibility.

The constant term c is factored once per analysis, or not at all when the
caller passes its factorization (search_family does, having factored c for
its squarefree test): the certificates read it, and so does the discriminant.
analyze strips the primes of c it already has off disc f and factors the
rest, under these guards: c's factorization is complete, its largest prime
lies in (_SPLIT_MIN_PRIME, trial division bound], and the rest is below
FULL_FACTOR_BOUND; otherwise disc f is factored whole.  Either way the
result is exactly factor_integer(disc f).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd

from .dedekind import dedekind_divides_index
from .discriminant import QuadrinomialSpec, quadrinomial_discriminant
from .index_criteria import CaseTag, CaseVerdict, prime_divides_index
from .integer_core import (
    DEFAULT_EFFORT,
    FULL_FACTOR_BOUND,
    EffortConfig,
    IntFactorization,
    factor_integer,
    p_valuation,
)
from .polynomials import ZPoly, degree_pattern_mod_p

_MAX_ROOT_CANDIDATES = 4096
_PATTERN_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19)
# The 64th prime, the last in trial division's first block.  Stripping the
# primes of c gains little unless c has a prime above it.  Paired timing of the
# two routes per spec (min of 11 runs, 12,150 seed-5 search_pc specs, 2-vCPU
# x86_64, CPython 3.11.7), median strip / whole by the largest prime of c:
# 1.01 up to 41, 0.99 for 43-311, 0.93 for 313-719, 0.83 for 727-1999 and
# 0.63 above; seed 41 reads 1.00, 0.98, 0.93, 0.83 and 0.64.  On 25,000
# analyze_small specs, whose primes of c are at most 7, stripping every c was
# slower in 8 of 11 alternating passes (median +0.2%).
_SPLIT_MIN_PRIME = 311


@dataclass
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
    for i, ci in enumerate(f.coeffs[1:n], 1):
        # point (i, v) must not drop below the segment: v >= k(n-i)/n, which
        # for an integer v is v >= ceil(k(n-i)/n); ci = 0 lies above it.
        if ci % p ** -(-k * (n - i) // n):
            return False
    return True


def _subset_sums(degrees: list[int]) -> int:
    """Bit s is set iff some sub-multiset of degrees sums to s."""
    sums = 1
    for d in degrees:
        sums |= sums << d
    return sums


def irreducibility_check(
    f: ZPoly,
    effort: EffortConfig = DEFAULT_EFFORT,
    c0_factorization: IntFactorization | None = None,
) -> IrreducibilityStatus:
    """Certify irreducibility over Q, refute it, or report unverified.

    Only monic inputs of degree >= 2 are considered.  c0_factorization, if
    given, is used instead of factoring the constant term again; it must be
    factor_integer(constant term, effort) at the same effort.  Only its value
    is checked (ValueError if it is another number): its primes are taken as
    prime, as IntFactorization states.
    """
    if not f.is_monic:
        raise ValueError("irreducibility check requires a monic polynomial")
    n = f.degree
    if n < 2:
        raise ValueError("degree must be at least 2")
    c0 = f.constant
    if c0_factorization is not None and c0_factorization.value != c0:
        raise ValueError(
            f"the factorization of the constant term has value "
            f"{c0_factorization.value}, not {c0}"
        )
    if c0 == 0:
        return IrreducibilityStatus("reducible", "rational_root", {"root": 0})

    c0_fac = factor_integer(c0, effort) if c0_factorization is None else c0_factorization

    # Newton polygon, one segment of slope -k/n with gcd(k, n) = 1.  At k = 1
    # an inner point needs only v >= 1, which is Eisenstein's test; it is
    # tried at every prime with k = 1 before the polygon at the others.
    for p, k in c0_fac.factors:
        if k == 1 and _newton_polygon_certifies(f, p, 1):
            return IrreducibilityStatus("irreducible", "eisenstein", {"prime": p})
    for p, k in c0_fac.factors:
        if k > 1 and _newton_polygon_certifies(f, p, k):
            return IrreducibilityStatus(
                "irreducible", "newton_polygon", {"prime": p, "constant_valuation": k}
            )

    divisors = _divisors_from(c0_fac)
    roots_complete = divisors is not None
    candidates = divisors if divisors is not None else [1] + [p for p, _ in c0_fac.factors]
    # An integer root r has r - 1 | f(1) and r + 1 | f(-1).  d = 1 comes
    # first; its two values screen every later d before f(d) or f(-d) is taken.
    f1, fm1 = f(1), f(-1)
    if not f1 or not fm1:
        return IrreducibilityStatus("reducible", "rational_root", {"root": 1 if not f1 else -1})
    for d in candidates[1:]:
        for r in (d, -d):
            if not (f1 % (r - 1) or fm1 % (r + 1) or f(r)):
                return IrreducibilityStatus("reducible", "rational_root", {"root": r})

    # Reductions mod small primes: an irreducible reduction certifies; else
    # intersect the bitmasks of achievable proper factor degrees across primes.
    allowed = (1 << n) - 2
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
        if roots_complete and not allowed & ~(2 | 1 << (n - 1)):
            return IrreducibilityStatus(
                "irreducible",
                "root_free_factor_degree_patterns",
                {"primes": used},
            )
    return IrreducibilityStatus("unverified")


@dataclass
class PrimeVerdict:
    """Per-prime summary: case outcome plus index/field-disc valuations.

    index_valuation is exact when field_disc_valuation is known; otherwise it
    is a lower bound (>= 1 for a failing prime dividing b) and
    field_disc_valuation is None.
    """

    p: int
    disc_poly_valuation: int
    case: CaseVerdict
    index_valuation: int
    field_disc_valuation: int | None

    def to_dict(self) -> dict:
        return {
            "p": self.p,
            "vp_disc_poly": self.disc_poly_valuation,
            **self.case.to_dict(),
            "vp_index": self.index_valuation,
            "vp_index_exact": self.field_disc_valuation is not None,
            "vp_disc_field": self.field_disc_valuation,
        }


@dataclass
class IndexStatus:
    kind: str  # "exact" | "lower_bound" | "unknown"
    value: int | None

    def to_dict(self) -> dict:
        return {"kind": self.kind, "value": self.value}


@dataclass
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


def _prime_verdict(spec: QuadrinomialSpec, p: int, e: int, disc: int) -> PrimeVerdict:
    case = prime_divides_index(spec, p, disc)
    if case.tag is CaseTag.P_COPRIME_TO_B:
        # v_p(index) = floor(e/2) and v_p(disc K) = e mod 2, pass or fail.
        return PrimeVerdict(p, e, case, e // 2, e % 2)
    if case.passes:
        return PrimeVerdict(p, e, case, 0, e)
    return PrimeVerdict(p, e, case, 1, None)


def _factor_discriminant(
    disc: int, effort: EffortConfig, c_fac: IntFactorization
) -> IntFactorization:
    """factor_integer(disc, effort).  analyze strips the primes of c it
    already has off disc f and factors the rest, under the same guards (see
    the module docstring); the rest then factors completely, so both routes
    give the unique factorization of disc.
    """
    if not (
        c_fac.is_complete
        and c_fac.factors
        and _SPLIT_MIN_PRIME < c_fac.factors[-1][0] <= effort.trial_division_bound
    ):
        return factor_integer(disc, effort)
    rest = abs(disc)
    factors = []
    for p, _ in c_fac.factors:
        e, rest = p_valuation(rest, p)
        factors.append((p, e))
    if rest >= FULL_FACTOR_BOUND:
        return factor_integer(disc, effort)
    factors += factor_integer(rest, effort).factors
    return IntFactorization(-1 if disc < 0 else 1, tuple(sorted(factors)))


def analyze(
    spec: QuadrinomialSpec,
    effort: EffortConfig = DEFAULT_EFFORT,
    c_factorization: IntFactorization | None = None,
) -> AnalysisReport:
    """Full monogenicity analysis of the field defined by spec's polynomial.

    c_factorization, if given, must be factor_integer(spec.c, effort) at the
    same effort; c is factored only when it is not given.  Only its value is
    checked (ValueError if it is another number).  Either way the one
    factorization goes to irreducibility_check and to the discriminant:
    analyze strips the primes of c it already has off disc f and factors the
    rest, under the guards in the module docstring.  The result is
    factor_integer(disc f, effort) either way.
    """
    c_fac = factor_integer(spec.c, effort) if c_factorization is None else c_factorization
    # irreducibility_check raises on a c_fac of another number before the
    # discriminant reads it.
    irr = irreducibility_check(spec.polynomial(), effort, c_fac)
    if irr.status == "reducible":
        raise ReduciblePolynomialError(irr)
    caveats: list[str] = []
    if irr.status == "unverified":
        caveats.append(
            "irreducibility unverified: verdicts assume the polynomial is irreducible"
        )
    disc = _nonzero_discriminant(spec)
    fac = _factor_discriminant(disc, effort, c_fac)
    if not fac.is_complete:
        caveats.append(
            f"discriminant factorization incomplete: composite cofactor {fac.cofactor}"
        )
    verdicts = tuple(_prime_verdict(spec, p, e, disc) for p, e in fac.factors)

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
        exact = exact and v.field_disc_valuation is not None
    abs_dk = None
    if exact:
        index = IndexStatus("exact", index_value)
        # An exact index pins every v_p(disc K); primes where it is 0 drop out.
        pairs = tuple((v.p, v.field_disc_valuation) for v in verdicts if v.field_disc_valuation)
        abs_dk = IntFactorization(sign=1, factors=pairs, cofactor=1)
        # Consistency: disc f = index**2 * disc K up to the recorded valuations.
        if abs(disc) != index_value**2 * abs_dk.value:
            raise ArithmeticError("valuation bookkeeping broke: |disc f| != index**2 * |disc K|")
    elif index_value > 1:
        index = IndexStatus("lower_bound", index_value)
    else:
        index = IndexStatus("unknown", None)
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
        verdict = prime_divides_index(spec, p, disc)
        divides, _ = dedekind_divides_index(f, p)
        if verdict.passes != (not divides):
            bad.append(p)
    return bad
