"""Per-prime index divisibility for x**n + a*x**2 + b*x + c with b**2 = 4ac.

For each prime p dividing disc(f) there is a pure divisibility test on
(n, a, b, c) deciding whether p divides the index [maximal order : Z[theta]].
prime_divides_index is the one entry point: it selects the case by how p
sits against a, b, c and runs that case's rule.

    p coprime to b                            -> P_COPRIME_TO_B
    p | a and p | c                           -> P_DIVIDES_A_AND_C
    p | a only                                -> P_DIVIDES_A_ONLY
    p | c only                                -> P_DIVIDES_C_ONLY
    otherwise (forces p = 2, 2 coprime to ac) -> P_IS_2_COPRIME_TO_AC

A verdict has passes=True when p does NOT divide the index.  p must be prime
and e must be v_p(disc f) >= 1; neither is re-checked, since analyze and
cross_check_with_dedekind read both off the factorization of disc f.  Then
each case implies side conditions (each rule's docstring says why, with
beta = b/2, beta**2 = ac and
disc = +-(n**n (-c)**(n-1) - 4 (n-2)**(n-2) beta**n)); they are re-derived
and raise ArithmeticError if one fails.  Nothing here calls the Dedekind
criterion, the oracle these rules are checked against.

Valuations come from the parity of e: for p coprime to b the index always
absorbs floor(e/2) and the field keeps e mod 2, whether or not p divides the
index.  For p | b a passing prime contributes e entirely to the field; a
failing one leaves only the bound v_p(index) >= 1.

The p | a only rule works with exact derived integers

    r = v_p(n),   b1 = b/p,   c1 = (c + (-c)**(p**r)) / p

(the division exact by Fermat's little theorem; parity for p = 2), while the
p | c only rule needs none: there the constraint b**2 = 4ac forces p**2 | c,
which already decides the verdict.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from math import gcd
from typing import ClassVar

from .discriminant import QuadrinomialSpec, quadrinomial_discriminant
from .integer_core import (
    DEFAULT_EFFORT,
    EffortConfig,
    factor_integer,
    p_valuation,
    squarefree_status,
)


class CaseTag(Enum):
    P_DIVIDES_A_AND_C = "p_divides_a_and_c"
    P_DIVIDES_A_ONLY = "p_divides_a_only"
    P_DIVIDES_C_ONLY = "p_divides_c_only"
    P_IS_2_COPRIME_TO_AC = "p_is_2_coprime_to_ac"
    P_COPRIME_TO_B = "p_coprime_to_b"


@dataclass
class CaseVerdict:
    """Outcome of one case test: passes=True means p does not divide the index.

    index_valuation is exact when field_disc_valuation is known, and a lower
    bound when field_disc_valuation is None.
    """

    tag: CaseTag
    passes: bool
    witnesses: dict[str, int]
    index_valuation: int
    field_disc_valuation: int | None
    source: ClassVar[str] = "theorem"

    def to_dict(self) -> dict:
        return {
            "case": self.tag.value,
            "passes": self.passes,
            "witnesses": dict(self.witnesses),
            "source": self.source,
            "vp_index": self.index_valuation,
            "vp_index_exact": self.field_disc_valuation is not None,
            "vp_disc_field": self.field_disc_valuation,
        }


# Each rule below takes what it reads for a prime p of its case and returns
# (passes, witnesses).  Given n, a verdict is a function of (a, b, c) mod p**2:
# the residue-class test in tests/test_index_criteria.py relies on that.


def _divides_a_and_c(spec: QuadrinomialSpec, p: int) -> tuple[bool, dict]:
    """p | a, p | c: the index stays coprime to p iff p**2 does not divide c."""
    return spec.c % (p * p) != 0, {}


def _divides_a_only(spec: QuadrinomialSpec, p: int) -> tuple[bool, dict]:
    """p | a, p | b, p coprime to c.  Derived: p | n and p | c + (-c)**(p**r).

    p | beta (p | b, or v_2(beta**2) = v_2(a) for p = 2), so p | disc forces
    p | n**n c**(n-1), hence p | n; the second is Fermat's little theorem.
    """
    n, b, c = spec.n, spec.b, spec.c
    if n % p != 0:
        raise ArithmeticError("expected p | n when p | a and p coprime to c")
    r, _ = p_valuation(n, p)
    b1 = b // p
    c1_num = c + (-c) ** (p**r)
    if c1_num % p != 0:
        raise ArithmeticError("c1 is not integral")
    c1 = c1_num // p
    if b1 % p == 0 and c1 % p != 0:
        passes = True
    else:
        bracket = (pow(-c1 % p, n, p) + c % p * pow(b1 % p, n, p)) % p
        passes = b1 * bracket % p != 0
    return passes, {"r": r, "b1": b1, "c1": c1}


def _divides_c_only(spec: QuadrinomialSpec, p: int) -> tuple[bool, dict]:
    """p | b, p | c, p coprime to a: p always divides the index.

    Derived: p**2 | c, as p coprime to a gives v_p(c) = 2*v_p(beta) >= 2.
    Then f = x**2 * (x**(n-2) + a) mod p with x of multiplicity exactly two,
    and (f - product of coefficient-reduced monic lifts)/p has constant term
    c/p = 0 mod p, so the repeated factor x divides it: p divides the index
    for every value of v_p(n - 2).
    """
    n, c = spec.n, spec.c
    if c % (p * p) != 0:
        raise ArithmeticError("expected p**2 | c when p | c and p coprime to a")
    l, _ = p_valuation(n - 2, p)
    vc, _ = p_valuation(c, p)
    return False, {"l": l, "vp_c": vc}


def _two_coprime_to_ac(spec: QuadrinomialSpec) -> tuple[bool, dict]:
    """p = 2 with 2 | b and a, c odd.  Derived: 2 | n and v_2(b) = 1.

    beta**2 = ac is odd, so v_2(b) = 1, and then 2 | disc forces 2 | n.
    """
    a, b, c = spec.a, spec.b, spec.c
    if spec.n % 2 != 0:
        raise ArithmeticError("expected 2 | n when 2 is coprime to ac")
    if (b // 2) % 2 == 0:
        raise ArithmeticError("expected v_2(b) = 1")
    return a % 4 == 1 or c % 4 == 1, {}


def _coprime_to_b(spec: QuadrinomialSpec, p: int, e: int) -> tuple[bool, dict]:
    """p coprime to b.  Derived: p odd, coprime to a, c and n(n-2).

    Every b is even and p coprime to beta means p coprime to ac; p | n or
    p | n-2 would leave disc = -+4(-2)**(n-2) beta**n or +-2**n (-c)**(n-1)
    mod p, both nonzero.  Here p divides the index iff e = v_p(disc f) >= 2;
    the witness records e.
    """
    if p == 2:
        raise ArithmeticError("2 divides every admissible b")
    if (spec.n * (spec.n - 2)) % p == 0:
        raise ArithmeticError("expected p coprime to n(n-2)")
    return e < 2, {"vp_disc": e}


def prime_divides_index(spec: QuadrinomialSpec, p: int, e: int) -> CaseVerdict:
    """Verdict for one prime p dividing disc(f), from the rule of p's case,
    with the valuations it implies (see the module docstring).

    p must be prime and e must be v_p(disc f); neither is re-checked, and
    e < 1 raises ValueError.  A derived side condition that fails raises
    ArithmeticError.
    """
    if p < 2:
        raise ValueError("p must be at least 2")
    if e < 1:
        raise ValueError(f"{p} does not divide the discriminant")
    a, b, c = spec.a, spec.b, spec.c
    if b % p != 0:
        tag, (passes, witnesses) = CaseTag.P_COPRIME_TO_B, _coprime_to_b(spec, p, e)
    elif a % p == 0 and c % p == 0:
        tag, (passes, witnesses) = CaseTag.P_DIVIDES_A_AND_C, _divides_a_and_c(spec, p)
    elif a % p == 0:
        tag, (passes, witnesses) = CaseTag.P_DIVIDES_A_ONLY, _divides_a_only(spec, p)
    elif c % p == 0:
        tag, (passes, witnesses) = CaseTag.P_DIVIDES_C_ONLY, _divides_c_only(spec, p)
    elif p == 2:
        # p | b, p coprime to a and c: b**2 = 4ac rules out odd p.
        tag, (passes, witnesses) = CaseTag.P_IS_2_COPRIME_TO_AC, _two_coprime_to_ac(spec)
    else:
        raise ArithmeticError("case split is not exhaustive: impossible residues")
    if tag is CaseTag.P_COPRIME_TO_B:
        return CaseVerdict(tag, passes, witnesses, e // 2, e % 2)
    if passes:
        return CaseVerdict(tag, passes, witnesses, 0, e)
    return CaseVerdict(tag, passes, witnesses, 1, None)


@dataclass(frozen=True)
class MonogenicityVerdict:
    """Tri-state verdict; witness is a prime dividing the index when refuted."""

    status: str  # "monogenic" | "not_monogenic" | "unknown"
    witness: int | None = None


def _support_subset(x: int, y: int) -> bool:
    """True iff every prime dividing x also divides y (x, y nonzero)."""
    x, y = abs(x), abs(y)
    while True:
        g = gcd(x, y)
        if g == 1:
            return x == 1
        while x % g == 0:
            x //= g


def _same_support(x: int, y: int) -> bool:
    return _support_subset(x, y) and _support_subset(y, x)


def shared_support_fastpath(
    spec: QuadrinomialSpec, effort: EffortConfig = DEFAULT_EFFORT
) -> MonogenicityVerdict | None:
    """Shortcut verdict when a and c share their prime support.

    Applies when c is squarefree, c != +-1, a and c have the same prime
    divisors, and either 2 | c or (n is odd and a = 1 or c = 1 mod 4).  Then
    primes dividing a pass automatically and the field is monogenic iff no
    other prime divides disc(f) twice.  Returns None when not applicable.

    The parity guard on n matters: for even n with a, c odd, 4 | disc(f)
    whenever 2 | disc(f), yet 2 can still pass by the mod 4 test, so the
    squarefreeness reading of disc(f) would be wrong there.
    """
    a, c, n = spec.a, spec.c, spec.n
    if c in (1, -1) or a == 0:
        return None
    if not squarefree_status(c, effort).is_squarefree:
        return None
    if not _same_support(a, c):
        return None
    if c % 2 != 0 and not (n % 2 != 0 and (a % 4 == 1 or c % 4 == 1)):
        return None
    disc = quadrinomial_discriminant(spec)
    fac = factor_integer(disc, effort)
    for p, e in fac.factors:
        if a % p != 0 and e >= 2:
            return MonogenicityVerdict("not_monogenic", p)
    if not fac.is_complete:
        return MonogenicityVerdict("unknown")
    return MonogenicityVerdict("monogenic")
