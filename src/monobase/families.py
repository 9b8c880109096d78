"""Parameterized families of admissible quadrinomials and range searches.

generate_spec builds (a, b, c) = (u*w**2, 2*u*v*w, u*v**2), which satisfies
b**2 = 4ac identically, so it sweeps the admissible surface without any
root-finding.  FamilyTemplate is the slice the command line calls "pc":
(a, b, c) = (c, 2c, c), i.e. x**n + c*(x + 1)**2.
search_family sweeps a template over c, skips inadmissible c with a reason,
and keeps the full analyze() report of every other c.
"""

from __future__ import annotations

from dataclasses import dataclass

from .discriminant import QuadrinomialSpec
from .integer_core import DEFAULT_EFFORT, EffortConfig, factor_integer
from .report import AnalysisReport, IndexStatus, analyze


@dataclass(frozen=True)
class FamilyTemplate:
    """The one-parameter family x**n + c*(x + 1)**2 of degree n."""

    n: int

    def __post_init__(self) -> None:
        if self.n < 3:
            raise ValueError("degree must be at least 3")

    def spec(self, c: int) -> QuadrinomialSpec:
        return QuadrinomialSpec(self.n, c, 2 * c, c)


def generate_spec(u: int, v: int, w: int, n: int) -> QuadrinomialSpec:
    """Spec with (a, b, c) = (u*w**2, 2*u*v*w, u*v**2); needs u*v != 0."""
    if u == 0 or v == 0:
        raise ValueError("u and v must be nonzero (c = u*v**2 must not vanish)")
    return QuadrinomialSpec(n, u * w * w, 2 * u * v * w, u * v * v)


@dataclass
class SearchEntry:
    """One parameter value of a family search: skipped with a reason, or
    analyzed with its report."""

    c: int
    reason: str | None = None
    report: AnalysisReport | None = None

    @property
    def skipped(self) -> bool:
        return self.report is None

    @property
    def monogenic(self) -> str | None:
        return None if self.report is None else self.report.monogenic

    @property
    def index(self) -> IndexStatus | None:
        return None if self.report is None else self.report.index

    def to_dict(self) -> dict:
        out: dict = {"c": self.c, "skipped": self.skipped}
        if self.reason is not None:
            out["reason"] = self.reason
        if not self.skipped:
            out["monogenic"] = self.monogenic
            out["index"] = self.index.to_dict()
        return out


def search_family(
    template: FamilyTemplate,
    c_values,
    effort: EffortConfig = DEFAULT_EFFORT,
) -> list[SearchEntry]:
    """Analyze every admissible parameter in c_values, in order.

    Admissible means c not in {0, 1, -1} and c squarefree; anything else is
    returned skipped with the reason.  Then x**n + c*(x + 1)**2 is
    Eisenstein at every prime of c, so analyze never refuses it.  Entries
    are independent, so results do not depend on traversal order.

    c is factored once: the squarefree verdict is read off that
    factorization, as squarefree_status reads it, and analyze gets it too,
    for its irreducibility check and its discriminant (see analyze).
    """
    out: list[SearchEntry] = []
    for c in c_values:
        if c == 0 or c in (1, -1):
            out.append(SearchEntry(c, f"c = {c} is excluded"))
            continue
        # squarefree_status(c) read off c_fac: the smallest repeated prime
        # refutes, and an unfactored cofactor leaves it undecided.
        c_fac = factor_integer(c, effort)
        witness = next((p for p, e in c_fac.factors if e >= 2), None)
        if witness is not None:
            out.append(SearchEntry(c, f"c is divisible by {witness}**2"))
            continue
        if not c_fac.is_complete:
            out.append(SearchEntry(c, "squarefreeness of c undecided"))
            continue
        out.append(SearchEntry(c, None, analyze(template.spec(c), effort, c_fac)))
    return out
