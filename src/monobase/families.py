"""Parameterized families of admissible quadrinomials and range searches.

generate_spec builds (a, b, c) = (u*w**2, 2*u*v*w, u*v**2), which satisfies
b**2 = 4ac identically, so it sweeps the admissible surface without any
root-finding.  FamilyTemplate names one-parameter slices of that surface;
the "pc" template is (a, b, c) = (c, 2c, c), i.e. x**n + c*(x + 1)**2.
"""

from __future__ import annotations

from dataclasses import dataclass

from .discriminant import QuadrinomialSpec
from .integer_core import DEFAULT_EFFORT, EffortConfig, squarefree_status
from .report import AnalysisReport, IndexStatus, analyze_with_status, irreducibility_check

_TEMPLATE_RULES = {
    "pc": lambda c: (c, 2 * c, c),
}


@dataclass(frozen=True)
class FamilyTemplate:
    """A one-parameter family: degree plus a named coefficient rule."""

    n: int
    rule: str = "pc"

    def __post_init__(self) -> None:
        if self.rule not in _TEMPLATE_RULES:
            raise ValueError(f"unknown template rule {self.rule!r}")
        if self.n < 3:
            raise ValueError("degree must be at least 3")

    def spec(self, c: int) -> QuadrinomialSpec:
        a, b, cc = _TEMPLATE_RULES[self.rule](c)
        return QuadrinomialSpec(self.n, a, b, cc)


def generate_spec(u: int, v: int, w: int, n: int) -> QuadrinomialSpec:
    """Spec with (a, b, c) = (u*w**2, 2*u*v*w, u*v**2); needs u*v != 0."""
    if u == 0 or v == 0:
        raise ValueError("u and v must be nonzero (c = u*v**2 must not vanish)")
    return QuadrinomialSpec(n, u * w * w, 2 * u * v * w, u * v * v)


@dataclass(frozen=True)
class SearchEntry:
    """One parameter value of a family search: either skipped or analyzed."""

    c: int
    skipped: bool
    reason: str | None = None
    monogenic: str | None = None
    index: IndexStatus | None = None
    report: AnalysisReport | None = None

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

    Admissible means c not in {0, 1, -1}, c squarefree, and irreducibility
    certified; anything else is returned skipped with the reason.  Entries
    are independent, so results do not depend on traversal order.
    """
    out: list[SearchEntry] = []
    for c in c_values:
        if c == 0 or c in (1, -1):
            out.append(SearchEntry(c, True, f"c = {c} is excluded"))
            continue
        sf = squarefree_status(c, effort)
        if sf.status == "not_squarefree":
            out.append(SearchEntry(c, True, f"c is divisible by {sf.witness}**2"))
            continue
        if sf.status == "unknown":
            out.append(SearchEntry(c, True, "squarefreeness of c undecided"))
            continue
        spec = template.spec(c)
        irr = irreducibility_check(spec.polynomial(), effort)
        if irr.status == "reducible":
            out.append(SearchEntry(c, True, f"reducible: {irr.detail}"))
            continue
        if irr.status == "unverified":
            out.append(SearchEntry(c, True, "irreducibility unverified"))
            continue
        report = analyze_with_status(spec, irr, effort)
        out.append(
            SearchEntry(
                c,
                False,
                None,
                report.monogenic,
                report.index,
                report,
            )
        )
    return out
