"""Family templates, the admissible-surface generator, and range searches."""

import sys
from collections import Counter

import pytest

from helpers import naive_factor
from monobase import (
    FamilyTemplate,
    QuadrinomialSpec,
    generate_spec,
    search_family,
)
from monobase import families, integer_core, report
from monobase.integer_core import EffortConfig, squarefree_status


def _is_squarefree(m):
    return all(e == 1 for _, e in naive_factor(abs(m)))


def test_template_validation_and_spec():
    t = FamilyTemplate(7)
    assert t.spec(5) == QuadrinomialSpec(7, 5, 10, 5)
    assert t.spec(-3) == QuadrinomialSpec(7, -3, -6, -3)
    with pytest.raises(ValueError):
        FamilyTemplate(2)


def test_generate_spec_parameterization():
    spec = generate_spec(3, 5, -2, 9)
    assert (spec.n, spec.a, spec.b, spec.c) == (9, 12, -60, 75)
    assert spec.b**2 == 4 * spec.a * spec.c
    # w = 0 degenerates to a trinomial, which is still admissible
    assert generate_spec(2, 3, 0, 5) == QuadrinomialSpec(5, 0, 0, 18)
    with pytest.raises(ValueError):
        generate_spec(0, 1, 1, 5)
    with pytest.raises(ValueError):
        generate_spec(1, 0, 1, 5)


def test_generate_spec_identity_always_admissible():
    for u in range(-4, 5):
        for v in range(-4, 5):
            for w in range(-4, 5):
                if u == 0 or v == 0:
                    continue
                spec = generate_spec(u, v, w, 6)
                assert spec.b**2 == 4 * spec.a * spec.c


def test_search_family_skip_reasons():
    entries = search_family(FamilyTemplate(5), [0, 1, -1, 12, 5])
    by_c = {e.c: e for e in entries}
    assert [e.c for e in entries] == [0, 1, -1, 12, 5]
    assert by_c[0].skipped and by_c[0].reason == "c = 0 is excluded"
    assert by_c[1].skipped and by_c[1].reason == "c = 1 is excluded"
    assert by_c[-1].skipped and by_c[-1].reason == "c = -1 is excluded"
    assert by_c[12].skipped and by_c[12].reason == "c is divisible by 2**2"
    assert by_c[12].report is None and by_c[12].monogenic is None and by_c[12].index is None
    assert by_c[12].to_dict() == {"c": 12, "skipped": True, "reason": "c is divisible by 2**2"}
    assert not by_c[5].skipped
    assert by_c[5].monogenic == "yes"
    assert by_c[5].index.kind == "exact" and by_c[5].index.value == 1
    assert by_c[5].report is not None
    # The witness is squarefree_status's, the smallest repeated prime: 3 for
    # 18 = 2 * 3**2.
    for entry in search_family(FamilyTemplate(3), range(-300, 301)):
        if entry.c not in (0, 1, -1):
            sf = squarefree_status(entry.c)
            assert entry.skipped == (not sf.is_squarefree)
            if sf.witness is not None:
                assert entry.reason == f"c is divisible by {sf.witness}**2"


def test_search_family_checks_irreducibility_once_per_spec(monkeypatch):
    calls = []
    real = report.irreducibility_check

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(report, "irreducibility_check", counted)
    entries = search_family(FamilyTemplate(5), [0, 12, 5, 7, -3])
    assert [e.skipped for e in entries] == [True, True, False, False, False]
    assert len(calls) == 3


def test_search_family_factors_each_c_once(monkeypatch):
    # The squarefree test, the irreducibility check and the discriminant all
    # read one factorization of c.
    original = integer_core.factor_integer
    calls = Counter()

    def counting(m, *args, **kwargs):
        calls[m] += 1
        return original(m, *args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("monobase") and getattr(module, "factor_integer", None) is original:
            monkeypatch.setattr(module, "factor_integer", counting)
    cs = [0, 1, -1, 12, 5, 7, -3, 30, -210, 1000003]
    entries = search_family(FamilyTemplate(7), cs)
    assert [e.skipped for e in entries] == [True] * 4 + [False] * 6
    assert [calls[c] for c in cs] == [0, 0, 0] + [1] * 7


def test_search_family_analyzes_each_admissible_spec_once(monkeypatch):
    calls = []
    real = families.analyze

    def counted(spec, *args):
        calls.append(spec)
        return real(spec, *args)

    monkeypatch.setattr(families, "analyze", counted)
    entries = search_family(FamilyTemplate(5), [0, 12, 5, 7, -3])
    assert calls == [FamilyTemplate(5).spec(c) for c in (5, 7, -3)]
    assert [e.report for e in entries[2:]] == [real(spec) for spec in calls]


def test_pc_spec_is_eisenstein_at_the_smallest_prime_of_squarefree_c():
    # Why search_family never meets a refused or unverified pc spec.
    for c in range(-300, 301):
        if c in (0, 1, -1) or not _is_squarefree(c):
            continue
        smallest = naive_factor(abs(c))[0][0]
        for n in range(3, 13):
            status = report.irreducibility_check(FamilyTemplate(n).spec(c).polynomial())
            assert (status.status, status.method, status.detail) == (
                "irreducible", "eisenstein", {"prime": smallest},
            ), (n, c)


def test_search_family_undecided_squarefreeness():
    # With factoring effort this low the squarefree check cannot finish.
    big = (2**89 - 1) * (2**107 - 1)
    entries = search_family(
        FamilyTemplate(5),
        [big],
        EffortConfig(trial_division_bound=50, rho_iteration_budget=0),
    )
    assert entries[0].skipped
    assert entries[0].reason == "squarefreeness of c undecided"


def test_search_family_degree_five_matches_sensitivity_polynomial():
    # For x**5 + c*(x + 1)**2 with admissible squarefree c, monogenicity is
    # equivalent to 3125 - 108*c being squarefree.
    entries = search_family(FamilyTemplate(5), range(-20, 21))
    analyzed = [e for e in entries if not e.skipped]
    assert len(analyzed) >= 20
    for e in analyzed:
        expected = "yes" if _is_squarefree(3125 - 108 * e.c) else "no"
        assert e.monogenic == expected, e.c
    for e in entries:
        if e.skipped:
            assert e.reason is not None
        assert e.to_dict()["c"] == e.c
