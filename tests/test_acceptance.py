"""Acceptance suite: every check prints one PASS/FAIL line with its volume.

Each test covers one end-to-end guarantee at its stated size and time budget;
run with -s to see the lines.
"""

import random
import time

from helpers import (
    EXAMPLE_TRIO,
    binomial_integral_basis,
    naive_factor,
    random_specs,
    trio_spec,
)
from monobase import (
    FamilyTemplate,
    QuadrinomialSpec,
    ZPoly,
    analyze,
    dedekind_divides_index,
    discriminant_via_resultant,
    double_root_divisibility_test,
    generate_spec,
    irreducibility_check,
    prime_divides_index,
    quadrinomial_discriminant,
    search_family,
)
from monobase.report import ReduciblePolynomialError


def _report(label, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'}  {label}  [{detail}]")
    assert ok, f"{label}: {detail}"


def _primes_up_to(n):
    sieve = bytearray([1]) * (n + 1)
    sieve[0:2] = b"\x00\x00"
    for i in range(2, int(n**0.5) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
    return [i for i, flag in enumerate(sieve) if flag]


def _is_squarefree(m):
    return all(e == 1 for _, e in naive_factor(abs(m)))


def test_degree_seven_template_known_values():
    t0 = time.perf_counter()
    expected_factors = {
        2: ((2, 6), (3, 2), (83, 1), (1069, 1)),
        5: ((3, 1), (5, 6), (253681, 1)),
        7: ((7, 7), (11, 3), (79, 1)),
    }
    ok = True
    for c, (abs_disc, index, monogenic) in EXAMPLE_TRIO.items():
        rep = analyze(trio_spec(c))
        ok = ok and abs(rep.disc_poly) == abs_disc
        ok = ok and rep.disc_poly_factorization.factors == expected_factors[c]
        ok = ok and rep.disc_poly_factorization.is_complete
        ok = ok and (rep.index.kind, rep.index.value) == ("exact", index)
        ok = ok and rep.monogenic == monogenic
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 1.0
    _report(
        "x^7 + c(x+1)^2 for c in {2, 5, 7}: exact |disc f|, index, verdict",
        ok,
        f"3 specs, {elapsed:.2f}s < 1s",
    )


def test_degree_five_template_sensitivity_sweep():
    t0 = time.perf_counter()
    entries = search_family(FamilyTemplate(5), range(-50, 51))
    analyzed = [e for e in entries if not e.skipped]
    # Every squarefree c outside {0, 1, -1} must actually get analyzed.
    ok = not any("unverified" in (e.reason or "") for e in entries)
    ok = ok and len(analyzed) == 60
    for e in analyzed:
        ok = ok and e.monogenic == (
            "yes" if _is_squarefree(3125 - 108 * e.c) else "no"
        )
    by_c = {e.c: e for e in entries}
    for c in (-3, 5, 13, 17, 21):
        ok = ok and not by_c[c].skipped and by_c[c].monogenic == "yes"
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 5.0
    _report(
        "x^5 + c(x+1)^2, c in [-50, 50]: monogenic iff 3125 - 108c squarefree",
        ok,
        f"{len(analyzed)} analyzed, {elapsed:.2f}s < 5s",
    )


def test_case_rules_match_dedekind_oracle_at_scale():
    t0 = time.perf_counter()
    primes = _primes_up_to(10_000)
    rng = random.Random(20260815)
    nonzero = [x for x in range(-20, 21) if x]
    certified = 0
    pairs = 0
    mismatches = []
    fallbacks = 0
    for _ in range(40_000):
        if certified >= 5000:
            break
        spec = generate_spec(
            rng.choice(nonzero), rng.choice(nonzero), rng.randint(-20, 20),
            rng.randint(3, 12),
        )
        disc = quadrinomial_discriminant(spec)
        if disc == 0:
            continue
        f = spec.polynomial()
        if irreducibility_check(f).status != "irreducible":
            continue
        certified += 1
        for p in primes:
            if disc % p != 0:
                continue
            verdict = prime_divides_index(spec, p, disc)
            if verdict.source != "theorem":
                fallbacks += 1
            divides, _ = dedekind_divides_index(f, p)
            pairs += 1
            if verdict.passes != (not divides):
                mismatches.append((spec, p))
    elapsed = time.perf_counter() - t0
    ok = (
        certified >= 5000
        and not mismatches
        and fallbacks == 0
        and elapsed < 120.0
    )
    _report(
        "case rules == negated Dedekind for every p <= 10^4 dividing disc f",
        ok,
        f"{certified} certified specs, {pairs} (spec, p) pairs, "
        f"{len(mismatches)} mismatches, {elapsed:.1f}s < 120s",
    )


def test_closed_form_discriminant_equals_resultant():
    t0 = time.perf_counter()
    specs = random_specs(seed=414, count=1200, n_range=(3, 12), coeff_bound=14)
    bad = [
        s
        for s in specs
        if quadrinomial_discriminant(s) != discriminant_via_resultant(s.polynomial())
    ]
    elapsed = time.perf_counter() - t0
    ok = len(specs) >= 1000 and not bad and elapsed < 30.0
    _report(
        "closed-form disc == resultant-route disc",
        ok,
        f"{len(specs)} specs, {len(bad)} unequal, {elapsed:.1f}s < 30s",
    )


def test_double_root_test_equals_square_divisibility():
    t0 = time.perf_counter()
    primes = _primes_up_to(200)
    checks = 0
    bad = []
    for spec in random_specs(seed=515, count=320, n_range=(3, 12)):
        disc = quadrinomial_discriminant(spec)
        for p in primes:
            if (spec.b * (spec.n - 2)) % p == 0:
                continue
            checks += 1
            if double_root_divisibility_test(spec, p) != (disc % (p * p) == 0):
                bad.append((spec, p))
    elapsed = time.perf_counter() - t0
    ok = checks >= 10_000 and not bad and elapsed < 30.0
    _report(
        "double-root test == [p^2 | disc f] for p <= 200 coprime to b(n-2)",
        ok,
        f"{checks} checks, {len(bad)} mismatches, {elapsed:.1f}s < 30s",
    )


def test_binomial_rule_coheres_with_dedekind():
    t0 = time.perf_counter()
    checked = 0
    bad = []
    for n in range(3, 13):
        for c in range(-50, 51):
            if c == 0 or not _is_squarefree(c):
                continue
            status, witness = binomial_integral_basis(n, c)
            f = ZPoly(tuple([-c] + [0] * (n - 1) + [1]))
            ps = {p for p, _ in naive_factor(n)}
            if abs(c) > 1:
                ps |= {p for p, _ in naive_factor(abs(c))}
            failing = [p for p in sorted(ps) if dedekind_divides_index(f, p)[0]]
            expected = "not_monogenic" if failing else "monogenic"
            checked += 1
            if status != expected:
                bad.append((n, c))
            elif failing and witness not in failing:
                bad.append((n, c))
    elapsed = time.perf_counter() - t0
    ok = checked >= 600 and not bad
    _report(
        "x^n - c rule == Dedekind on every p | disc, n <= 12, |c| <= 50 squarefree",
        ok,
        f"{checked} pairs, {len(bad)} mismatches, {elapsed:.1f}s",
    )


def test_analyze_on_binomials_matches_the_binomial_criterion():
    # x^n - C is the spec (n, 0, 0, -C): its primes fall under the case rules
    # p | a and c, and p | a only.  The classical x^n - c criterion is an
    # independent oracle for that slice of the family.
    t0 = time.perf_counter()
    checked = 0
    bad = []
    for n in range(3, 16):
        for c in range(-120, 121):
            if c == 0:
                continue
            try:
                rep = analyze(QuadrinomialSpec(n, 0, 0, -c))
            except ReduciblePolynomialError:
                continue
            if rep.irreducibility.status != "irreducible":
                continue
            checked += 1
            status, witness = binomial_integral_basis(n, c)
            failing = {v.p for v in rep.prime_verdicts if not v.case.passes}
            if rep.monogenic != {"monogenic": "yes", "not_monogenic": "no"}[status]:
                bad.append((n, c))
            elif witness is not None and witness not in failing:
                bad.append((n, c))
    elapsed = time.perf_counter() - t0
    ok = checked >= 2900 and not bad
    _report(
        "analyze(x^n - C) == x^n - c criterion, n 3-15, 0 < |C| <= 120, irreducible",
        ok,
        f"{checked} specs, {len(bad)} disagreements {bad[:5]}, {elapsed:.1f}s",
    )


def test_index_squared_times_field_disc_equals_poly_disc():
    reports = [analyze(trio_spec(c)) for c in EXAMPLE_TRIO]
    entries = search_family(FamilyTemplate(5), range(-50, 51))
    reports += [e.report for e in entries if not e.skipped]
    for spec in random_specs(seed=616, count=600, n_range=(3, 10)):
        try:
            reports.append(analyze(spec))
        except ReduciblePolynomialError:
            continue
    exact = 0
    bad = []
    for rep in reports:
        if rep.index.kind != "exact" or rep.abs_disc_field is None:
            continue
        exact += 1
        if abs(rep.disc_poly) != rep.index.value**2 * rep.abs_disc_field.value:
            bad.append(rep.spec)
    ok = exact >= 80 and not bad
    _report(
        "index^2 * |disc K| == |disc f| on every exact report",
        ok,
        f"{len(reports)} reports, {exact} exact, {len(bad)} violations",
    )
