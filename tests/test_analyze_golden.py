"""Golden corpus of end-to-end outputs.

tests/data/analyze_golden.json holds, one JSON document per line:
- analyze(...).to_dict() for the paper trio x^7 + c(x + 1)^2, c in {2, 5, 7};
- search_family(FamilyTemplate(5), range(-50, 51)) entries, with their reports;
- analyze(...).to_dict() (or the error it raises) for seeded generate_spec
  specs (n 3-10, |u|, |v|, |w| <= 9);
- factor_mod_p(...).to_dict(), degree_pattern_mod_p and, for monic f of
  degree >= 1, the Dedekind verdict and witness, for seeded (f, p) pairs of
  degree 0-12, constants included.

The test compares the rendered text with the file byte for byte, so a
refactor that moves any verdict, index, factor order or witness fails here.
Regenerate the file only for an intended change of output:

    PYTHONPATH=src python tests/test_analyze_golden.py
"""

import json
import random
from pathlib import Path

from monobase import (
    FamilyTemplate,
    ZPoly,
    analyze,
    dedekind_divides_index,
    factor_mod_p,
    generate_spec,
    search_family,
)
from monobase.polynomials import degree_pattern_mod_p

GOLDEN = Path(__file__).resolve().parent / "data" / "analyze_golden.json"
SEED = 20230307
SPEC_COUNT = 320
POLY_COUNT = 300
POLY_PRIMES = (2, 3, 5, 7, 11, 13)


def _analyze_doc(spec):
    try:
        return analyze(spec).to_dict()
    except ValueError as exc:  # ReduciblePolynomialError is a ValueError
        return {"error": f"{type(exc).__name__}: {exc}"}


def _spec_docs(rng):
    nonzero = [i for i in range(-9, 10) if i]
    out = []
    for _ in range(SPEC_COUNT):
        params = (rng.choice(nonzero), rng.choice(nonzero), rng.randint(-9, 9), rng.randint(3, 10))
        report = _analyze_doc(generate_spec(*params))
        out.append({"kind": "spec", "uvwn": list(params), "report": report})
    return out


def _poly_docs(rng):
    out = []
    for i in range(POLY_COUNT):
        p = rng.choice(POLY_PRIMES)
        deg = rng.randint(0, 12)
        # One pair in five is not monic, with lc(f) a unit mod p.
        lead = 1 if i % 5 else rng.choice([k for k in (-1, 2, 3, 6) if k % p])
        f = ZPoly(tuple(rng.randint(-30, 30) for _ in range(deg)) + (lead,))
        doc = {
            "kind": "poly",
            "f": list(f.coeffs),
            "p": p,
            "factorization": factor_mod_p(f, p).to_dict(),
            "pattern": degree_pattern_mod_p(f, p),
        }
        if f.is_monic and f.degree >= 1:
            divides, witness = dedekind_divides_index(f, p)
            doc["dedekind"] = {"divides": divides, "witness": witness.to_dict()}
        out.append(doc)
    return out


def corpus():
    out = [
        {"kind": "trio", "c": c, "report": analyze(FamilyTemplate(7).spec(c)).to_dict()}
        for c in (2, 5, 7)
    ]
    for entry in search_family(FamilyTemplate(5), range(-50, 51)):
        doc = {"kind": "search", "entry": entry.to_dict()}
        if entry.report is not None:
            doc["report"] = entry.report.to_dict()
        out.append(doc)
    rng = random.Random(SEED)
    return out + _spec_docs(rng) + _poly_docs(rng)


def render(docs):
    return "".join(json.dumps(d, sort_keys=True) + "\n" for d in docs)


def test_outputs_match_golden_corpus():
    expected = GOLDEN.read_text(encoding="utf-8")
    actual = render(corpus())
    if actual != expected:
        # Name the first differing document rather than dumping the file.
        for i, (a, e) in enumerate(zip(actual.splitlines(), expected.splitlines())):
            assert a == e, f"document {i} differs"
    assert actual == expected


if __name__ == "__main__":
    GOLDEN.write_text(render(corpus()), encoding="utf-8")
