"""Golden corpus of irreducibility certificates.

tests/data/irreducibility_golden.json holds irreducibility_check(...).to_dict()
for seeded generate_spec specs (n 3-12, |u|, |v|, |w| <= 9).  A change that
moves any certificate, method name or detail fails here.  Regenerate the file
only for an intended change of certificates:

    PYTHONPATH=src python tests/test_irreducibility_golden.py
"""

import json
import random
from pathlib import Path

from monobase import generate_spec, irreducibility_check
from monobase.polynomials import _degree_pattern

GOLDEN = Path(__file__).resolve().parent / "data" / "irreducibility_golden.json"
SEED = 20230306
COUNT = 600
METHODS = {
    "rational_root",
    "eisenstein",
    "newton_polygon",
    "irreducible_mod_p",
    "factor_degree_patterns",
    "root_free_factor_degree_patterns",
    None,  # unverified
}


def golden_params():
    """(u, v, w, n) of the corpus, in order."""
    rng = random.Random(SEED)
    nonzero = [i for i in range(-9, 10) if i]
    return [
        (rng.choice(nonzero), rng.choice(nonzero), rng.randint(-9, 9), rng.randint(3, 12))
        for _ in range(COUNT)
    ]


def corpus(params=None):
    out = []
    for uvwn in golden_params() if params is None else params:
        status = irreducibility_check(generate_spec(*uvwn).polynomial())
        out.append({"uvwn": list(uvwn), "status": status.to_dict()})
    return out


def serialize(entries) -> str:
    return "[\n" + ",\n".join(json.dumps(e) for e in entries) + "\n]\n"


def test_irreducibility_matches_golden_corpus():
    with open(GOLDEN, encoding="utf-8") as fh:
        expected = json.load(fh)
    assert {entry["status"].get("method") for entry in expected} == METHODS
    assert corpus() == expected


def test_golden_corpus_is_independent_of_pattern_cache_state():
    # Forward from a cold degree-pattern cache, then backward on the warm one:
    # both must reproduce the file byte for byte.
    golden = GOLDEN.read_text(encoding="utf-8")
    _degree_pattern.cache_clear()
    assert serialize(corpus()) == golden
    assert _degree_pattern.cache_info().hits > 0
    backward = corpus(reversed(golden_params()))
    assert serialize(backward[::-1]) == golden


if __name__ == "__main__":
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        fh.write(serialize(corpus()))
