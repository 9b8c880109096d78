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


def corpus():
    out = []
    for params in golden_params():
        status = irreducibility_check(generate_spec(*params).polynomial())
        out.append({"uvwn": list(params), "status": status.to_dict()})
    return out


def test_irreducibility_matches_golden_corpus():
    with open(GOLDEN, encoding="utf-8") as fh:
        expected = json.load(fh)
    assert {entry["status"].get("method") for entry in expected} == METHODS
    assert corpus() == expected


if __name__ == "__main__":
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        fh.write("[\n" + ",\n".join(json.dumps(e) for e in corpus()) + "\n]\n")
