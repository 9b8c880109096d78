"""Print one SHA-256 digest per seeded set of analyzer outputs.

    python tools/output_digest.py [--count N]

Each output line reads `name count sha256`.  A set draws its inputs from a
fixed seed, runs one public entry point on each input, and hashes the
`json.dumps(..., sort_keys=True)` of every result, one per line, or of
`{"error": type, "message": str}` when the call raises.  The sets are:

  search          search_family entries plus their reports, on x**n + c*(x+1)**2
                  with n 3-12 and |c| <= 10000;
  analyze         analyze reports on generate_spec specs, n 3-10, |u|,|v|,|w| <= 9;
  oracle          cross_check_with_dedekind on the same kind of specs;
  irreducibility  irreducibility_check on generate_spec specs with n 3-12 and
                  on random monic polynomials of degree 2-12;
  factor          factor_integer on random integers of up to 96 bits at rho
                  budgets 0, 200 and 10**6.

--count sets the number of inputs per set (per kind of input for
irreducibility, per budget for factor).  The script imports the `src/` of the
checkout it sits in, so two checkouts give two digests of the same inputs.
To check that a change leaves every output as its parent commit had it:

    git worktree add ../parent HEAD~1
    mkdir -p ../parent/tools
    cp tools/output_digest.py ../parent/tools/
    python tools/output_digest.py > change.txt
    python ../parent/tools/output_digest.py > parent.txt
    diff parent.txt change.txt && echo identical
    git worktree remove --force ../parent
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from monobase import (  # noqa: E402
    EffortConfig,
    FamilyTemplate,
    ZPoly,
    analyze,
    cross_check_with_dedekind,
    factor_integer,
    generate_spec,
    irreducibility_check,
    search_family,
)

_SEED = 20240305
_NONZERO = [i for i in range(-9, 10) if i]


def _small_spec(rng: random.Random, max_n: int):
    w = rng.randint(-9, 9)
    return generate_spec(rng.choice(_NONZERO), rng.choice(_NONZERO), w, rng.randint(3, max_n))


def _search_inputs(rng: random.Random, count: int) -> list:
    return [(rng.randint(3, 12), rng.randint(-10000, 10000)) for _ in range(count)]


def _search(n_c) -> dict:
    n, c = n_c
    (entry,) = search_family(FamilyTemplate(n), [c])
    return {
        "entry": entry.to_dict(),
        "report": None if entry.report is None else entry.report.to_dict(),
    }


def _spec_inputs(rng: random.Random, count: int) -> list:
    return [_small_spec(rng, 10) for _ in range(count)]


def _irreducibility_inputs(rng: random.Random, count: int) -> list:
    polys = [_small_spec(rng, 12).polynomial() for _ in range(count)]
    for _ in range(count):
        lower = tuple(rng.randint(-30, 30) for _ in range(rng.randint(2, 12)))
        polys.append(ZPoly(lower + (1,)))
    return polys


def _factor_inputs(rng: random.Random, count: int) -> list:
    return [
        (rng.choice((-1, 1)) * rng.randrange(1, 2 ** rng.randint(2, 96)), budget)
        for budget in (0, 200, 10**6)
        for _ in range(count)
    ]


def _factor(m_budget) -> dict:
    m, budget = m_budget
    return factor_integer(m, EffortConfig(rho_iteration_budget=budget)).to_dict()


# name: (the inputs, drawn from the set's seeded rng; one result per input)
SETS = {
    "search": (_search_inputs, _search),
    "analyze": (_spec_inputs, lambda spec: analyze(spec).to_dict()),
    "oracle": (_spec_inputs, cross_check_with_dedekind),
    "irreducibility": (_irreducibility_inputs, lambda f: irreducibility_check(f).to_dict()),
    "factor": (_factor_inputs, _factor),
}


def digest(name: str, count: int) -> tuple[int, str]:
    """(number of results, SHA-256 of their JSON lines) for one set."""
    draw, run = SETS[name]
    inputs = draw(random.Random(f"{_SEED}-{name}"), count)
    h = hashlib.sha256()
    for item in inputs:
        try:
            result = run(item)
        except Exception as exc:  # a raised error is an output too
            result = {"error": type(exc).__name__, "message": str(exc)}
        h.update(json.dumps(result, sort_keys=True).encode())
        h.update(b"\n")
    return len(inputs), h.hexdigest()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Print one SHA-256 digest per seeded output set.")
    parser.add_argument("--count", type=int, default=2000, help="inputs per set (default 2000)")
    args = parser.parse_args(argv)
    if args.count < 1:
        parser.error("--count must be at least 1")
    for name in SETS:
        results, hexdigest = digest(name, args.count)
        print(name, results, hexdigest, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
