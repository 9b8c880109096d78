"""Seeded workloads for the monobase benchmark.

A workload turns a seed into a list of items, runs one item through the public
API (the timed call), and reduces the result to a one-letter outcome that the
correctness gate compares with the committed reference in ``reference/``.

Outcome letters:

    y n u   analysis verdict yes / no / unknown
    r       documented refusal: ReduciblePolynomialError
    x q w   search skip: c excluded / c not squarefree / squarefreeness undecided
    d v     search skip: reducible / irreducibility unverified
    a D     oracle cross-check: agrees / disagrees at some prime
    E       any other exception (always an error)
    ?       a search skip reason this module does not know (always an error)
    0       (reference only) vanishing discriminant; such specs are never drawn

Inputs depend only on the seed and the committed reference files, never on the
program under test, so every version of the program sees the same items.  A run
that outlasts its item list starts the list again.
"""

from __future__ import annotations

import json
import random
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from monobase import (
    AnalysisReport,
    FamilyTemplate,
    QuadrinomialSpec,
    ReduciblePolynomialError,
    analyze,
    cross_check_with_dedekind,
    generate_spec,
    search_family,
    squarefree_status,
)

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# Letters that mean "the program could not decide"; a change from a decided
# reference letter to one of these is counted as unknown, not as an error.
UNDECIDED = frozenset("uwv")
# Letters that are wrong whatever the reference says.
ALWAYS_WRONG = frozenset("ED?")

# search_pc: x**n + c*(x + 1)**2 for n in [3, 12], c in [-10000, 10000].  A
# run takes the pairs in a seeded order without repeats; the space is larger
# than a baseline run, so a cache in the program would find no repeats to hit.
SEARCH_N = (3, 12)
SEARCH_C = 10_000
SEARCH_SPACE = (SEARCH_N[1] - SEARCH_N[0] + 1) * (2 * SEARCH_C + 1)

# analyze_small / oracle_small: generate_spec(u, v, w, n) with n in [3, 10],
# u, v in [-9, 9] \ {0}, w in [-9, 9], drawn without repeats.
SMALL_N = (3, 10)
SMALL_BOUND = 9
SMALL_NONZERO = tuple(i for i in range(-SMALL_BOUND, SMALL_BOUND + 1) if i)
SMALL_SPACE = (SMALL_N[1] - SMALL_N[0] + 1) * len(SMALL_NONZERO) ** 2 * (2 * SMALL_BOUND + 1)
SMALL_ITEMS = 25_000
ORACLE_ITEMS = 10_000

# analyze_mid: generate_spec specs ("gen", n in [20, 40], coefficients up to
# 99) and pc specs ("pc", n in [20, 40], squarefree 2 <= |c| <= 99), a fixed
# list committed in reference/mid.json.  "heavy" specs leave a composite
# discriminant cofactor after the whole rho budget; the rest factor fully.
# MID_GROUPS gives the number of specs of each (kind, heavy) group: 3 heavy
# (the tail) and 59 light (the median).  The seed only shuffles the list.  A
# pass through it takes about 5 s, so a 25-second run makes several, and
# run.py reads the figures from complete passes: every run times the same
# specs.
MID_N = (20, 40)
MID_BOUND = 99
MID_GROUPS = {
    ("gen", True): 1,
    ("pc", True): 2,
    ("gen", False): 8,
    ("pc", False): 51,
}


def _load(name: str) -> dict:
    with open(REFERENCE_DIR / name, encoding="utf-8") as fh:
        return json.load(fh)


# --- outcome letters -------------------------------------------------------

_VERDICT_LETTER = {"yes": "y", "no": "n", "unknown": "u"}

_SKIP_PREFIXES = (
    ("c = ", "x"),
    ("c is divisible by", "q"),
    ("squarefreeness of c undecided", "w"),
    ("reducible:", "d"),
    ("irreducibility unverified", "v"),
)


def analysis_letter(result) -> str:
    if isinstance(result, AnalysisReport):
        return _VERDICT_LETTER.get(result.monogenic, "?")
    if isinstance(result, ReduciblePolynomialError):
        return "r"
    return "E"


def search_letter(result) -> str:
    if isinstance(result, BaseException):
        return "E"
    (entry,) = result
    if not entry.skipped:
        return _VERDICT_LETTER.get(entry.monogenic, "?")
    for prefix, letter in _SKIP_PREFIXES:
        if entry.reason.startswith(prefix):
            return letter
    return "?"


def oracle_letter(result) -> str:
    if isinstance(result, BaseException):
        return "E"
    return "D" if result else "a"


# --- seeded item generators ------------------------------------------------


def search_params(key: int) -> tuple[int, int]:
    """(n, c) of a search_pc key, the position in the search reference."""
    n, c = divmod(key, 2 * SEARCH_C + 1)
    return n + SEARCH_N[0], c - SEARCH_C


def small_params(key: int) -> tuple[int, int, int, int]:
    """(n, u, v, w) of a small-space key, the position in the small reference."""
    rest, w = divmod(key, 2 * SMALL_BOUND + 1)
    rest, iv = divmod(rest, len(SMALL_NONZERO))
    n, iu = divmod(rest, len(SMALL_NONZERO))
    return n + SMALL_N[0], SMALL_NONZERO[iu], SMALL_NONZERO[iv], w - SMALL_BOUND


class KeyItems:
    """Items whose call argument is the key itself, without a tuple each."""

    def __init__(self, keys) -> None:
        self.keys = keys

    def __len__(self) -> int:
        return len(self.keys)

    def __getitem__(self, i):
        key = self.keys[i]
        return key, key


def search_items(seed: int) -> KeyItems:
    keys = array("i", range(SEARCH_SPACE))
    random.Random(f"search_pc:{seed}").shuffle(keys)
    return KeyItems(keys)


def small_items(tag: str, seed: int, count: int, reference: str) -> list:
    keys = [key for key, letter in enumerate(reference) if letter != "0"]
    random.Random(f"{tag}:{seed}").shuffle(keys)
    items = []
    for key in keys[:count]:
        n, u, v, w = small_params(key)
        items.append((key, generate_spec(u, v, w, n)))
    return items


def mid_candidate(rng: random.Random, kind: str) -> QuadrinomialSpec:
    """One analyze_mid spec of the given kind; used to build the list."""
    n = rng.randint(*MID_N)
    if kind == "gen":
        nonzero = [i for i in range(-MID_BOUND, MID_BOUND + 1) if i]
        return generate_spec(
            rng.choice(nonzero), rng.choice(nonzero), rng.randint(-MID_BOUND, MID_BOUND), n
        )
    while True:
        c = rng.choice([i for i in range(-MID_BOUND, MID_BOUND + 1) if abs(i) > 1])
        if squarefree_status(c).is_squarefree:
            return FamilyTemplate(n).spec(c)


def mid_items(seed: int, specs: list[dict]) -> list:
    """The fixed list in a seeded order."""
    order = list(range(len(specs)))
    random.Random(f"analyze_mid:{seed}").shuffle(order)
    return [
        (i, QuadrinomialSpec(specs[i]["n"], specs[i]["a"], specs[i]["b"], specs[i]["c"]))
        for i in order
    ]


# --- workloads ---------------------------------------------------------------

_TEMPLATES = {n: FamilyTemplate(n) for n in range(SEARCH_N[0], SEARCH_N[1] + 1)}


def _search_call(key):
    n, c = search_params(key)
    return search_family(_TEMPLATES[n], (c,))


# The timed calls look the API function up at call time, so the wrappers that
# the traced run installs on this module's bindings are the ones called.
def _analyze_call(spec):
    return analyze(spec)


def _oracle_call(spec):
    return cross_check_with_dedekind(spec)


def _search_reports(result) -> list:
    return [e.report for e in result if e.report is not None]


def _analysis_reports(result) -> list:
    return [result] if isinstance(result, AnalysisReport) else []


@dataclass(frozen=True)
class Workload:
    """How one workload makes, runs and judges its items."""

    name: str
    # Fixed per workload so the statistic means the same thing on every
    # commit; chosen so a baseline run has at least ten samples beyond it
    # (analyze_mid: ten in each pass through its list).
    tail_pct: float
    # Leading items whose analysed specs are re-checked against the Dedekind
    # criterion after the timed loop (bounds the gate's cost).
    gate_items: int
    items: Callable[[int], list]  # seed -> [(reference key, call argument)]
    call: Callable  # call argument -> result; the timed public-API call
    letter: Callable  # result or raised exception -> outcome letter
    expected: Callable  # reference key -> expected letter
    reports: Callable  # result -> AnalysisReports for the Dedekind gate
    # Seconds of items between two timings of run.py's calibration loop.  On
    # a shared CPU another tenant can slow single items of a few ms each, so
    # analyze_mid, whose median item takes that long and whose pass is
    # mostly long items, times it after every item.
    cal_interval_s: float = 0.25


def build_workloads() -> dict[str, Workload]:
    search_ref = _load("search_pc.json")["outcomes"]
    small_ref = _load("small.json")["outcomes"]
    mid = _load("mid.json")["specs"]

    return {
        w.name: w
        for w in (
            Workload(
                "search_pc",
                99.0,
                800,
                search_items,
                _search_call,
                search_letter,
                lambda key: search_ref[key],
                _search_reports,
            ),
            Workload(
                "analyze_small",
                99.0,
                400,
                lambda seed: small_items("analyze_small", seed, SMALL_ITEMS, small_ref),
                _analyze_call,
                analysis_letter,
                lambda key: small_ref[key],
                _analysis_reports,
            ),
            Workload(
                "analyze_mid",
                83.0,
                30,
                lambda seed: mid_items(seed, mid),
                _analyze_call,
                analysis_letter,
                lambda key: mid[key]["outcome"],
                _analysis_reports,
                cal_interval_s=0.0,
            ),
            Workload(
                "oracle_small",
                99.0,
                0,
                lambda seed: small_items("oracle_small", seed, ORACLE_ITEMS, small_ref),
                _oracle_call,
                oracle_letter,
                lambda key: "a",
                lambda result: [],
            ),
        )
    }
