"""Rebuild the committed reference files in perfbench/reference/.

    python3 perfbench/make_reference.py [search_pc|small|mid ...]

search_pc.json and small.json hold the outcome letter of every item the
search_pc, analyze_small and oracle_small workloads can draw, so the
correctness gate covers every seed.  mid.json holds the fixed analyze_mid
list: each spec with its outcome and whether its discriminant factorization
stayed incomplete ("heavy"), the first specs drawn of each group in
workloads.MID_GROUPS.  It also records how many specs of each kind were drawn
and how many of those were heavy, the generator's natural heavy share.

Run it only when the reference itself must change, from a commit whose
verdicts have been checked; the benchmark never rewrites these files.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from monobase import (  # noqa: E402
    AnalysisReport,
    QuadrinomialSpec,
    ReduciblePolynomialError,
    analyze,
    generate_spec,
    quadrinomial_discriminant,
    search_family,
)

import workloads as wl  # noqa: E402

MID_SEED = 20230306


def _write(name: str, doc: dict) -> None:
    path = wl.REFERENCE_DIR / name
    path.parent.mkdir(exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, separators=(",", ":"))
        fh.write("\n")
    print(f"wrote {path}", file=sys.stderr)


def _analysis(spec: QuadrinomialSpec):
    try:
        return analyze(spec)
    except ReduciblePolynomialError as exc:
        return exc


def build_search() -> None:
    letters = []
    for key in range(wl.SEARCH_SPACE):
        n, c = wl.search_params(key)
        letters.append(wl.search_letter(search_family(wl.FamilyTemplate(n), (c,))))
    _write(
        "search_pc.json",
        {"n": list(wl.SEARCH_N), "c_bound": wl.SEARCH_C, "outcomes": "".join(letters)},
    )


def build_small() -> None:
    letters = []
    for key in range(wl.SMALL_SPACE):
        n, u, v, w = wl.small_params(key)
        spec = generate_spec(u, v, w, n)
        if quadrinomial_discriminant(spec) == 0:
            letters.append("0")
        else:
            letters.append(wl.analysis_letter(_analysis(spec)))
    _write(
        "small.json",
        {"n": list(wl.SMALL_N), "bound": wl.SMALL_BOUND, "outcomes": "".join(letters)},
    )


def build_mid() -> None:
    rng = random.Random(f"mid:{MID_SEED}")
    need = wl.MID_GROUPS
    groups: dict = {group: [] for group in need}
    drawn = {kind: {"specs": 0, "heavy": 0} for kind in ("gen", "pc")}
    while any(len(groups[g]) < need[g] for g in need):
        for kind in ("gen", "pc"):
            if all(len(groups[(kind, heavy)]) >= need[(kind, heavy)] for heavy in (True, False)):
                continue
            spec = wl.mid_candidate(rng, kind)
            if quadrinomial_discriminant(spec) == 0:
                continue
            result = _analysis(spec)
            heavy = (
                isinstance(result, AnalysisReport)
                and not result.disc_poly_factorization.is_complete
            )
            drawn[kind]["specs"] += 1
            drawn[kind]["heavy"] += heavy
            if len(groups[(kind, heavy)]) < need[(kind, heavy)]:
                groups[(kind, heavy)].append(
                    {"kind": kind, **spec.to_dict(), "outcome": wl.analysis_letter(result),
                     "heavy": heavy}
                )
            print(f"{kind} {spec} -> {wl.analysis_letter(result)}", file=sys.stderr)
    specs = [spec for group in need for spec in groups[group]]
    _write("mid.json", {"seed": MID_SEED, "drawn": drawn, "specs": specs})


BUILDERS = {"search_pc": build_search, "small": build_small, "mid": build_mid}


def main(argv: list[str]) -> int:
    for name in argv or list(BUILDERS):
        BUILDERS[name]()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
