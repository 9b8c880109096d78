"""Correctness gate of the benchmark.

An item fails when

  * its outcome letter is always wrong (an unexpected exception, an oracle
    disagreement, an unknown skip reason), or
  * it is decided and contradicts the committed reference for its item.  A
    change between a decided letter and an undecided one ("unknown", or an
    undecided search skip) is not an error; it shows in the unknown counts.

Two further checks do not lean on the reference, which was made by the
program itself:

  * every case-rule verdict at a discriminant prime below the trial-division
    bound, on the first analysed specs of the run, must agree with the
    Dedekind criterion, and
  * the paper's x^7 + c(x+1)^2 examples must give index 3, 1 and 11 for
    c = 2, 5 and 7.

The loop compares each outcome with the reference right after its timed call,
so it keeps counters instead of every outcome.  The other two checks run after
the timed loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from monobase import (
    DEFAULT_EFFORT,
    QuadrinomialSpec,
    analyze,
    dedekind_divides_index,
)

from workloads import ALWAYS_WRONG, UNDECIDED

PAPER_TRIO = {2: 3, 5: 1, 7: 11}


@dataclass
class GateResult:
    # Items that failed, as (loop, position); empty on a correct run, so the
    # gate's memory does not grow with the number of items run.
    failed: set = field(default_factory=set)
    mismatches: int = 0
    always_wrong: int = 0
    undecided: int = 0  # items answered undecided where the reference decided
    dedekind_specs: int = 0
    dedekind_checks: int = 0
    dedekind_failures: list = field(default_factory=list)
    trio_failures: list = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return not self.failed and not self.trio_failures

    def check_item(self, item, letter: str, want: str) -> None:
        """Compare one outcome letter with the reference letter for its item."""
        if letter == want:
            return
        if letter in ALWAYS_WRONG:
            self.always_wrong += 1
            self.failed.add(item)
        elif letter in UNDECIDED:
            self.undecided += 1
        elif want not in UNDECIDED:
            self.mismatches += 1
            self.failed.add(item)


def check_dedekind(result: GateResult, kept, reports) -> None:
    """Case-rule verdicts of the kept (item, result) pairs against the
    Dedekind criterion."""
    bound = DEFAULT_EFFORT.trial_division_bound
    seen = set()
    for item, value in kept:
        for report in reports(value):
            if report.spec in seen:
                continue
            seen.add(report.spec)
            f = report.spec.polynomial()
            for verdict in report.prime_verdicts:
                if verdict.p >= bound:
                    continue
                divides, _ = dedekind_divides_index(
                    f, verdict.p, seed=DEFAULT_EFFORT.rng_seed
                )
                result.dedekind_checks += 1
                if divides == verdict.case.passes:
                    result.dedekind_failures.append((str(report.spec), verdict.p))
                    result.failed.add(item)
    result.dedekind_specs = len(seen)


def check_paper_trio(result: GateResult) -> None:
    for c, index in PAPER_TRIO.items():
        report = analyze(QuadrinomialSpec(7, c, 2 * c, c))
        if report.index.kind != "exact" or report.index.value != index:
            result.trio_failures.append(
                f"x^7 + {c}(x+1)^2: index {report.index.to_dict()}, expected {index}"
            )
