"""Benchmark of monobase: one workload, one seed, one closed-loop run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One caller, one thread: each item is sent only after the previous one has
returned.  Items come from the seeded generators in workloads.py and go
through the public API only.

--trace 0 reports the end-to-end metrics: set-up time of a fresh interpreter
(median of several, each relative to a fixed reference start; see
SETUP_REF_S), items per second, median and tail latency, and peak RSS.  Item
times are scaled to a reference CPU speed by a calibration loop (see
CAL_REF_S); the raw wall-clock figures are printed too.  The loop keeps
fixed-size histograms and counters, not a record per item, so peak RSS does
not grow with the number of items run.  A run that goes through its whole
item list (analyze_mid) takes these figures from its complete passes only.
--trace 1 alternates one-second slices without and with spans around each
layer's public functions (spans.py), and reports the per-layer metrics, per
traced item, plus the tracing overhead; the spans are written to
.perfbench-out/.

Either way each outcome passes through the correctness gate (gates.py) as it
comes, and the gate's other checks run after the timed loop.  The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the lines before it say what was run
and give each figure with its base.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from array import array
from dataclasses import asdict, dataclass, field
from itertools import accumulate
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench-out"
SETUP_REPS = 9
# The set-up time of a fresh interpreter varied by up to 1.4x from one run to
# the next while the calibration loop below stayed put, so set-up is measured
# against its own yardstick: each start of the program is divided by the start
# of a fresh interpreter running a fixed standard-library workload right
# after it, and setup_s is SETUP_REF_S times the median of those ratios, in
# seconds of a machine on which that reference start takes SETUP_REF_S.
SETUP_REF_S = 0.09
TRACE_SLICE_S = 1.0
# A CPU shared with other tenants can drift in speed by 1.7x over tens of
# seconds.  After every cal_interval_s of items (a workload's setting) the
# loop times a fixed pure-Python loop, and it scales the item times of that
# window by CAL_REF_S / the mean of the loop's times at the window's two
# ends, so the timing metrics are in seconds of a reference CPU on which the
# calibration takes CAL_REF_S.  Raw wall-clock figures are printed alongside.
CAL_REF_S = 2.0e-3
# A window also ends after this many items, which bounds its latency buffer.
WINDOW_ITEMS = 2048


# Operands of the calibration loop's big-integer part: a 127-bit prime
# modulus, as in a rho step, and a 634-bit number and the odd primes below
# 2000, as in trial division.
CAL_MODULUS = (1 << 127) - 1
CAL_DIVIDEND = 3 ** 400
CAL_PRIMES = tuple(
    p for p in range(3, 2000, 2) if all(p % q for q in range(3, math.isqrt(p) + 1, 2))
)


def calibration_s() -> float:
    """Best of two timings of a fixed pure-Python loop.

    It does the program's kinds of work: small-integer arithmetic, squarings
    modulo a big prime and remainders of a big number by small primes.  On
    analyze_mid, passes through the list scaled by the small-integer part
    alone were up to 3% apart; with the big-integer part, up to 2%.
    """
    best = float("inf")
    for _ in range(2):
        t0 = time.perf_counter()
        x = 0
        for i in range(10_000):
            x = (x * 31 + i) % 1_000_003
        y = 2
        for _ in range(2_000):
            y = (y * y + 1) % CAL_MODULUS
        for p in CAL_PRIMES:
            x += CAL_DIVIDEND % p
        best = min(best, time.perf_counter() - t0)
    return best


class Histogram:
    """Counts of durations in fixed logarithmic buckets.

    Buckets are 0.1% wide from 100 ns to about five hours, so the memory is
    fixed and a percentile read from it is within 0.05% of the exact one.
    """

    LOW = 1e-7
    STEP = math.log1p(1e-3)
    SIZE = 24_000

    def __init__(self) -> None:
        self.counts = array("q", bytes(8 * self.SIZE))
        self.count = 0

    def add(self, seconds: float) -> None:
        index = int(math.log(max(seconds, self.LOW) / self.LOW) / self.STEP)
        self.counts[min(index, self.SIZE - 1)] += 1
        self.count += 1

    def percentile(self, pct: float) -> tuple[float, int]:
        """Nearest-rank percentile (the bucket's geometric middle) and the
        number of samples above its rank."""
        rank = min(max(1, math.ceil(self.count * pct / 100)), self.count)
        for index, seen in enumerate(accumulate(self.counts)):
            if seen >= rank:
                return self.LOW * math.exp((index + 0.5) * self.STEP), self.count - rank
        raise ValueError("empty histogram")

    def merge(self, other: "Histogram") -> None:
        for index, seen in enumerate(other.counts):
            if seen:
                self.counts[index] += seen
        self.count += other.count


@dataclass
class Tally:
    """Latencies and time of a set of items, in memory that does not grow with
    their number."""

    raw: Histogram = field(default_factory=Histogram)  # wall seconds
    scaled: Histogram = field(default_factory=Histogram)  # reference seconds
    count: int = 0
    scaled_elapsed: float = 0.0  # reference seconds in items, calibration excluded

    def merge(self, other: "Tally") -> None:
        self.raw.merge(other.raw)
        self.scaled.merge(other.scaled)
        self.count += other.count
        self.scaled_elapsed += other.scaled_elapsed


@dataclass
class Loop:
    """One closed loop's tallies.  Its memory does not grow with the number of
    items run, so peak RSS is the program's and not the harness's.

    A run that goes through its whole item list reads its figures from the
    complete passes only, so every run of it times the same set of items
    whatever the seed and the speed of the machine; `current` holds the pass
    in progress, and all items when no pass is complete."""

    name: str
    kept: list = field(default_factory=list)  # ((loop, position), result) of the first items
    count: int = 0
    elapsed: float = 0.0  # wall seconds in items, calibration excluded
    passes: Tally = field(default_factory=Tally)  # complete passes through the items
    current: Tally = field(default_factory=Tally)  # the items since the last complete pass
    calibrations: Histogram = field(default_factory=Histogram)  # seconds per calibration

    def figures(self) -> Tally:
        return self.passes if self.passes.count else self.current


def timed_loop(workload, items, seconds: float, keep: int, loop: Loop, gate,
               recorder=None) -> None:
    """Run items in order, cycling if needed, from where `loop` stopped until
    `seconds` have passed; judge each outcome with `gate` as it comes."""
    call, letter, expected = workload.call, workload.letter, workload.expected
    kept = loop.kept
    lat = array("d")  # wall seconds of this window's items
    n = len(items)
    clock = time.perf_counter
    # A window is scaled by the mean of the calibrations at its two ends.
    before = calibration_s()
    window = clock()
    deadline = window + seconds
    i = loop.count
    while True:
        key, arg = items[i % n]
        if recorder is not None:
            recorder.item = i
        t0 = clock()
        try:
            result = call(arg)
        except Exception as exc:  # judged by `letter`; the loop keeps going
            result = exc
        t1 = clock()
        lat.append(t1 - t0)
        outcome = letter(result)
        gate.check_item((loop.name, i), outcome, expected(key))
        if outcome == "E":
            print(f"item {i}: {type(result).__name__}: {result}", file=sys.stderr)
        if i < keep:
            kept.append(((loop.name, i), result))
        i += 1
        pass_done = i % n == 0
        if (t1 - window >= workload.cal_interval_s or len(lat) >= WINDOW_ITEMS or pass_done
                or t1 >= deadline):
            cal = calibration_s()
            scale = CAL_REF_S / ((before + cal) / 2)
            before = cal
            loop.calibrations.add(cal)
            tally = loop.current
            for x in lat:
                tally.raw.add(x)
                tally.scaled.add(x * scale)
            tally.count += len(lat)
            tally.scaled_elapsed += (t1 - window) * scale
            del lat[:]
            if pass_done:
                loop.passes.merge(tally)
                loop.current = Tally()
            loop.elapsed += t1 - window
            loop.count = i
            if t1 >= deadline:
                break
            window = clock()


def measure_setup(workload: str) -> tuple[list[float], list[float]]:
    """Set-up times of SETUP_REPS fresh interpreters, each paired with a
    fresh interpreter that runs the fixed standard-library start of
    setup_probe.py, after one untimed pair that warms the bytecode caches.
    Returns the program's and the reference's times in wall seconds."""
    times: tuple[list[float], list[float]] = ([], [])
    for rep in range(SETUP_REPS + 1):
        for kind, out_times in zip((workload, "reference"), times):
            cmd = [sys.executable, str(HERE / "setup_probe.py"), kind]
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=60)
            if out.returncode != 0:
                raise RuntimeError(f"setup probe failed: {out.stderr.strip()}")
            if rep:
                out_times.append(float(out.stdout.strip().splitlines()[-1]))
    return times


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(stats, items: int, overhead: float) -> tuple[dict, list[str]]:
    """Per-layer metrics (value, unit) and a line per figure with its base."""
    metrics: dict = {}
    lines: list[str] = []

    def put(name, value, unit, base):
        metrics[name] = (value, unit)
        lines.append(f"layer {name} = {value:.6g} {unit} ({base})")

    for name, s in stats.items():
        put(f"{name}.self_ms", 1000 * s.self_s / items, "ms/item",
            f"{s.self_s:.4f} s self time / {items} items")
        if name not in ("report.cross_check_with_dedekind", "families.search_family"):
            put(f"{name}.calls", s.calls / items, "calls/item", f"{s.calls} calls / {items} items")

    fac = stats["integer_core.factor_integer"]
    sizes = {b: c for b, c in fac.notes.items() if isinstance(b, int) and b > 0}
    incomplete = sum(sizes.values())
    bits = sum(b * c for b, c in sizes.items())
    put("integer_core.factor_integer.incomplete", incomplete / items, "calls/item",
        f"{incomplete} results with cofactor > 1 / {items} items")
    put("integer_core.factor_integer.cofactor_bits", _ratio(bits, incomplete), "bits",
        f"mean over {incomplete} incomplete results")

    irr = stats["report.irreducibility_check"]
    ana = stats["report.analyze"]
    put("report.irreducibility_check.calls_per_spec", _ratio(irr.calls, ana.calls), "calls/spec",
        f"{irr.calls} calls / {ana.calls} analyze calls")
    put("report.irreducibility_check.certified_rate", _ratio(irr.notes["irreducible"], irr.calls),
        "ratio", f"{irr.notes['irreducible']} certified / {irr.calls} calls")

    pdi = stats["index_criteria.prime_divides_index"]
    put("index_criteria.prime_divides_index.oracle_fallback",
        _ratio(pdi.notes["oracle_fallback"], pdi.calls), "ratio",
        f"{pdi.notes['oracle_fallback']} fallbacks / {pdi.calls} calls")

    exact = sum(c for note, c in ana.notes.items() if note.startswith("exact:"))
    unknown = sum(c for note, c in ana.notes.items() if note.endswith(":unknown"))
    put("report.analyze.exact_index_rate", _ratio(exact, ana.calls), "ratio",
        f"{exact} exact indices / {ana.calls} analyze calls")
    put("report.analyze.unknown_rate", _ratio(unknown, ana.calls), "ratio",
        f"{unknown} unknown verdicts / {ana.calls} analyze calls")
    put("trace.overhead", overhead, "ratio", "traced / untraced seconds per item")
    return metrics, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    sys.path.insert(0, str(ROOT / "src"))
    try:
        import monobase
    except ImportError as exc:
        print(f"perfbench: cannot import monobase from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if ROOT / "src" not in Path(monobase.__file__).resolve().parents:
        print(f"perfbench: monobase imported from {monobase.__file__}, not from this "
              f"checkout's src/", file=sys.stderr)
        return 2

    import gates
    import spans
    import workloads
    from setup_probe import first_call

    known = workloads.build_workloads()
    if args.workload not in known:
        parser.error(f"--workload must be one of {', '.join(known)}")
    workload = known[args.workload]
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "loop": "closed, 1 caller, 1 thread",
        "effort": asdict(monobase.DEFAULT_EFFORT),
        "monobase": monobase.__version__,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "cores": os.cpu_count(),
    }), flush=True)

    setup_times = ([], []) if args.trace else measure_setup(args.workload)
    t0 = time.perf_counter()
    first_call(monobase, args.workload)
    print(f"info first call in this process: {time.perf_counter() - t0:.4f} s (lazy set-up)")
    items = workload.items(args.seed)
    gate = gates.GateResult()

    if args.trace:
        # Untraced and traced slices alternate, each mode with its own cursor
        # through the same items, so both see the same machine conditions.
        recorder = spans.Recorder()
        bindings = spans.Bindings(recorder)
        plain, traced = Loop("untraced"), Loop("traced")
        deadline = time.perf_counter() + args.seconds
        while (left := deadline - time.perf_counter()) > 0:
            timed_loop(workload, items, min(TRACE_SLICE_S, left / 2), workload.gate_items,
                       plain, gate)
            with bindings:
                timed_loop(workload, items, min(TRACE_SLICE_S, left / 2), 0, traced, gate,
                           recorder)
        loops = [plain, traced]
    else:
        loops = [Loop("untraced")]
        timed_loop(workload, items, args.seconds, workload.gate_items, loops[0], gate)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    gates.check_dedekind(gate, loops[0].kept, workload.reports)
    gates.check_paper_trio(gate)
    attempted = sum(loop.count for loop in loops)
    print(
        f"gate {len(gate.failed)} failed of {attempted} items: "
        f"{gate.mismatches} reference mismatches, {gate.always_wrong} errors or "
        f"disagreements, {len(gate.dedekind_failures)} Dedekind disagreements in "
        f"{gate.dedekind_checks} prime checks on {gate.dedekind_specs} specs, "
        f"paper trio {'ok' if not gate.trio_failures else gate.trio_failures}; "
        f"{gate.undecided} items undecided where the reference decided"
    )
    for spec, p in gate.dedekind_failures[:10]:
        print(f"gate Dedekind disagrees with the case rule for {spec} at p = {p}")

    metrics: dict = {}
    if args.trace:
        plain, traced = loops
        per_item = [loop.elapsed / loop.count for loop in loops]
        overhead = per_item[1] / per_item[0]
        print(f"info untraced {plain.count / plain.elapsed:.6g} items/s, "
              f"traced {traced.count / traced.elapsed:.6g} items/s")
        stats = spans.summarize(recorder)
        layer, lines = layer_metrics(stats, traced.count, overhead)
        print("\n".join(lines))
        metrics.update(layer)
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.tsv.gz"
        recorder.write(path)
        print(f"info {len(recorder)} spans written to {path.relative_to(ROOT)}")
    else:
        (loop,) = loops
        tally = loop.figures()
        passes = loop.count // len(items)
        print(f"info figures from {tally.count} of {loop.count} items: "
              + (f"{passes} complete passes through the {len(items)} items" if passes
                 else f"no complete pass through the {len(items)} items"))
        tail, beyond = tally.scaled.percentile(workload.tail_pct)
        cal = loop.calibrations
        print(
            f"info wall clock: {loop.count / loop.elapsed:.6g} items/s, "
            f"p50 {1000 * tally.raw.percentile(50)[0]:.6g} ms, "
            f"p{workload.tail_pct:g} {1000 * tally.raw.percentile(workload.tail_pct)[0]:.6g} ms; "
            f"calibration loop {1000 * cal.percentile(0)[0]:.4f} / "
            f"{1000 * cal.percentile(50)[0]:.4f} / {1000 * cal.percentile(100)[0]:.4f} ms "
            f"(min / median / max of {cal.count}), reference {1000 * CAL_REF_S:g} ms"
        )
        print(f"info set-up wall clock: program {statistics.median(setup_times[0]):.4f} s, "
              f"reference start {statistics.median(setup_times[1]):.4f} s "
              f"(medians of {len(setup_times[0])})")
        e2e = {
            "setup_s": (SETUP_REF_S * statistics.median(a / b for a, b in zip(*setup_times)),
                        "s", f"median of {len(setup_times[0])} fresh-interpreter starts, each "
                        f"over its paired reference start, times {SETUP_REF_S} s"),
            "specs_per_s": (tally.count / tally.scaled_elapsed, "items/s",
                            f"{tally.count} items in {tally.scaled_elapsed:.3f} reference s"),
            "latency_p50_ms": (1000 * tally.scaled.percentile(50)[0], "ms",
                               f"median of {tally.count} items, reference ms"),
            "latency_tail_ms": (1000 * tail, "ms",
                                f"p{workload.tail_pct:g}, {beyond} of {tally.count} items "
                                f"beyond it, reference ms"),
            "peak_rss_mb": (peak_rss_mb, "MiB", "ru_maxrss of this process after the loop"),
        }
        for name, (value, unit, base) in e2e.items():
            print(f"e2e {name} = {value:.6g} {unit} ({base})")
            metrics[name] = (value, unit)
        if beyond < 10:
            print(f"info fewer than 10 samples beyond p{workload.tail_pct:g}; run longer")

    print(json.dumps({
        "correct": gate.correct,
        "attempted": attempted,
        "failed": len(gate.failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
