"""Run the benchmark over several seeds and summarise it as JSON.

    python3 perfbench/record.py --seeds 1-10 [--workloads a,b] [--seconds S] [--out FILE]

For each workload, runs run.py untraced once per seed, then traced once on the
first seed.  For every end-to-end metric it writes the per-seed values, the
median, the quartiles (statistics.quantiles, n=4) and the spread, which is the
distance between the quartiles divided by the median.  The spread is compared
with the metric's bound in BENCHMARK.json.  It also writes the traced run's
per-layer metrics.  A run that is not correct stops the recording.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    result = json.loads(out.stdout.strip().splitlines()[-1]) if out.returncode == 0 else None
    if not result or not result["correct"]:
        sys.exit(f"{' '.join(cmd)} failed:\n{out.stdout}\n{out.stderr}")
    return result


def main() -> int:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", type=_seeds)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    doc = {
        "seeds": args.seeds,
        "seconds": args.seconds,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cores": os.cpu_count(),
        "workloads": {},
    }
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        for seed in args.seeds:
            for name, metric in _run(workload, seed, args.seconds, 0)["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        summary = {}
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            summary[name] = {"median": med, "q1": q1, "q3": q3,
                             "spread": (q3 - q1) / med, "bound": bounds[name], "values": vals}
            print(f"{workload} {name}: median {med:.6g}, spread {(q3 - q1) / med:.3f} "
                  f"(bound {bounds[name]})", flush=True)
        traced = _run(workload, args.seeds[0], args.seconds, 1)["metrics"]
        doc["workloads"][workload] = {
            "end_to_end": summary,
            "per_layer": {name: m["value"] for name, m in traced.items()},
        }
    text = json.dumps(doc, indent=1) + "\n"
    if args.out:
        args.out.write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
