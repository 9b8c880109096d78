"""Self-check of the benchmark harness.

    python3 perfbench/selfcheck.py

Checks that

  1. every workload in BENCHMARK.json, run for one second untraced and traced,
     ends with a correct result line that has exactly the keys correct,
     attempted, failed and metrics, and every metric BENCHMARK.json names for
     that mode, with its unit;
  2. in a copy of the checkout where one reference verdict that the run will
     meet is flipped, run.py reports correct=false and failed >= 1;
  3. in a directory holding only BENCHMARK.json and perfbench/, the benchmark
     exits non-zero without printing a result line.

Prints one line per check and exits non-zero if any fails.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def _result_line(stdout: str):
    lines = stdout.strip().splitlines()
    try:
        doc = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None
    return doc if isinstance(doc, dict) and set(doc) == RESULT_KEYS else None


def _run(workload: str, trace: int, cwd: Path) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", "1", "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def check_result_lines(bench: dict) -> list[str]:
    problems = []
    for workload in (w["name"] for w in bench["workloads"]):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            out = _run(workload, trace, ROOT)
            doc = _result_line(out.stdout)
            label = f"{workload} --trace {trace}"
            if out.returncode != 0 or doc is None:
                problems.append(f"{label}: exit {out.returncode}, no result line\n{out.stderr}")
                continue
            if not doc["correct"] or doc["failed"] or doc["attempted"] < 1:
                problems.append(f"{label}: correct={doc['correct']} failed={doc['failed']} "
                                f"attempted={doc['attempted']}")
            want = {m["name"]: m["unit"] for m in bench[section]}
            got = {k: v.get("unit") for k, v in doc["metrics"].items()}
            if got != want:
                problems.append(f"{label}: metrics {sorted(set(got) ^ set(want))} missing or "
                                f"extra, or units differ")
    return problems


@contextmanager
def _copy(name: str, with_program: bool):
    """A temporary copy of the benchmark, with or without src/, removed after."""
    root = ROOT / ".perfbench-out" / name
    shutil.rmtree(root, ignore_errors=True)
    ignore = shutil.ignore_patterns("__pycache__")
    try:
        shutil.copytree(HERE, root / "perfbench", ignore=ignore)
        shutil.copy(ROOT / "BENCHMARK.json", root / "BENCHMARK.json")
        if with_program:
            shutil.copytree(ROOT / "src", root / "src", ignore=ignore)
        yield root
    finally:
        shutil.rmtree(root, ignore_errors=True)


def check_flipped_reference() -> list[str]:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import workloads

    # The first decided analyze_small item of seed 1 is met within a second.
    ref_path = Path("perfbench") / "reference" / "small.json"
    ref = json.loads((ROOT / ref_path).read_text(encoding="utf-8"))
    keys = (key for key, _ in workloads.build_workloads()["analyze_small"].items(1))
    key = next(k for k in keys if ref["outcomes"][k] in "yn")
    flipped = {"y": "n", "n": "y"}[ref["outcomes"][key]]
    ref["outcomes"] = ref["outcomes"][:key] + flipped + ref["outcomes"][key + 1:]
    with _copy("selfcheck-flipped", with_program=True) as root:
        (root / ref_path).write_text(json.dumps(ref, separators=(",", ":")) + "\n",
                                     encoding="utf-8")
        out = _run("analyze_small", 0, root)
    doc = _result_line(out.stdout)
    if out.returncode != 0 or doc is None or doc["correct"] or doc["failed"] < 1:
        return [f"flipped reference verdict of key {key}: exit {out.returncode}, "
                f"result {out.stdout.strip().splitlines()[-1:]}"]
    return []


def check_bare_directory() -> list[str]:
    with _copy("selfcheck-bare", with_program=False) as root:
        out = _run("analyze_small", 0, root)
    if out.returncode == 0 or _result_line(out.stdout) is not None:
        return [f"without the program: exit {out.returncode}, stdout {out.stdout[-200:]!r}"]
    return []


def main() -> int:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    failed = False
    for name, check in (
        ("result lines", lambda: check_result_lines(bench)),
        ("flipped reference verdict", check_flipped_reference),
        ("directory without the program", check_bare_directory),
    ):
        problems = check()
        print(f"{'FAIL' if problems else 'ok  '} {name}")
        for problem in problems:
            print(f"     {problem}")
        failed = failed or bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
