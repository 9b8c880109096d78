"""Set-up time of a fresh interpreter: import monobase plus one first call.

    python3 perfbench/setup_probe.py WORKLOAD
    python3 perfbench/setup_probe.py reference

prints the seconds from just before ``import monobase`` to the end of the
workload's first call, which also completes lazy set-up such as the
trial-division prime table.  With ``reference`` it instead times a fixed
start that does not touch monobase: importing a set of standard-library
modules and building a list, the yardstick run.py divides set-up times by.
run.py starts both several times per run and reports the median ratio as
``setup_s``.
"""

import sys
import time
from pathlib import Path


def first_call(monobase, workload: str) -> None:
    """One small call into the API the workload drives."""
    spec = monobase.QuadrinomialSpec(7, 5, 10, 5)
    if workload == "search_pc":
        monobase.search_family(monobase.FamilyTemplate(7), (5,))
    elif workload == "oracle_small":
        monobase.cross_check_with_dedekind(spec)
    else:
        monobase.analyze(spec)


def reference_start() -> None:
    import argparse, csv, decimal, difflib, email.message, fractions  # noqa: E401, F401
    import http.client, json, logging, statistics, tarfile, unittest  # noqa: E401, F401
    import xml.dom.minidom, zipfile  # noqa: E401, F401

    [i * i % 1009 for i in range(100_000)]


if __name__ == "__main__":
    t0 = time.perf_counter()
    if sys.argv[1] == "reference":
        reference_start()
    else:
        sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
        t0 = time.perf_counter()
        import monobase

        first_call(monobase, sys.argv[1])
    print(repr(time.perf_counter() - t0))
