"""tools/output_digest.py: one digest per seeded output set, the same every
run and the same as the lines pinned in tests/data."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "tools" / "output_digest.py"
PINNED = ROOT / "tests" / "data" / "output_digest_30.txt"


def test_output_digest_is_deterministic():
    runs = [
        subprocess.run(
            [sys.executable, str(SCRIPT), "--count", "30"],
            capture_output=True,
            text=True,
            check=True,
            timeout=120,
        ).stdout
        for _ in range(2)
    ]
    assert runs[0] == runs[1]
    lines = [line.split() for line in runs[0].splitlines()]
    assert [(name, int(count)) for name, count, _ in lines] == [
        ("search", 30),
        ("analyze", 30),
        ("oracle", 30),
        ("dedekind", 60),
        ("irreducibility", 90),
        ("factor", 90),
    ]
    assert all(len(sha) == 64 for _, _, sha in lines)
    # An intended output change regenerates the pinned lines (see the
    # script's docstring); any other change to them is a regression.
    assert runs[0] == PINNED.read_text()
