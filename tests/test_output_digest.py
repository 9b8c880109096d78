"""tools/output_digest.py: one digest per seeded output set, the same every run."""

import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "output_digest.py"


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
        ("irreducibility", 60),
        ("factor", 90),
    ]
    assert all(len(sha) == 64 for _, _, sha in lines)
