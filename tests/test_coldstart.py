"""Smoke test of ``tools/coldstart.py``: one pair of two ``--version``
launches of this tree against itself.  Its timings are not checked."""
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_one_pair_against_itself():
    src = str(ROOT / "src")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "coldstart.py"), src, src,
         "--pairs", "1", "--launches", "2", "--argv=--version"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    *_, header, row = proc.stdout.splitlines()
    assert header.split() == ["argv", "old", "ms", "new", "ms", "ratio", "q1", "q3", "won"]
    assert re.fullmatch(r"--version( +\d+\.\d){2}( +\d+\.\d{3}){3} +[01]/1", row)
