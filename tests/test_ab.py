"""Smoke test of ``tools/ab.py``: one pair of one soundness_sweep block of
this tree against itself.  Its timings are not checked."""
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_one_pair_against_itself():
    src = str(ROOT / "src")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ab.py"), src, src,
         "--workload", "soundness_sweep", "--pairs", "1", "--blocks", "1"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    *_, pair, header, old, new, ratio = proc.stdout.splitlines()
    assert re.fullmatch(
        r"pair 1 \(old first\): old \d+\.\d/s new \d+\.\d/s ratio \d+\.\d{3}", pair)
    assert header.split() == ["tree", "items/s", "p50", "ms", "p95", "ms"]
    for name, row in (("old", old), ("new", new)):
        assert re.fullmatch(name + r" +\d+\.\d +\d+\.\d{3} +\d+\.\d{3}", row)
    assert re.fullmatch(r"ratio \d+\.\d{3} q1 \d+\.\d{3} q3 \d+\.\d{3} won [01]/1", ratio)


def test_a_failed_check_stops_the_run(tmp_path):
    # A tree whose tail is off by one point fails soundness_sweep's exact check.
    src = tmp_path / "src"
    package = src / "tailbounds"
    package.mkdir(parents=True)
    for path in (ROOT / "src" / "tailbounds").glob("*.py"):
        (package / path.name).write_text(path.read_text())
    core = package / "dist_core.py"
    core.write_text(core.read_text().replace("_threshold_tails(p, [a])[0]",
                                             "_threshold_tails(p, [a + 1])[0]"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ab.py"), str(ROOT / "src"), str(src),
         "--workload", "soundness_sweep", "--pairs", "1", "--blocks", "1"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 1
    assert f"soundness_sweep under {src} failed" in proc.stderr
    assert "CheckFailed" in proc.stderr
