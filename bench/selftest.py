"""Self-test of the benchmark itself.

    python3 bench/selftest.py

For every workload it runs the traced run twice at one seed, in separate
processes, and requires both to be correct, to report every per-layer
metric in BENCHMARK.json, and to agree exactly on every work counter
(every metric whose unit is ``count`` or ``bytes``).  It runs each
workload once untraced and requires every end-to-end metric.  Last, it
copies only BENCHMARK.json and the benchmark's own files to a scratch
directory and requires the benchmark to fail there without a result,
since it has no library to measure.  Exits 1 on the first failure.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 7


def run(args: list[str], cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def result(workload: str, trace: int) -> dict:
    proc = run(["--workload", workload, "--seed", str(SEED), "--seconds", "1",
                "--trace", str(trace)])
    if proc.returncode != 0:
        raise SystemExit(f"{workload} trace={trace}: exit {proc.returncode}\n{proc.stderr}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    if not out["correct"] or out["failed"]:
        raise SystemExit(f"{workload} trace={trace}: not correct\n{proc.stdout}")
    return out["metrics"]


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    for workload in (w["name"] for w in spec["workloads"]):
        first, second = result(workload, 1), result(workload, 1)
        for metrics in (first, second):
            got = {name: m["unit"] for name, m in metrics.items()}
            if got != per_layer:
                raise SystemExit(f"{workload}: per-layer metrics {sorted(got)} != BENCHMARK.json")
        counters = [name for name, unit in per_layer.items() if unit in ("count", "bytes")]
        differ = [name for name in counters if first[name]["value"] != second[name]["value"]]
        if differ:
            raise SystemExit(f"{workload}: work counters differ between runs: {differ}")
        got = {name: m["unit"] for name, m in result(workload, 0).items()}
        if got != end_to_end:
            raise SystemExit(f"{workload}: end-to-end metrics {sorted(got)} != BENCHMARK.json")
        print(f"{workload}: ok ({len(counters)} counters repeat exactly)")

    build = ROOT / ".bench_build"
    build.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(dir=build))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(["--workload", spec["workloads"][0]["name"], "--seed", str(SEED),
                    "--seconds", "1", "--trace", "0"], cwd=bare)
        if proc.returncode == 0 or '"correct"' in proc.stdout:
            raise SystemExit("benchmark without a library did not fail")
    finally:
        shutil.rmtree(bare)
    print("without src/: fails as it should")
    return 0


if __name__ == "__main__":
    sys.exit(main())
