"""tailbounds benchmark runner.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload from ``workloads`` as a closed loop with one client,
single-threaded, against the library in this checkout's ``src``.  Items
come in whole blocks generated from the seed before they are timed; each
item's result is checked exactly after its timed interval.  Each item is
timed once per round, ``ROUNDS`` rounds in a run, and its fastest time
counts.

``--trace 0`` measures the end-to-end metrics: ``setup_s`` (median cold
start of ``python -m tailbounds.cli --version`` over several launches),
``items_per_s``, ``item_ms_p50``/``item_ms_p95``, ``ok_ratio`` (items
that passed their exact check, over items attempted) and
``peak_rss_mb``.  ``--trace 1`` replays a fixed list of blocks in pairs
of passes, one plain and one with every library call spanned, and
reports the per-layer metrics of ``tracing``: medians over traced passes
for times, per-pass values for the exact work counters (which must
repeat identically in every pass) and the traced-minus-plain time as
``trace.overhead_s``.  The spans are written once, at exit, under
``.bench_build/trace/``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Blocks replayed by each traced pass: about half a second of calls.
PASS_BLOCKS = {"soundness_sweep": 2, "decompose_roundtrip": 4, "oracle_grid": 1,
               "cli_requests": 5}
# Other tenants slow a shared machine down in bursts of up to a second or
# so.  Each item runs once per round, a round apart, and its fastest run
# counts.
ROUNDS = 4
# Distinct items timed at least, so that item_ms_p95 has ten samples
# beyond it; a round outlasts its share of --seconds only to reach this.
MIN_ITEMS = 200
# Cold-start launches before the first round and after every round.
LAUNCHES_PER_GROUP = 4

END_TO_END_UNITS = {"setup_s": "s", "items_per_s": "1/s", "item_ms_p50": "ms",
                    "item_ms_p95": "ms", "ok_ratio": "ratio", "peak_rss_mb": "MB"}


def load_library():
    """Import tailbounds from this checkout's src, never from elsewhere."""
    package = SRC / "tailbounds" / "__init__.py"
    if not package.is_file():
        sys.exit(f"bench: {package} is missing; run from a tailbounds checkout")
    sys.path.insert(0, str(SRC))
    import tailbounds

    if Path(tailbounds.__file__).resolve() != package.resolve():
        sys.exit(f"bench: imported {tailbounds.__file__}, not {package}")
    return tailbounds


class Tally:
    """Attempted and failed items, with the first few failures kept."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def fail(self, kind: str, message: str) -> None:
        self.failed += 1
        if len(self.notes) < 5:
            self.notes.append(f"{kind}: {message}")


def do_item(run, check, api, kind, data, tally: Tally, tracer=None, item_id=0) -> float:
    """Time one item's calls, then check its result; return the time.

    This loop must outlive a bad item, so any exception from the library
    or from the check counts the item as failed and the run goes on.
    """
    tally.attempted += 1
    span = tracer.begin(item_id) if tracer else None
    start = perf_counter()
    try:
        result, error = run(api, kind, data), None
    except Exception as exc:
        result, error = None, exc
    elapsed = perf_counter() - start
    if tracer:
        tracer.end(span, start, start + elapsed)
    if error is not None:
        tally.fail(kind, f"raised {error!r}")
        return elapsed
    try:
        check(kind, data, result)
    except Exception as exc:
        tally.fail(kind, f"check: {exc!r}")
    return elapsed


class ColdStart:
    """Cold launches of ``python -m tailbounds.cli --version``.

    Launches are taken in groups spread over the run, so that their
    median does not hang on how busy the machine was at one moment.
    """

    def __init__(self, version: str) -> None:
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), self.env.get("PYTHONPATH")]))
        self.want = f"tailbounds {version}\n"
        self.ok = True
        self.times: list[float] = []
        self._launch()  # warms the file cache; not counted

    def _launch(self) -> float:
        start = perf_counter()
        proc = subprocess.run([sys.executable, "-m", "tailbounds.cli", "--version"],
                              env=self.env, cwd=ROOT, capture_output=True, text=True,
                              timeout=60)
        elapsed = perf_counter() - start
        self.ok = self.ok and proc.returncode == 0 and proc.stdout == self.want
        return elapsed

    def sample(self) -> None:
        self.times.extend(self._launch() for _ in range(LAUNCHES_PER_GROUP))


def end_to_end(workload: str, seed: int, seconds: float, version: str) -> dict:
    from tracing import plain_api
    from workloads import WORKLOADS, block_rng

    make_block, run, check = WORKLOADS[workload]
    api = plain_api()
    tally = Tally()
    setup = ColdStart(version)
    setup.sample()
    # One block from a separate stream lets lazy imports and caches settle.
    for kind, data in make_block(block_rng(workload, seed, -1)):
        do_item(run, check, api, kind, data, tally)
    blocks: list[list] = []
    best: list[float] = []  # per item, the fastest of its ROUNDS executions
    start = perf_counter()
    while len(best) < MIN_ITEMS or perf_counter() - start < seconds / ROUNDS:
        blocks.append(make_block(block_rng(workload, seed, len(blocks))))
        best.extend(do_item(run, check, api, kind, data, tally) for kind, data in blocks[-1])
    for _ in range(ROUNDS - 1):
        items = (item for block in blocks for item in block)
        setup.sample()
        best = [min(t, do_item(run, check, api, kind, data, tally))
                for t, (kind, data) in zip(best, items)]
    setup.sample()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    ms = sorted(t * 1000 for t in best)
    p50 = statistics.median(ms)
    p95 = statistics.quantiles(ms, n=20, method="inclusive")[18]
    beyond = sum(1 for t in ms if t > p95)
    print(f"{workload} seed={seed}: {len(ms)} items in {len(blocks)} blocks, each timed {ROUNDS} times; "
          f"item_ms_p50 from n={len(ms)}, item_ms_p95 from n={len(ms)} with {beyond} beyond; "
          f"setup_s from {len(setup.times)} launches")
    if beyond < 10:
        print(f"warning: only {beyond} samples beyond item_ms_p95; raise --seconds")
    values = {
        "setup_s": statistics.median(setup.times),
        "items_per_s": len(best) / sum(best),
        "item_ms_p50": p50,
        "item_ms_p95": p95,
        "ok_ratio": (tally.attempted - tally.failed) / tally.attempted,
        "peak_rss_mb": peak_rss_mb,
    }
    if not setup.ok:
        tally.notes.append("setup: tailbounds.cli --version did not print its version")
    return {"tally": tally, "ok": setup.ok,
            "metrics": {name: {"value": v, "unit": END_TO_END_UNITS[name]}
                        for name, v in values.items()}}


def traced(workload: str, seed: int, seconds: float) -> dict:
    from tracing import COUNTERS, Tracer, layer_units, plain_api
    from workloads import WORKLOADS, block_rng

    make_block, run, check = WORKLOADS[workload]
    items = [item for index in range(PASS_BLOCKS[workload])
             for item in make_block(block_rng(workload, seed, index))]
    api = plain_api()
    tally = Tally()
    for kind, data in make_block(block_rng(workload, seed, -1)):
        do_item(run, check, api, kind, data, tally)
    passes: list[dict] = []
    overheads: list[float] = []
    tracers: list[Tracer] = []
    start = perf_counter()
    while not passes or perf_counter() - start < seconds:
        plain = sum(do_item(run, check, api, kind, data, tally) for kind, data in items)
        tracer = Tracer()
        traced_api = tracer.api()
        spanned = sum(do_item(run, check, traced_api, kind, data, tally, tracer, item_id)
                      for item_id, (kind, data) in enumerate(items))
        overheads.append(spanned - plain)
        passes.append(tracer.layer_metrics())
        tracers.append(tracer)
    ok = True
    for name in COUNTERS + [k for k in passes[0] if k.endswith(".calls")]:
        if len({p[name] for p in passes}) != 1:
            ok = False
            tally.notes.append(f"work counter {name} differs between passes")
    values = {name: statistics.median(p[name] for p in passes) for name in passes[0]}
    values["trace.overhead_s"] = statistics.median(overheads)
    write_spans(workload, seed, tracers)
    print(f"{workload} seed={seed}: {len(passes)} traced passes of {len(items)} items")
    units = layer_units()
    return {"tally": tally, "ok": ok,
            "metrics": {name: {"value": v, "unit": units[name]} for name, v in values.items()}}


def write_spans(workload: str, seed: int, tracers) -> None:
    out = ROOT / ".bench_build" / "trace"
    out.mkdir(parents=True, exist_ok=True)
    fields = ["span_id", "name", "start", "end", "parent", "item_id"]
    with open(out / f"{workload}-seed{seed}.json", "w") as fh:
        json.dump({"workload": workload, "seed": seed, "fields": fields,
                   "passes": [t.spans for t in tracers]}, fh)


def main() -> int:
    tailbounds = load_library()
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.trace:
        out = traced(args.workload, args.seed, args.seconds)
    else:
        out = end_to_end(args.workload, args.seed, args.seconds, tailbounds.__version__)
    tally = out["tally"]
    for note in tally.notes:
        print(f"failure: {note}")
    print(json.dumps({
        "correct": out["ok"] and tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": out["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
