"""In-process item times of one benchmark workload for two source trees.

Usage::

    python3 tools/ab.py OLD_SRC NEW_SRC --workload W [--pairs 6] [--blocks 10]

The items are blocks 0 to ``--blocks`` - 1 of seed 1's stream for the
workload, as ``bench/run.py`` generates them.  For each of ``--pairs``
pairs the script runs one child process per tree, the older tree first
in even pairs and second in odd ones, so that a slow spell of the
machine falls on both.  A child imports its tree's ``tailbounds`` and
this checkout's ``bench/workloads.py``, runs block -1 once to let lazy
imports settle, then times every item once per round for ``ROUNDS``
rounds and keeps each item's fastest time.  Every result of every round
passes the workload's exact check, outside the timed interval.

Per pair the script prints both trees' items/s (items over summed best
times) and the ratio new/old.  At the end it prints, per tree, the
median over pairs of items/s, item_ms_p50 and item_ms_p95, and the
median ratio with its quartiles and the number of pairs the new tree
won.  A failed check, or any other error in a child, stops the script
with exit status 1.

Both trees run this checkout's ``bench``, so they time the same items
under the same checks.  Each child runs the interpreter running this
script, with the caller's environment: whether bytecode is cached is up
to ``PYTHONDONTWRITEBYTECODE``.  The numbers are evidence for a change,
not a test: they move with the machine's load.  Standard library only.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent.parent / "bench"
SEED = 1
# As in bench/run.py: each item runs once per round and its fastest run counts.
ROUNDS = 4


def child(src: str, workload: str, blocks: int) -> None:
    """Print, as one JSON list, the best time of each item under the tree at ``src``."""
    package = Path(src).resolve() / "tailbounds"
    sys.path[:0] = [str(package.parent), str(BENCH)]
    import tailbounds

    if Path(tailbounds.__file__).resolve().parent != package:
        sys.exit(f"ab: imported {tailbounds.__file__}, not the package in {package.parent}")
    from tracing import plain_api
    from workloads import WORKLOADS, block_rng

    make_block, run, check = WORKLOADS[workload]
    api = plain_api()
    for kind, data in make_block(block_rng(workload, SEED, -1)):
        check(kind, data, run(api, kind, data))
    items = [item for index in range(blocks)
             for item in make_block(block_rng(workload, SEED, index))]
    best = [float("inf")] * len(items)
    for _ in range(ROUNDS):
        for i, (kind, data) in enumerate(items):
            start = perf_counter()
            result = run(api, kind, data)
            best[i] = min(best[i], perf_counter() - start)
            check(kind, data, result)
    print(json.dumps(best))


class Tree:
    """One ``src`` tree and the runs of its children."""

    def __init__(self, src: str) -> None:
        self.src = Path(src).resolve()
        if not (self.src / "tailbounds" / "__init__.py").is_file():
            sys.exit(f"ab: {self.src} holds no tailbounds package")
        self.runs: list[dict] = []

    def time(self, workload: str, blocks: int) -> None:
        proc = subprocess.run(
            [sys.executable, __file__, "--child", str(self.src), workload, str(blocks)],
            capture_output=True, text=True, timeout=3600,
        )
        if proc.returncode != 0:
            sys.exit(f"ab: {workload} under {self.src} failed (exit {proc.returncode}):\n"
                     f"{proc.stderr[-2000:]}")
        ms = sorted(1000 * t for t in json.loads(proc.stdout))
        self.runs.append({"items_per_s": 1000 * len(ms) / sum(ms), "p50": statistics.median(ms),
                          "p95": statistics.quantiles(ms, n=20, method="inclusive")[18]})

    def median(self, key: str) -> float:
        return statistics.median(run[key] for run in self.runs)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", help="the older tree's src directory")
    parser.add_argument("new", help="the newer tree's src directory")
    parser.add_argument("--workload", required=True,
                        choices=["soundness_sweep", "decompose_roundtrip", "oracle_grid",
                                 "cli_requests"])
    parser.add_argument("--pairs", type=int, default=6)
    parser.add_argument("--blocks", type=int, default=10)
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.blocks < 1:
        parser.error("--pairs and --blocks must be at least 1")
    old, new = Tree(args.old), Tree(args.new)
    print(f"{args.workload}: blocks 0..{args.blocks - 1} of seed {SEED}, each item's best of"
          f" {ROUNDS} rounds; ratio is new/old items/s", flush=True)
    ratios = []
    for pair in range(args.pairs):
        order = (old, new) if pair % 2 == 0 else (new, old)
        for tree in order:
            tree.time(args.workload, args.blocks)
        ratios.append(new.runs[-1]["items_per_s"] / old.runs[-1]["items_per_s"])
        print(f"pair {pair + 1} ({'old' if order[0] is old else 'new'} first):"
              f" old {old.runs[-1]['items_per_s']:.1f}/s new {new.runs[-1]['items_per_s']:.1f}/s"
              f" ratio {ratios[-1]:.3f}", flush=True)
    print(f"{'tree':<5} {'items/s':>9} {'p50 ms':>8} {'p95 ms':>8}")
    for name, tree in (("old", old), ("new", new)):
        print(f"{name:<5} {tree.median('items_per_s'):9.1f} {tree.median('p50'):8.3f}"
              f" {tree.median('p95'):8.3f}")
    # With one pair the quartiles are that pair's ratio.
    q1, _, q3 = (statistics.quantiles(ratios, n=4, method="inclusive")
                 if len(ratios) > 1 else [ratios[0]] * 3)
    print(f"ratio {statistics.median(ratios):.3f} q1 {q1:.3f} q3 {q3:.3f}"
          f" won {sum(r > 1 for r in ratios)}/{args.pairs}")
    return 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:
        child(sys.argv[2], sys.argv[3], int(sys.argv[4]))
        sys.exit(0)
    sys.exit(main())
