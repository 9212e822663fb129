"""Cold-start times of ``python -m tailbounds.cli`` for two source trees.

Usage::

    python3 tools/coldstart.py OLD_SRC NEW_SRC [--pairs 8] [--launches 10]
                               [--argv=--version --argv="bound --pmf uniform:0..9 --a 3" ...]

Each ``--argv`` is one command line, split as a shell would; without any,
the six below are timed.  For each command line the script runs
``--pairs`` pairs.  A pair times ``--launches`` launches of each tree,
one tree after the other, the older tree first in even pairs and second
in odd ones, so that a slow spell of the machine falls on both.  Each
tree's launches give one median, and the pair gives the ratio new/old of
the two medians.  Per command line it prints both trees' median of those
medians, the median ratio with its quartiles and the number of pairs the
new tree won.  Every launch must print the same stdout and exit with the
same status as the first launch of the old tree, or the script stops with
exit status 1.

Each launch runs the interpreter running this script, with ``PYTHONPATH``
set to the tree's ``src`` and the working directory there, and with the
caller's environment otherwise: whether bytecode is cached is up to
``PYTHONDONTWRITEBYTECODE``.  The numbers are evidence for a change, not
a test: they move with the machine's load.  Standard library only.
"""
from __future__ import annotations

import argparse
import os
import shlex
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

DEFAULT_ARGVS = [
    "--version",
    "bound --pmf uniform:0..9 --a 3",
    "decompose --pmf uniform:0..9",
    "verify --a 1..3 --mu 1/2,1 --N 10",
    "sweep --pmf uniform:0..9 --a 1..5",
    "extremal --a 3 --mu 1",
]


class Tree:
    """One ``src`` tree and the output its launches must repeat."""

    def __init__(self, src: str) -> None:
        self.src = Path(src).resolve()
        if not (self.src / "tailbounds" / "__init__.py").is_file():
            sys.exit(f"coldstart: {self.src} holds no tailbounds package")
        self.env = dict(os.environ, PYTHONPATH=str(self.src))

    def launch(self, argv: list[str]) -> tuple[float, tuple[int, str]]:
        start = perf_counter()
        proc = subprocess.run([sys.executable, "-m", "tailbounds.cli", *argv], env=self.env,
                              cwd=self.src, capture_output=True, text=True, timeout=120)
        return perf_counter() - start, (proc.returncode, proc.stdout)


def compare(old: Tree, new: Tree, argv: list[str], pairs: int, launches: int) -> dict:
    """Per-pair medians of both trees and their ratios for one command line."""
    want = old.launch(argv)[1]  # also warms the file cache; not counted
    medians: dict[Tree, list[float]] = {old: [], new: []}
    for pair in range(pairs):
        for tree in (old, new) if pair % 2 == 0 else (new, old):
            times = []
            for _ in range(launches):
                elapsed, got = tree.launch(argv)
                if got != want:
                    sys.exit(f"coldstart: {shlex.join(argv)!r} under {tree.src} exited {got[0]}"
                             f" with other output than under {old.src} (exit {want[0]})")
                times.append(elapsed)
            medians[tree].append(statistics.median(times))
    ratios = [n / o for o, n in zip(medians[old], medians[new])]
    return {
        "old_ms": 1000 * statistics.median(medians[old]),
        "new_ms": 1000 * statistics.median(medians[new]),
        "ratio": statistics.median(ratios),
        # With one pair the quartiles are that pair's ratio.
        "quartiles": (statistics.quantiles(ratios, n=4, method="inclusive")
                      if len(ratios) > 1 else [ratios[0]] * 3),
        "won": sum(r < 1 for r in ratios),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", help="the older tree's src directory")
    parser.add_argument("new", help="the newer tree's src directory")
    parser.add_argument("--pairs", type=int, default=8)
    parser.add_argument("--launches", type=int, default=10)
    parser.add_argument("--argv", action="append", help="one command line, shell-quoted")
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.launches < 1:
        parser.error("--pairs and --launches must be at least 1")
    old, new = Tree(args.old), Tree(args.new)
    print(f"{args.pairs} pairs of {args.launches} launches per tree; ms are medians of the"
          " per-pair medians, ratio is new/old")
    print(f"{'argv':<36} {'old ms':>7} {'new ms':>7} {'ratio':>6} {'q1':>6} {'q3':>6}  won")
    for line in args.argv or DEFAULT_ARGVS:
        row = compare(old, new, shlex.split(line), args.pairs, args.launches)
        q1, _, q3 = row["quartiles"]
        print(f"{line:<36} {row['old_ms']:7.1f} {row['new_ms']:7.1f} {row['ratio']:6.3f}"
              f" {q1:6.3f} {q3:6.3f}  {row['won']}/{args.pairs}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
