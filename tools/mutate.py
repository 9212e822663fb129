"""Mutation score for the certified paths: apply named mutants, report survivors.

Usage: ``python3 tools/mutate.py``

Each mutant replaces one exact snippet of a module under
``src/tailbounds`` (the snippet must occur exactly once, and the result
must still parse) in a temporary copy of ``src/`` and ``tests/``, then
runs the test files that cover it with ``pytest -x``. Every snippet is
checked against the source before the first run, so a stale one stops
the script at once. Each group of covering test files is then run once
unmutated: a failure there stops the script with a non-zero exit that
names the group, and the run's time sets the group's mutant timeout
(four times it, plus 30 s). A mutant is killed when those tests fail or
time out, and survives when they pass. Survivors are printed at the end
and make the exit status 1. Standard library only; not part of the test
suite, since it runs the covering tests once per mutant, but
``tests/test_mutants.py`` checks every snippet against the source.
"""
from __future__ import annotations

import ast
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    module: str
    old: str
    new: str
    tests: tuple[str, ...]


EXTREMAL = ("test_extremal.py", "test_cli.py")
DIST_CORE = ("test_dist_core.py", "test_bounds.py", "test_cli.py")
DECOMPOSE = ("test_decompose.py",)

EDGE = """    xr = max(2 * a - 1, -(-p // q))  # ceil(2 mu)
    xl = 0 if xr == 2 * a - 1 else xr - 1
"""

MUTANTS = [
    # The decreasing oracle's closed-form edge.
    Mutant("edge vertex 2a-2 for 2a-1", "extremal.py", EDGE,
           EDGE.replace("2 * a - 1", "2 * a - 2"), EXTREMAL),
    Mutant("edge floor for ceil", "extremal.py", "-(-p // q)", "p // q", EXTREMAL),
    Mutant("edge xr + 1", "extremal.py", "xr = max(2 * a - 1, -(-p // q))",
           "xr = max(2 * a - 1, -(-p // q)) + 1", EXTREMAL),
    Mutant("edge xr - 1", "extremal.py", "xr = max(2 * a - 1, -(-p // q))",
           "xr = max(2 * a - 1, -(-p // q)) - 1", EXTREMAL),
    Mutant("2mu = N infeasible", "extremal.py", "p > q * N", "p >= q * N", EXTREMAL),
    Mutant("edge xl = xr - 1 always", "extremal.py",
           "xl = 0 if xr == 2 * a - 1 else xr - 1", "xl = xr - 1", EXTREMAL),
    # The decreasing oracle's closed-form dual, the line through the edge.
    Mutant("decreasing dual slope a + 1", "extremal.py",
           "2 * a), a, 0)", "2 * a), a + 1, 0)", EXTREMAL),
    Mutant("decreasing dual intercept without + 1", "extremal.py",
           "xr + 1 - 2 * a", "xr - 2 * a", EXTREMAL),
    # The decreasing oracle's dual step: the columns where the slack can be least.
    Mutant("slack vertex never read", "extremal.py", "if c2 > 0:", "if False:", EXTREMAL),
    Mutant("slack vertex ceiling dropped", "extremal.py",
           "for i in (-c1 // (2 * c2), -(c1 // (2 * c2))):",
           "for i in (-c1 // (2 * c2),):", EXTREMAL),
    Mutant("upper slack piece starts at a", "extremal.py",
           "(a - 1, N, y[0] + c2 - det)", "(a, N, y[0] + c2 - det)", EXTREMAL),
    # The columns the decreasing oracle hands the checker: the slack minima
    # and the basis. Dropping the basis, "{xl, xr, " from the set, would be
    # an equivalent mutant on every valid edge: both basis columns were
    # among the slack minima on all 27 976 cells of the hull-scan test's
    # grid (no N = 200 sampling), so no value, argmax or count can change.
    Mutant("checked set skips the slack minima", "extremal.py",
           "named = sorted({xl, xr, *_slack_minima(a, q, N, y, det)})",
           "named = sorted({xl, xr})", EXTREMAL),
    # The verify grid's one integer comparison of oracle and bound: num / det
    # against p / (2q (2a - 1)), cross-multiplied.
    Mutant("soundness test >= for >", "extremal.py",
           "if oracle_scaled > bound_scaled:", "if oracle_scaled >= bound_scaled:", EXTREMAL),
    Mutant("equal from >=, the bound merely holding", "extremal.py",
           "oracle_scaled == bound_scaled", "bound_scaled >= oracle_scaled", EXTREMAL),
    Mutant("bound scale without its factor 2", "extremal.py",
           "num * 2 * q * top", "num * q * top", EXTREMAL),
    # The one column form: window sums of a per-point vector, u_j = mass / len.
    # The two-sided oracle takes each as a difference of two prefix sums.
    Mutant("two-sided left prefix index + 1", "extremal.py",
           "G[l - lo]", "G[l - lo + 1]", EXTREMAL),
    Mutant("two-sided right prefix index - 1", "extremal.py",
           "G[r - lo + 1]", "G[r - lo]", EXTREMAL),
    Mutant("two-sided upper tail from > upper_cut", "extremal.py",
           "k >= upper_cut or k <= lower_cut", "k > upper_cut or k <= lower_cut", EXTREMAL),
    Mutant("two-sided lower tail from < lower_cut", "extremal.py",
           "k >= upper_cut or k <= lower_cut", "k >= upper_cut or k < lower_cut", EXTREMAL),
    Mutant("two-sided second moment d3 k for d3 k^2", "extremal.py",
           "d3 * k * k", "d3 * k", EXTREMAL),
    Mutant("two-sided argmax mass with the old factor 2", "extremal.py",
           "Fraction((r - l + 1) * x, det)", "Fraction(2 * (r - l + 1) * x, det)", EXTREMAL),
    # The shared certificate check's refusals and the simplex's unbounded ray.
    Mutant("Farkas vector with y.b = 0 accepted", "extremal.py",
           "if yb >= 0:", "if yb > 0:", EXTREMAL),
    Mutant("primal weight may be negative", "extremal.py",
           "any(x < 0 or not 0 <= j < len(A)", "any(not 0 <= j < len(A)", EXTREMAL),
    Mutant("primal position unchecked", "extremal.py",
           "any(x < 0 or not 0 <= j < len(A) for", "any(x < 0 for", EXTREMAL),
    Mutant("primal det 0 accepted", "extremal.py",
           "if det <= 0 or any(", "if det < 0 or any(", EXTREMAL),
    Mutant("unbounded ray not refused", "extremal.py", "if leave < 0:", "if False:", EXTREMAL),
    # The two-sided oracle's simplex and the shared certificate check.
    Mutant("Bland leaving tie-break reversed", "extremal.py",
           "basis[i] < basis[leave]", "basis[i] > basis[leave]", EXTREMAL),
    Mutant("ratio test reversed", "extremal.py",
           "or x[i] * d[leave] < x[leave] * d[i]",
           "or x[i] * d[leave] > x[leave] * d[i]", EXTREMAL),
    # One scan prices the simplex and checks every dual: a mutant of it
    # hits both at once.
    Mutant("dual scan starts at column 1", "extremal.py",
           "in enumerate(zip(A, obj)):", "in enumerate(zip(A[1:], obj[1:]), 1):", EXTREMAL),
    Mutant("pricing at scale 0", "extremal.py",
           "(y0, y1, y2), det)", "(y0, y1, y2), 0)", EXTREMAL),
    Mutant("zero artificial rule disabled", "extremal.py",
           "if d[i] < 0 and basis[i] < 0 and not x[i]:", "if False:", EXTREMAL),
    Mutant("certificate skips the value check", "extremal.py",
           "if sum(cost * x for _, cost, x in basis) != yb:", "if False:", EXTREMAL),
    Mutant("failing column named by its list position", "extremal.py",
           "fails on column {labels[j]}", "fails on column {j}", EXTREMAL),
    # The two-sided oracle's one ascending pass: far common points are pruned
    # and certified by the tangent Farkas vector. At x^2 + |x| = 3 var its
    # y.b is 0, which the checker refuses; a uniform's own moments reach
    # that equality at its end point. A threshold that prunes fewer points,
    # 4 var for 3 var, changes no value, only the work; TestPruning's check
    # of the pruned set kills it.
    Mutant("prune at equality", "extremal.py",
           "x * x + abs(x) > 3 * var", "x * x + abs(x) >= 3 * var", EXTREMAL),
    Mutant("prune threshold 2 var", "extremal.py", "3 * var", "2 * var", EXTREMAL),
    Mutant("prune threshold 4 var", "extremal.py", "3 * var", "4 * var", EXTREMAL),
    Mutant("tangent slope 7x", "extremal.py", "t = 8 * x", "t = 7 * x", EXTREMAL),
    Mutant("tangent vector without 4x^2", "extremal.py",
           "t * c + 4 * x * x,", "t * c,", EXTREMAL),
    Mutant("ties to the highest c", "extremal.py",
           "num * best[1] > best[0] * det", "num * best[1] >= best[0] * det", EXTREMAL),
    # dist_core's one tail table and shape test.
    Mutant("upper cut floor for ceil", "dist_core.py",
           "at_least(math.ceil(mu + a))", "at_least(math.floor(mu + a))", DIST_CORE),
    Mutant("lower cut ceil for floor", "dist_core.py",
           "at_least(math.floor(mu - a) + 1)", "at_least(math.ceil(mu - a) + 1)", DIST_CORE),
    Mutant("lower lookup without + 1", "dist_core.py",
           "at_least(math.floor(mu - a) + 1)", "at_least(math.floor(mu - a))", DIST_CORE),
    Mutant("two-sided a >= 0 for a > 0", "dist_core.py",
           "if a > 0 else Fraction(1)", "if a >= 0 else Fraction(1)", DIST_CORE),
    # The table holds numerators over den, so P(X <= m) is den minus a lookup;
    # "+ den -" alone also occurs in the docstring.
    Mutant("lower tail 1 - lookup for den - lookup", "dist_core.py",
           "+ den - at_least(math.floor", "+ 1 - at_least(math.floor", DIST_CORE),
    Mutant("suffix clamp n - 1 for n", "dist_core.py",
           "max(k - p.offset, 0), n)]", "max(k - p.offset, 0), n - 1)]", DIST_CORE),
    Mutant("shape decreasing run strict", "dist_core.py",
           "w[dec_start - 1] >= w[dec_start]", "w[dec_start - 1] > w[dec_start]", DIST_CORE),
    # dist_core's one moment pass. The atoms at 0 add nothing to E[X; X < 0],
    # so "k <= 0" for "k < 0" would be an equivalent mutant.
    Mutant("E|X| without the factor 2", "dist_core.py",
           "m1 - 2 * below", "m1 - below", DIST_CORE),
    Mutant("E[X^2] for V(X)", "dist_core.py",
           "den * m2 - m1 * m1", "den * m2", DIST_CORE),
    Mutant("E|X| from the atoms above 0", "dist_core.py",
           "if k < 0:", "if k > 0:", DIST_CORE),
    Mutant("numerators not rescaled to the common denominator", "dist_core.py",
           "w.numerator * (den // w.denominator)", "w.numerator", DIST_CORE),
    Mutant("E[X] without the atoms below 0", "dist_core.py",
           "Fraction(m1, den)", "Fraction(m1 - below, den)", DIST_CORE),
    # The one reader of integers written as text, behind the CLI and mixture JSON.
    Mutant("integer text with any Unicode digit", "dist_core.py",
           'INT_PATTERN = r"-?[0-9]+"', 'INT_PATTERN = r"-?\\d+"', DIST_CORE),
    Mutant("integer text without its minus", "dist_core.py",
           'INT_PATTERN = r"-?[0-9]+"', 'INT_PATTERN = r"[0-9]+"', DIST_CORE),
    # The one sign check behind every "must be positive" and "must be nonnegative".
    Mutant("strict sign check lets 0 through", "dist_core.py",
           "value > 0 if strict", "value >= 0 if strict", DIST_CORE),
    Mutant("nonnegative check refuses 0", "dist_core.py",
           "else value >= 0", "else value > 0", DIST_CORE),
    # The CLI's one bound table, behind both bound and sweep.
    Mutant("tail about the mean one-sided", "cli.py",
           "centre = terms.mean if mode is TailMode.TWO_SIDED else None",
           "centre = terms.mean if mode is TailMode.ONE_SIDED_UPPER else None", DIST_CORE),
    # The continuous formulas, each computed exactly and rounded once.
    Mutant("continuous Markov mu / a for mu / (2a)", "bounds.py",
           "mu / (2 * a)", "mu / a", DIST_CORE),
    Mutant("continuous Chebyshev 2a for 2a^2", "bounds.py",
           "2 * a * a", "2 * a", DIST_CORE),
    Mutant("mix weight without epsilon/2 in its denominator", "extremal.py",
           "/ (a - epsilon / 2)", "/ a", EXTREMAL),
    Mutant("epsilon-mixture supremum mu / a for mu / (2a)", "extremal.py",
           "mu / (2 * a)", "mu / a", EXTREMAL),
    # The one level-set walk behind both decompositions. A pointer that
    # stops on an end weight equal to the level would loop forever, but
    # the walk's len(weights) step bound stops it.
    Mutant("level walk l pointer < for <=", "decompose.py",
           "weights[l] <= level:", "weights[l] < level:", DECOMPOSE),
    Mutant("level walk r pointer < for <=", "decompose.py",
           "weights[r] <= level:", "weights[r] < level:", DECOMPOSE),
    Mutant("level walk max for min", "decompose.py",
           "level = min(weights[l], weights[r])", "level = max(weights[l], weights[r])",
           DECOMPOSE),
    Mutant("layer mass level for level - prev", "decompose.py",
           "mass = (level - prev) * (r - l + 1)", "mass = level * (r - l + 1)", DECOMPOSE),
    Mutant("layer mass r - l for r - l + 1", "decompose.py",
           "mass = (level - prev) * (r - l + 1)", "mass = (level - prev) * (r - l)", DECOMPOSE),
    Mutant("layer mass invariant disabled", "decompose.py",
           "if total != 1:", "if False:", DECOMPOSE),
    # The two reconstructions from a mixture.
    Mutant("uniform mixture share over k + 2 points", "decompose.py",
           "d / (k + 1)", "d / (k + 2)", DECOMPOSE),
    # Each share d / (k + 1) is summed as its numerator over the shares' lcm.
    Mutant("uniform mixture shares not rescaled to their lcm", "decompose.py",
           "s.numerator * (den // s.denominator)", "s.numerator", DECOMPOSE),
    Mutant("interval mixture drops its right end", "decompose.py",
           "range(l, r + 1)", "range(l, r)", DECOMPOSE),
    # The closed-form proof transforms.
    Mutant("flatten_head level denominator", "decompose.py",
           "a * (a + 1))", "a * (a + 2))", DECOMPOSE),
    Mutant("merge_tail_atoms k + 1", "decompose.py", "k = S // M", "k = S // M + 1", DECOMPOSE),
    Mutant("reduce_three_atoms turns at 2a-1", "decompose.py",
           "if i >= 2 * a - 2:", "if i >= 2 * a - 1:", DECOMPOSE),
]


def _mutated(source: str, mutant: Mutant) -> str:
    count = source.count(mutant.old)
    if count != 1:
        raise SystemExit(f"{mutant.name}: snippet found {count} times in {mutant.module}")
    out = source.replace(mutant.old, mutant.new)
    ast.parse(out)
    return out


def _pytest(
    work: Path, env: dict, tests: tuple[str, ...], timeout: float | None = None
) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         *(f"tests/{name}" for name in tests)],
        cwd=work, env=env, capture_output=True, text=True, timeout=timeout,
    )


def _timeouts(work: Path, env: dict, groups: list[tuple[str, ...]]) -> dict:
    """Run each test group once, unmutated, and time its mutants from that run.

    A group that fails unmutated would report every mutant as killed, so
    it stops the script before the first mutant.  A mutant may take a few
    times its group's run, plus a margin for a loaded machine, before it
    counts as looping.
    """
    timeouts = {}
    for group in dict.fromkeys(groups):
        start = time.perf_counter()
        proc = _pytest(work, env, group)
        elapsed = time.perf_counter() - start
        if proc.returncode != 0:
            raise SystemExit(
                f"baseline run of {' '.join(group)} failed unmutated"
                f" (pytest exit {proc.returncode}); no mutant was run\n{proc.stdout[-2000:]}"
            )
        timeouts[group] = 4 * elapsed + 30
        print(f"{'baseline':<17} {elapsed:6.1f}s  {' '.join(group)}"
              f" (mutant timeout {timeouts[group]:.0f}s)", flush=True)
    return timeouts


def run(mutants: list[Mutant]) -> list[Mutant]:
    src = ROOT / "src" / "tailbounds"
    texts = [_mutated((src / m.module).read_text(), m) for m in mutants]
    survivors = []
    with tempfile.TemporaryDirectory(prefix="tailbounds-mutate-") as tmp:
        work = Path(tmp)
        shutil.copytree(ROOT / "src", work / "src", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copytree(ROOT / "tests", work / "tests",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", work / "pyproject.toml")
        env = {**os.environ, "PYTHONPATH": str(work / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        timeouts = _timeouts(work, env, [m.tests for m in mutants])
        for mutant, text in zip(mutants, texts):
            path = work / "src" / "tailbounds" / mutant.module
            original = path.read_text()
            path.write_text(text)
            start = time.perf_counter()
            try:
                proc = _pytest(work, env, mutant.tests, timeouts[mutant.tests])
                status = "survived" if proc.returncode == 0 else "killed"
            except subprocess.TimeoutExpired:
                status = "killed (timeout)"
            finally:
                path.write_text(original)
            print(f"{status:<17} {time.perf_counter() - start:6.1f}s  {mutant.name}", flush=True)
            if status == "survived":
                survivors.append(mutant)
    return survivors


def main() -> int:
    survivors = run(MUTANTS)
    print(f"score: {len(MUTANTS) - len(survivors)}/{len(MUTANTS)} killed")
    for mutant in survivors:
        print(f"survivor: {mutant.name} ({mutant.module})")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
