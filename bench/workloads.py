"""The four benchmark workloads: seeded inputs, timed items, exact checks.

Inputs come in blocks drawn from ``random.Random`` seeded by workload,
seed and block index, so one seed always gives one stream and a run of
whole blocks always has the same mix of item classes.  The generators
live here rather than in ``tests/`` so a test edit cannot shift the
traffic.  ``run`` is the only code inside an item's timed interval; it
reaches the library through an ``Api`` (see ``tracing``).  ``check``
runs afterwards and compares the result with reference values computed
here from the integer inputs, or with the library's own result for the
CLI.  Every comparison is an exact ``Fraction``/int/str equality.
"""
from __future__ import annotations

import json
import random
from fractions import Fraction

from tailbounds import (
    TailMode,
    UniformMixture,
    best_bound,
    extremal_markov_continuous,
    extremal_markov_discrete,
    make_pmf,
    tail,
    tightness_rows_to_csv,
    tightness_rows_to_json,
    to_uniform_mixture,
    two_sided_tail,
    unimodal_to_interval_mixture,
    verify_tightness_theorem2,
)


class CheckFailed(Exception):
    """An item's result differs from its exact reference."""


def expect(condition: bool, what: str) -> None:
    if not condition:
        raise CheckFailed(what)


def block_rng(workload: str, seed: int, index: int) -> random.Random:
    # A str seed is hashed with SHA-512, so streams do not depend on
    # PYTHONHASHSEED.
    return random.Random(f"tailbounds-bench:{workload}:{seed}:{index}")


def shuffled(rng: random.Random, counts: dict) -> list:
    """Every key repeated by its count, in a seeded random order."""
    kinds = [kind for kind, n in counts.items() for _ in range(n)]
    rng.shuffle(kinds)
    return kinds


# --- integer weight generators ------------------------------------------


def decreasing_weights(rng: random.Random, n: int, top: int) -> list[int]:
    ws = sorted((rng.randint(0, top) for _ in range(n)), reverse=True)
    ws[0] = max(ws[0], 1)
    return ws


def unimodal_weights(rng: random.Random, n: int, top: int) -> list[int]:
    peak = rng.randint(max(1, top // 2), top)
    mode = rng.randint(0, n - 1)
    left = sorted(rng.randint(0, peak) for _ in range(mode))
    right = sorted((rng.randint(0, peak) for _ in range(n - 1 - mode)), reverse=True)
    return left + [peak] + right


# --- reference values from integer weights ------------------------------


class Reference:
    """Exact facts about the pmf proportional to integer weights."""

    def __init__(self, offset: int, raw: list[int]) -> None:
        lo = next(i for i, r in enumerate(raw) if r)
        hi = max(i for i, r in enumerate(raw) if r)
        self.offset = offset + lo
        self.raw = raw[lo:hi + 1]
        self.total = total = sum(self.raw)
        self.weights = tuple(Fraction(r, total) for r in self.raw)
        self.points = [(self.offset + i, r) for i, r in enumerate(self.raw) if r]
        self.m1 = sum(k * r for k, r in self.points)
        m2 = sum(k * k * r for k, r in self.points)
        self.mean = Fraction(self.m1, total)
        self.var = Fraction(m2 * total - self.m1 * self.m1, total * total)
        self.abs_mean = Fraction(sum(abs(k) * r for k, r in self.points), total)
        w = self.raw
        dec_start = len(w) - 1
        while dec_start > 0 and w[dec_start - 1] >= w[dec_start]:
            dec_start -= 1
        self.unimodal = all(w[i] <= w[i + 1] for i in range(dec_start))
        self.decreasing = self.offset == 0 and dec_start == 0
        self.mode = self.offset + dec_start if self.unimodal else None

    def tail(self, a: int) -> Fraction:
        return Fraction(sum(r for k, r in self.points if k >= a), self.total)

    def two_sided(self, a: int) -> Fraction:
        # |k - m1/total| >= a  <=>  |k*total - m1| >= a*total
        cut = a * self.total
        return Fraction(
            sum(r for k, r in self.points if abs(k * self.total - self.m1) >= cut),
            self.total,
        )

    def matches(self, p) -> bool:
        return p.offset == self.offset and p.weights == self.weights


def interval_moments(atoms) -> tuple[Fraction, Fraction]:
    """Mean and second moment of a mixture of uniforms on {l..r}."""
    m1 = m2 = Fraction(0)
    for (l, r), w in atoms.items():
        n = r - l + 1
        m1 += w * Fraction(l + r, 2)
        m2 += w * Fraction(sum(k * k for k in range(l, r + 1)), n)
    return m1, m2


def uniform_mixture_tail(atoms, a: int) -> Fraction:
    return sum((w * Fraction(max(0, i - a + 1), i + 1) for i, w in atoms.items()), Fraction(0))


def uniform_mixture_index_mean(atoms) -> Fraction:
    return sum((w * i for i, w in atoms.items()), Fraction(0))


def pmf_mean(p) -> Fraction:
    return sum((w * (p.offset + i) for i, w in enumerate(p.weights)), Fraction(0))


def pmf_tail(p, a: int) -> Fraction:
    return sum(p.weights[max(0, a - p.offset):], Fraction(0))


# --- soundness_sweep -----------------------------------------------------
#
# Per block of 50: 25 decreasing pmfs (support <= 60) and 24 unimodal
# pmfs (span <= 40), weights <= 9 as in acceptance criteria 4 and 5, plus
# one pmf of support ~1000 with weights <= 10^6 whose large common
# denominators stress the Fraction paths.

THRESHOLDS = (1, 3, 7, 15)


def soundness_block(rng: random.Random) -> list:
    items = []
    for kind in shuffled(rng, {"decreasing": 25, "unimodal": 24, "large": 1}):
        if kind == "decreasing":
            items.append((kind, (0, decreasing_weights(rng, rng.randint(1, 60), 9))))
        elif kind == "unimodal":
            raw = unimodal_weights(rng, rng.randint(1, 40), 9)
            items.append((kind, (rng.randint(-20, 20), raw)))
        elif rng.random() < 0.5:
            items.append((kind, (0, decreasing_weights(rng, rng.randint(950, 1050), 10**6))))
        else:
            raw = unimodal_weights(rng, rng.randint(950, 1050), 10**6)
            items.append((kind, (rng.randint(-20, 20), raw)))
    return items


def soundness_run(api, kind, data):
    offset, raw = data
    p = api.make_pmf(offset, raw)
    report = api.shape(p)
    mu, var = api.mean(p), api.variance(p)
    rows = [
        (api.tail(p, a), api.best_bound(p, a),
         api.two_sided_tail(p, a), api.best_bound(p, a, TailMode.TWO_SIDED))
        for a in THRESHOLDS
    ]
    return p, report, mu, var, rows


def soundness_check(kind, data, result) -> None:
    p, report, mu, var, rows = result
    ref = Reference(*data)
    expect(ref.matches(p), "make_pmf weights")
    expect((report.is_decreasing, report.is_unimodal, report.mode)
           == (ref.decreasing, ref.unimodal, ref.mode), "shape report")
    expect(mu == ref.mean and var == ref.var, "mean/variance")
    for a, (t1, b1, t2, b2) in zip(THRESHOLDS, rows):
        expect(t1 == ref.tail(a) and t2 == ref.two_sided(a), f"tails at a={a}")
        one = [("MarkovClassical", ref.abs_mean / a)]
        if ref.decreasing:
            one.append(("MarkovDecreasingDiscrete", ref.mean / (2 * a - 1)))
        two = [("ChebyshevClassical", ref.var / a**2)]
        if ref.unimodal:
            two.append(("ChebyshevUnimodalDiscrete",
                        (ref.var + Fraction(1, 12)) / (2 * (a - Fraction(1, 2)) ** 2)))
        for got, want, exact in ((b1, one, t1), (b2, two, t2)):
            want.sort(key=lambda fv: fv[1])
            expect([(r.formula.value, r.value) for r in got] == want,
                   f"bound set at a={a}")
            expect(all(r.value >= exact for r in got), f"unsound bound at a={a}")


# --- decompose_roundtrip -------------------------------------------------
#
# Per block of 10: 3 decreasing pmfs (support <= 60) to a uniform mixture
# and back, 3 unimodal pmfs (span <= 40) to an interval mixture and back,
# one each of flatten_head, merge_tail_atoms and reduce_three_atoms, and
# one unimodal pmf of 280-320 points with mostly distinct levels, which
# drives the quadratic interval paths.


def random_uniform_mixture(rng: random.Random) -> UniformMixture:
    indices = rng.sample(range(26), rng.randint(1, 6))
    raw = [rng.randint(1, 9) for _ in indices]
    return UniformMixture({i: Fraction(w, sum(raw)) for i, w in zip(indices, raw)})


def three_atom_mixture(rng: random.Random, a: int) -> UniformMixture:
    i = rng.randint(a, 40)
    raw = [rng.randint(0, 9) for _ in range(3)]
    if sum(raw) == 0:
        raw[rng.randrange(3)] = 1
    total = sum(raw)
    return UniformMixture({0: Fraction(raw[0], total), i: Fraction(raw[1], total),
                           i + 1: Fraction(raw[2], total)})


def decompose_block(rng: random.Random) -> list:
    items = []
    counts = {"uniform": 3, "interval": 3, "large_interval": 1,
              "flatten": 1, "merge": 1, "reduce": 1}
    for kind in shuffled(rng, counts):
        a = rng.randint(1, 8)
        if kind == "uniform":
            offset, raw = 0, decreasing_weights(rng, rng.randint(1, 60), 9)
        elif kind == "interval":
            offset, raw = rng.randint(-20, 20), unimodal_weights(rng, rng.randint(1, 40), 9)
        elif kind == "large_interval":
            offset, raw = rng.randint(-20, 20), unimodal_weights(rng, rng.randint(280, 320), 10**6)
        elif kind == "flatten":
            offset, raw = 0, decreasing_weights(rng, rng.randint(1, 20), 9)
        elif kind == "merge":
            items.append((kind, (random_uniform_mixture(rng), a)))
            continue
        else:
            items.append((kind, (three_atom_mixture(rng, a), a)))
            continue
        items.append((kind, (make_pmf(offset, raw), offset, raw, a)))
    return items


def decompose_run(api, kind, data):
    if kind == "uniform":
        m = api.to_uniform_mixture(data[0])
        return m, api.from_uniform_mixture(m)
    if kind in ("interval", "large_interval"):
        m = api.unimodal_to_interval_mixture(data[0])
        return m, api.from_interval_mixture(m)
    if kind == "flatten":
        return api.flatten_head(data[0], data[3])
    if kind == "merge":
        return api.merge_tail_atoms(*data)
    return api.reduce_three_atoms(*data)


def decompose_check(kind, data, result) -> None:
    if kind == "uniform":
        m, back = result
        ref = Reference(data[1], data[2])
        raw, total = ref.raw + [0], ref.total
        want = {i: Fraction((i + 1) * (raw[i] - raw[i + 1]), total)
                for i in range(len(ref.raw)) if raw[i] != raw[i + 1]}
        expect(dict(m.atoms) == want, "uniform mixture atoms")
        expect(ref.matches(back), "uniform roundtrip")
    elif kind in ("interval", "large_interval"):
        m, back = result
        ref = Reference(data[1], data[2])
        # Super-level sets of a unimodal sequence shrink from both ends
        # as the level rises: one sweep gives every interval.
        want, l, r, prev = {}, 0, len(ref.raw) - 1, 0
        for level in sorted(set(ref.raw) - {0}):
            while ref.raw[l] < level:
                l += 1
            while ref.raw[r] < level:
                r -= 1
            want[(ref.offset + l, ref.offset + r)] = Fraction((level - prev) * (r - l + 1), ref.total)
            prev = level
        expect(dict(m.atoms) == want, "interval mixture atoms")
        expect(ref.matches(back), "interval roundtrip")
    elif kind == "flatten":
        p, a, q = data[0], data[3], result
        expect(pmf_mean(q) == pmf_mean(p), "flatten_head mean")
        expect(pmf_tail(q, a) >= pmf_tail(p, a), "flatten_head tail")
        head = list(q.weights[1:a + 1]) + [Fraction(0)] * max(0, a + 1 - len(q.weights))
        expect(q.offset == 0 and len(set(head)) == 1, "flatten_head head not flat")
        expect(all(x >= y for x, y in zip(q.weights, q.weights[1:])), "flatten_head shape")
    else:
        (m, a), out = data, result
        expect(uniform_mixture_index_mean(out.atoms) == uniform_mixture_index_mean(m.atoms),
               f"{kind} mean")
        before, after = uniform_mixture_tail(m.atoms, a), uniform_mixture_tail(out.atoms, a)
        expect(after >= before, f"{kind} tail")
        positive = sorted(i for i, w in out.atoms.items() if w > 0)
        if kind == "merge":
            expect(after > before or dict(out.atoms) == dict(m.atoms), "merge made no progress")
            beyond = [i for i in positive if i >= a]
            expect(not beyond or beyond[-1] - beyond[0] <= 1, "merge left spread tail atoms")
        else:
            expect(len(positive) <= 2, "reduce left three atoms")


# --- oracle_grid ---------------------------------------------------------
#
# Per block of 20, in three cost tiers so that the median and the 95th
# percentile each sit inside a tier rather than on the step between two:
# - 8 cheap items (40%): decreasing-oracle cells at N = 50 (4) and
#   two-sided probes at radius 4 (4);
# - 10 middle items (40-90%): decreasing cells at N = 200 with 2mu in
#   [4, 6] (4), verify grids of 2 a x 2 mu at N = 50 with one mu
#   infeasible (2), and two-sided probes at radius 6 (4);
# - 2 heavy items (90-100%): one decreasing cell at N = 800, with 2mu in
#   [12, 16] so it costs about as much as the other, a two-sided probe at
#   radius 8.

ORACLE_COUNTS = {
    ("decreasing", 50): 4, ("two_sided", 4): 4,
    ("decreasing", 200): 4, ("verify", 50): 2, ("two_sided", 6): 4,
    ("decreasing", 800): 1, ("two_sided", 8): 1,
}


def decreasing_mu(rng: random.Random, low: int = 8, high: int = 12) -> Fraction:
    """mu with 2mu in [low, high], in quarter steps.

    The decreasing oracle examines about (2mu + 1) * N atom pairs, so a
    narrow band keeps the cost of one cell within +-20%.
    """
    return Fraction(rng.randint(2 * low, 2 * high), 4)


def two_sided_probe(rng: random.Random, radius: int):
    """(a, mu, var) taken from a unimodal witness that fits the window.

    A witness of at most radius + 1 points lies within radius of its
    mean, so every probe is feasible and the oracle must reach at least
    the witness's tail.  Integer means are redrawn so every window holds
    exactly 2 * radius integers and probe cost depends on radius alone.
    """
    while True:
        raw = unimodal_weights(rng, rng.randint(2, radius + 1), 9)
        ref = Reference(rng.randint(-5, 5), raw)
        if ref.mean.denominator != 1:
            return rng.randint(1, max(1, radius // 2)), ref


def oracle_block(rng: random.Random) -> list:
    items = []
    for kind, size in shuffled(rng, ORACLE_COUNTS):
        if kind == "decreasing":
            mu = {50: decreasing_mu(rng), 200: decreasing_mu(rng, 4, 6),
                  800: decreasing_mu(rng, 12, 16)}[size]
            data = (rng.randint(1, 10), mu, size)
        elif kind == "verify":
            a_values = sorted(rng.sample(range(1, 11), 2))
            mus = [decreasing_mu(rng), Fraction(rng.randint(51, 60), 2)]
            data = (a_values, mus, size)
        else:
            data = two_sided_probe(rng, size) + (size,)
        items.append((kind, data))
    return items


def oracle_run(api, kind, data):
    if kind == "decreasing":
        return api.lp_max_tail_decreasing(*data)
    if kind == "verify":
        return api.verify_tightness_theorem2(*data)
    a, ref, radius = data
    return api.lp_max_two_sided_unimodal(a, ref.mean, ref.var, radius)


def check_theorem2_cell(a: int, mu: Fraction, oracle: Fraction) -> None:
    bound = mu / (2 * a - 1)
    if 2 * mu <= 2 * a - 1:
        expect(oracle == bound, f"oracle {oracle} misses tight bound {bound}")
    else:
        # Beyond the two-atom range every feasible mixture puts mass on
        # an index i >= 2a, where (i-a+1)/(i+1) < i/(2(2a-1)).
        expect(oracle < bound, f"oracle {oracle} reaches bound {bound} out of range")


def oracle_check(kind, data, result) -> None:
    if kind == "decreasing":
        a, mu, n = data
        check_theorem2_cell(a, mu, result.max_tail)
        atoms = result.argmax.atoms
        expect(len(atoms) <= 2 and all(0 <= i <= n for i in atoms), "argmax support")
        expect(uniform_mixture_index_mean(atoms) == 2 * mu, "argmax mean")
        expect(uniform_mixture_tail(atoms, a) == result.max_tail, "argmax tail")
    elif kind == "verify":
        a_values, mus, n = data
        expect([(row.a, row.mu) for row in result] == [(a, mu) for a in a_values for mu in mus],
               "verify grid")
        for row in result:
            expect(row.bound == row.mu / (2 * row.a - 1), "verify bound")
            if 2 * row.mu > n:
                expect(row.oracle is None and row.equal is None, "infeasible row")
            else:
                check_theorem2_cell(row.a, row.mu, row.oracle)
                expect(row.equal == (row.oracle == row.bound), "verify equal flag")
    else:
        a, ref, radius = data
        bound = (ref.var + Fraction(1, 12)) / (2 * (a - Fraction(1, 2)) ** 2)
        expect(result.max_tail < bound, "two-sided oracle reaches the Theorem 3 bound")
        expect(result.max_tail >= ref.two_sided(a), "two-sided oracle below a witness")
        atoms = result.argmax.atoms
        expect(all(ref.mean - radius <= l and r <= ref.mean + radius for l, r in atoms),
               "argmax outside the window")
        m1, m2 = interval_moments(atoms)
        expect(m1 == ref.mean and m2 - m1 * m1 == ref.var, "argmax moments")
        reached = sum((w * Fraction(sum(1 for k in range(l, r + 1) if abs(k - ref.mean) >= a),
                                    r - l + 1) for (l, r), w in atoms.items()), Fraction(0))
        expect(reached == result.max_tail, "argmax tail")


# --- cli_requests --------------------------------------------------------
#
# Per block of 20 argv lists, pmfs of <= 50 points: 6 bound (one-sided and
# two-sided x json/csv/plain), 3 sweep, 4 decompose (2 uniform, 2
# interval), 3 extremal (2 discrete, 1 continuous), 1 verify (N <= 50)
# and 3 expected errors (15%): a malformed literal or threshold (exit 3),
# a shape violation (exit 3) and an infeasible extremal mean (exit 4).

CLI_COUNTS = {
    "bound": 6, "sweep": 3, "decompose_uniform": 2, "decompose_interval": 2,
    "extremal_discrete": 2, "extremal_continuous": 1, "verify": 1,
    "bad_input": 1, "shape_violation": 1, "infeasible": 1,
}
BOUND_VARIANTS = [(mode, fmt) for mode in ("one-sided", "two-sided")
                  for fmt in ("json", "csv", "plain")]


def literal(offset: int, raw: list[int]) -> str:
    return f"weights:{offset};" + ",".join(map(str, raw))


def cli_block(rng: random.Random) -> list:
    items = []
    bound_variants = iter(rng.sample(BOUND_VARIANTS, len(BOUND_VARIANTS)))
    for kind in shuffled(rng, CLI_COUNTS):
        if kind in ("bound", "sweep"):
            if rng.random() < 0.5:
                pmf = (0, decreasing_weights(rng, rng.randint(1, 50), 9))
            else:
                pmf = (rng.randint(-10, 10), unimodal_weights(rng, rng.randint(1, 50), 9))
            if kind == "bound":
                mode, fmt = next(bound_variants)
                a = rng.randint(1, 12)
                argv = ["bound", "--pmf", literal(*pmf), "--a", str(a),
                        "--mode", mode, "--format", fmt]
            else:
                mode, fmt = rng.choice(["one-sided", "two-sided"]), rng.choice(["json", "csv"])
                a = rng.randint(1, 8)
                argv = ["sweep", "--pmf", literal(*pmf), "--a", f"1..{a}",
                        "--mode", mode, "--format", fmt]
            ctx = (pmf, a, mode, fmt)
        elif kind == "decompose_uniform":
            pmf = (0, decreasing_weights(rng, rng.randint(1, 50), 9))
            argv, ctx = ["decompose", "--pmf", literal(*pmf)], pmf
        elif kind == "decompose_interval":
            pmf = (rng.randint(-10, 10), unimodal_weights(rng, rng.randint(1, 50), 9))
            argv, ctx = ["decompose", "--pmf", literal(*pmf), "--kind", "interval"], pmf
        elif kind == "extremal_discrete":
            a = rng.randint(1, 12)
            mu = Fraction(rng.randint(1, 2 * a - 1), 2 * rng.randint(1, 3))
            argv, ctx = ["extremal", "--a", str(a), "--mu", str(mu)], (a, mu)
        elif kind == "extremal_continuous":
            a = rng.randint(1, 9)
            eps = a / rng.choice((4, 8, 16))
            mu = rng.choice((0.5, 0.75, 1.0)) * a
            argv = ["extremal", "--kind", "continuous", "--a", str(a), "--mu", str(mu),
                    "--epsilon", str(eps)]
            ctx = (a, mu, eps)
        elif kind == "verify":
            n = rng.randint(20, 50)
            lo = rng.randint(1, 4)
            mus = [decreasing_mu(rng) / 2, decreasing_mu(rng)]
            fmt = rng.choice(["json", "csv"])
            argv = ["verify", "--a", f"{lo}..{lo + 1}", "--mu", ",".join(map(str, mus)),
                    "--N", str(n), "--format", fmt]
            ctx = ([lo, lo + 1], mus, n, fmt)
        elif kind == "bad_input":
            raw = decreasing_weights(rng, rng.randint(2, 20), 9)
            if rng.random() < 0.5:
                text = literal(0, raw)
                cut = rng.randrange(len("weights:0;"), len(text))
                argv = ["bound", "--pmf", text[:cut] + "x" + text[cut:], "--a", "2"]
            else:
                argv = ["bound", "--pmf", literal(0, raw), "--a", str(-rng.randint(0, 3))]
            ctx = 3
        elif kind == "shape_violation":
            raw = [rng.randint(1, 4), rng.randint(5, 9)] + decreasing_weights(rng, rng.randint(1, 30), 4)
            argv, ctx = ["decompose", "--pmf", literal(0, raw)], 3
        else:
            a = rng.randint(1, 12)
            mu = Fraction(2 * a - 1, 2) + Fraction(rng.randint(1, 9), rng.randint(1, 3))
            argv, ctx = ["extremal", "--a", str(a), "--mu", str(mu)], 4
        items.append((kind, (argv, ctx)))
    return items


def cli_run(api, kind, data):
    return api.run_cli(data[0])


def cli_check(kind, data, result) -> None:
    argv, ctx = data
    code, out, err = result
    expect("Traceback" not in err, "traceback on stderr")
    if kind in ("bad_input", "shape_violation", "infeasible"):
        prefix = "infeasible: " if ctx == 4 else "error: "
        expect(code == ctx, f"exit code {code}, expected {ctx}")
        expect(out == "", "output on a failed request")
        expect(err.startswith(prefix) and err.endswith("\n") and err.count("\n") == 1,
               f"stderr is not one '{prefix}...' line")
        return
    expect(code == 0 and err == "", f"exit code {code}: {err.strip()}")
    if kind in ("bound", "sweep"):
        pmf_args, a, mode, fmt = ctx
        p = make_pmf(*pmf_args)
        tail_mode = TailMode.ONE_SIDED_UPPER if mode == "one-sided" else TailMode.TWO_SIDED
        exact_of = tail if mode == "one-sided" else two_sided_tail
        if kind == "bound":
            exact, results = exact_of(p, a), best_bound(p, a, tail_mode)
            ref = Reference(*pmf_args)
            if fmt == "json":
                got = json.loads(out)
                expect(got == {"a": a, "mode": mode, "exact_tail": str(exact),
                               "mean": str(ref.mean), "variance": str(ref.var),
                               "bounds": [r.to_dict() for r in results]}, "bound json")
            elif fmt == "csv":
                want = ["formula,value", f"ExactTail,{exact}"]
                want += [f"{r.formula.value},{r.value}" for r in results]
                expect(out == "\n".join(want) + "\n", "bound csv")
            else:
                lines = out.splitlines()
                expect(lines[0].endswith(f") = {exact}"), "bound plain tail line")
                expect([ln.split()[0] for ln in lines[1:]] == [r.formula.value for r in results],
                       "bound plain formulas")
        else:
            records = []
            for t in range(1, a + 1):
                exact = exact_of(p, t)
                for r in best_bound(p, t, tail_mode):
                    ratio = r.value / exact if exact > 0 else None
                    records.append((t, exact, r.formula.value, r.value, ratio))
            if fmt == "json":
                want = [{"a": t, "exact_tail": str(e), "formula": f, "bound": str(v),
                         "ratio": None if q is None else str(q)} for t, e, f, v, q in records]
                expect(json.loads(out) == want, "sweep json")
            else:
                want = ["a,exact_tail,formula,bound,ratio"]
                want += [f"{t},{e},{f},{v},{'' if q is None else q}" for t, e, f, v, q in records]
                expect(out == "\n".join(want) + "\n", "sweep csv")
    elif kind == "decompose_uniform":
        expect(json.loads(out) == to_uniform_mixture(make_pmf(*ctx)).to_dict(), "decompose uniform")
    elif kind == "decompose_interval":
        want = unimodal_to_interval_mixture(make_pmf(*ctx)).to_dict()
        expect(json.loads(out) == want, "decompose interval")
    elif kind == "extremal_discrete":
        expect(json.loads(out) == extremal_markov_discrete(*ctx).to_dict(), "extremal discrete")
    elif kind == "extremal_continuous":
        a, mu, eps = ctx
        want = extremal_markov_continuous(float(a), mu, eps).to_dict()
        expect(json.loads(out) == want, "extremal continuous")
    else:
        a_values, mus, n, fmt = ctx
        rows = verify_tightness_theorem2(a_values, mus, n)
        if fmt == "json":
            expect(json.loads(out) == tightness_rows_to_json(rows), "verify json")
        else:
            expect(out == tightness_rows_to_csv(rows), "verify csv")


WORKLOADS = {
    "soundness_sweep": (soundness_block, soundness_run, soundness_check),
    "decompose_roundtrip": (decompose_block, decompose_run, decompose_check),
    "oracle_grid": (oracle_block, oracle_run, oracle_check),
    "cli_requests": (cli_block, cli_run, cli_check),
}
