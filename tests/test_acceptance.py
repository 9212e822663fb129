"""Acceptance suite: one criterion per test, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the summary lines.
"""
import math
import random
import time
from bisect import bisect_left
from fractions import Fraction as F

import pytest

from tailbounds import (
    best_bound,
    chebyshev_classical,
    chebyshev_continuous_unimodal,
    chebyshev_unimodal,
    extremal_markov_continuous,
    flatten_head,
    from_interval_mixture,
    from_uniform_mixture,
    lp_max_two_sided_unimodal,
    markov_classical,
    markov_continuous_decreasing,
    markov_decreasing,
    mean,
    merge_tail_atoms,
    mixture_mean,
    mixture_tail,
    reduce_three_atoms,
    tail,
    to_uniform_mixture,
    two_sided_tail,
    unimodal_to_interval_mixture,
    uniform_pmf,
    variance,
    verify_tightness_theorem2,
)

from genpmf import (
    random_decreasing_pmf,
    random_three_atom_mixture,
    random_uniform_mixture,
    random_unimodal_pmf,
)


def report(number, label):
    def decorate(fn):
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {number} [{label}]: FAIL")
                raise
            elapsed = time.perf_counter() - start
            print(f"criterion {number} [{label}]: PASS ({elapsed:.2f}s)")

        wrapper.__name__ = fn.__name__
        return wrapper

    return decorate


@report(1, "uniform {0..10} regression")
def test_criterion_1_uniform_regression():
    start = time.perf_counter()
    p = uniform_pmf(0, 10)
    assert tail(p, 9) == F(2, 11)
    assert markov_classical(mean(p), 9).value == F(5, 9)
    assert variance(p) == F(10)
    assert chebyshev_classical(variance(p), 4).value == F(5, 8) == F(625, 1000)
    assert markov_decreasing(mean(p), 9).value == F(5, 17)
    # The same values must surface through the dispatch path.
    one_sided = {r.formula.value: r.value for r in best_bound(p, 9)}
    assert one_sided["MarkovClassical"] == F(5, 9)
    assert one_sided["MarkovDecreasingDiscrete"] == F(5, 17)
    assert time.perf_counter() - start < 1.0


@report(2, "continuous formula examples")
def test_criterion_2_continuous_examples():
    # Exponential with rate 2: mean 1/2, threshold 3/2.
    r = markov_continuous_decreasing(0.5, 1.5)
    assert abs(r.value - 1 / 6) <= 1e-12
    assert r.value > math.exp(-3.0)  # still an upper bound on the true tail
    # Uniform on [1, 10]: variance 81/12, symmetric deviation threshold 3.5;
    # symmetry halves the two-sided value for the one-sided tail.
    r = chebyshev_continuous_unimodal(81 / 12, 3.5)
    assert abs(r.value / 2 - 0.137755102040816) <= 1e-12
    assert r.value / 2 > 1 / 9  # true tail P(X >= 9)


@report(3, "Theorem 2 tightness grid")
def test_criterion_3_tightness_grid():
    start = time.perf_counter()
    rows = verify_tightness_theorem2(range(1, 11), [F(1, 2), 1, 2, 4], 50)
    assert len(rows) == 40
    feasible = [r for r in rows if r.note == ""]
    assert feasible
    for r in feasible:
        assert r.equal and r.oracle == r.bound == r.mu / (2 * r.a - 1)
    # No cell, feasible or not, may see the oracle exceed the bound value.
    assert all(r.oracle <= r.bound for r in rows if r.oracle is not None)
    assert time.perf_counter() - start < 10.0


@report(4, "Theorem 2 soundness sweep")
def test_criterion_4_soundness_decreasing():
    start = time.perf_counter()
    rng = random.Random(20260824)
    violations = 0
    for _ in range(10_000):
        p = random_decreasing_pmf(rng, max_support=60)
        mu = mean(p)
        acc = F(0)
        # Suffix sums give every tail in one backward pass.
        for a in range(p.support_max, 0, -1):
            acc += p.weights[a]
            if acc * (2 * a - 1) > mu:
                violations += 1
    assert violations == 0
    assert time.perf_counter() - start < 60.0


@report(5, "Theorem 3 soundness sweep")
def test_criterion_5_soundness_unimodal():
    start = time.perf_counter()
    rng = random.Random(20260825)
    violations = 0
    for trial in range(10_000):
        p = random_unimodal_pmf(rng, max_span=40)
        mu, var = mean(p), variance(p)
        devs = sorted((abs(F(k) - mu), w) for k, w in p.items())
        # Suffix sums over sorted deviations give every two-sided tail.
        suffix = [F(0)] * (len(devs) + 1)
        for i in range(len(devs) - 1, -1, -1):
            suffix[i] = suffix[i + 1] + devs[i][1]
        keys = [d for d, _ in devs]
        span = p.support_max - p.support_min
        for a in range(1, span + 2):
            t = suffix[bisect_left(keys, F(a))]
            if 2 * t * (2 * a - 1) ** 2 > 4 * var + F(1, 3):
                violations += 1
        if trial % 500 == 0:
            a = rng.randint(1, span + 1)
            t = suffix[bisect_left(keys, F(a))]
            assert t == two_sided_tail(p, a)
    assert violations == 0
    assert time.perf_counter() - start < 60.0


# (a, mu, var, radius) for the Theorem 3 gap probes.
CRITERION_6_CONFIGS = [
    (4, F(5), F(10), 5),
    (2, F(0), F(2), 6),
    (2, F(1, 2), F(3, 2), 6),
    (3, F(0), F(5), 8),
    (2, F(3), F(1), 6),
]


@report(6, "Theorem 3 non-tightness probe")
def test_criterion_6_two_sided_oracle_gap():
    start = time.perf_counter()
    gaps = []
    for a, mu, var, radius in CRITERION_6_CONFIGS:
        res = lp_max_two_sided_unimodal(a, mu, var, radius)
        bound = chebyshev_unimodal(var, a).value
        assert res.max_tail < bound
        q = from_interval_mixture(res.argmax)
        assert mean(q) == mu and variance(q) == var
        assert two_sided_tail(q, a) == res.max_tail
        gaps.append((a, str(mu), str(var), str(bound - res.max_tail)))
    print(f"  non-tightness gaps (a, mu, var, bound - oracle): {gaps}")
    assert time.perf_counter() - start < 300.0


@report("6b", "Theorem 3 non-tightness probe at radius 20")
def test_criterion_6b_two_sided_oracle_gap_radius_20():
    # A wider window only adds feasible pmfs, so the maximum cannot drop
    # from radius 8 to radius 20.
    start = time.perf_counter()
    gaps = []
    for a, mu, var, _ in CRITERION_6_CONFIGS:
        res = lp_max_two_sided_unimodal(a, mu, var, 20)
        bound = chebyshev_unimodal(var, a).value
        assert res.max_tail < bound
        q = from_interval_mixture(res.argmax)
        assert mean(q) == mu and variance(q) == var
        assert two_sided_tail(q, a) == res.max_tail
        assert res.max_tail >= lp_max_two_sided_unimodal(a, mu, var, 8).max_tail
        gaps.append((a, str(mu), str(var), str(bound - res.max_tail)))
    print(f"  radius-20 gaps (a, mu, var, bound - oracle): {gaps}")
    assert time.perf_counter() - start < 60.0


@report(7, "Theorem 1 epsilon limit")
def test_criterion_7_continuous_limit():
    for a, mu in [(1.0, 0.5), (2.0, 0.75), (5.0, 2.0)]:
        tails = [
            extremal_markov_continuous(a, mu, a * 2.0**-k).achieved_tail
            for k in range(1, 21)
        ]
        assert all(x < y for x, y in zip(tails, tails[1:]))
        assert abs(tails[-1] - mu / (2 * a)) <= 1e-5


@report(8, "decomposition roundtrips")
def test_criterion_8_roundtrips():
    rng = random.Random(20260826)
    for _ in range(10_000):
        p = random_decreasing_pmf(rng, max_support=30)
        m = to_uniform_mixture(p)
        assert from_uniform_mixture(m) == p
        assert mean(p) == mixture_mean(m) / 2
    for _ in range(10_000):
        q = random_unimodal_pmf(rng, max_span=25)
        assert from_interval_mixture(unimodal_to_interval_mixture(q)) == q


@report(9, "proof-transform invariants")
def test_criterion_9_transform_invariants():
    rng = random.Random(20260827)
    for _ in range(1_000):
        a = rng.randint(1, 8)
        p = random_decreasing_pmf(rng, max_support=20)
        q = flatten_head(p, a)
        assert mean(q) == mean(p)
        assert tail(q, a) >= tail(p, a)

        m = random_uniform_mixture(rng, max_atom=25)
        merged = merge_tail_atoms(m, a)
        assert mixture_mean(merged) == mixture_mean(m)
        if merged != m:
            assert mixture_tail(merged, a) > mixture_tail(m, a)
        else:
            assert mixture_tail(merged, a) == mixture_tail(m, a)

        r = random_three_atom_mixture(rng, a)
        reduced = reduce_three_atoms(r, a)
        assert mixture_mean(reduced) == mixture_mean(r)
        assert mixture_tail(reduced, a) >= mixture_tail(r, a)
