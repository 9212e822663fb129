import itertools
import json
import math
import random
import time
import tracemalloc
from fractions import Fraction as F

import pytest

from tailbounds import (
    ExtremalKind,
    InfeasibleError,
    SoundnessViolationError,
    TightnessRow,
    UniformMixture,
    ValidationError,
    chebyshev_unimodal,
    extremal_markov_continuous,
    extremal_markov_discrete,
    from_interval_mixture,
    from_uniform_mixture,
    lp_max_tail_decreasing,
    lp_max_two_sided_unimodal,
    mean,
    mixture_tail,
    shape,
    tail,
    tightness_rows_to_csv,
    two_sided_tail,
    uniform_pmf,
    variance,
    verify_tightness_theorem2,
)
from tailbounds import extremal
from tailbounds.extremal import (
    _check_certificate, _first_failing, _run_phase, _simplex, _slack_minima,
)

from reference_oracles import (
    decreasing_columns,
    decreasing_dual_feasible,
    hull_certificate,
    hull_max_tail_decreasing,
    reference_max_tail_decreasing,
    reference_max_two_sided_unimodal,
    simplex_max_two_sided_unimodal,
    tangent_farkas_vector,
)
from test_acceptance import CRITERION_6_CONFIGS


class TestExtremalMarkovDiscrete:
    def test_half_feasibility_example(self):
        spec = extremal_markov_discrete(9, F(17, 4))
        assert dict(spec.mixture.atoms) == {0: F(1, 2), 17: F(1, 2)}
        assert spec.achieved_tail == F(1, 4) == spec.bound_value

    def test_threshold_one(self):
        spec = extremal_markov_discrete(1, F(1, 2))
        assert dict(spec.mixture.atoms) == {1: F(1)}
        assert spec.achieved_tail == F(1, 2)

    def test_uniform_example_mu_five(self):
        spec = extremal_markov_discrete(9, 5)
        assert spec.mixture.weight(17) == F(10, 17)
        assert spec.achieved_tail == F(5, 17)

    def test_infeasible_mu_names_cap(self):
        with pytest.raises(InfeasibleError, match="17/2"):
            extremal_markov_discrete(9, 10)

    def test_construction_properties(self):
        for a, mu in [(1, F(1, 4)), (3, F(3, 2)), (9, F(17, 4)), (12, F(11))]:
            spec = extremal_markov_discrete(a, mu)
            p = from_uniform_mixture(spec.mixture)
            assert shape(p).is_decreasing
            assert mean(p) == mu
            assert tail(p, a) == mu / (2 * a - 1)

    def test_both_lemma_maximizers_achieve_same_tail(self):
        # The alternate construction mixes the point mass with the
        # uniform on {0..2a-2}; it reaches the same tail value.
        for a, mu in [(2, F(1, 2)), (5, F(2)), (9, F(17, 4))]:
            alt_top = 2 * a - 2
            d = 2 * mu / alt_top
            alt = UniformMixture({0: 1 - d, alt_top: d})
            assert mixture_tail(alt, a) == mu / (2 * a - 1)

    def test_family_ratio_sign_and_maximizers(self):
        # For the point-mass-plus-uniform family (mean fixed), the tail
        # as a function of the support cap i rises strictly up to
        # i = 2(a - 1), plateaus across {2a - 2, 2a - 1}, and falls
        # after: the ratio of consecutive tails crosses 1 exactly there.
        for a in (2, 3, 5, 9):
            def family_tail(i):
                return F(2, i) * F(i - (a - 1), i + 1)

            for i in range(a, 4 * a + 1):
                r = family_tail(i + 1) / family_tail(i)
                lhs = (r > 1) - (r < 1)
                rhs = (2 * (a - 1) > i) - (2 * (a - 1) < i)
                assert lhs == rhs
            peak = family_tail(2 * a - 2)
            assert peak == family_tail(2 * a - 1) == F(1, 2 * a - 1)


class TestExtremalMarkovContinuous:
    def test_formula_example(self):
        spec = extremal_markov_continuous(1.0, 0.5, 0.1)
        assert spec.kind is ExtremalKind.CONTINUOUS_EPSILON_MIXTURE
        assert spec.achieved_tail == pytest.approx(0.45 / 1.9, abs=1e-15)
        assert spec.mix_weight == pytest.approx(0.45 / 0.95, abs=1e-15)

    def test_epsilon_limit(self):
        tails = [
            extremal_markov_continuous(1.0, 0.5, 2.0**-k).achieved_tail
            for k in range(1, 21)
        ]
        assert all(x < y for x, y in zip(tails, tails[1:]))
        assert tails[-1] == pytest.approx(0.25, abs=1e-5)

    def test_mean_at_epsilon_half(self):
        spec = extremal_markov_continuous(1.0, 0.05, 0.1)
        assert spec.mix_weight == 0
        assert spec.achieved_tail == 0

    def test_achieved_below_bound(self):
        spec = extremal_markov_continuous(2.0, 1.5, 0.5)
        assert spec.achieved_tail < spec.bound_value == 1.5 / 4

    def test_domain_errors(self):
        with pytest.raises(ValidationError):
            extremal_markov_continuous(1.0, 0.5, 1.5)
        with pytest.raises(ValidationError):
            extremal_markov_continuous(1.0, 0.01, 0.5)
        with pytest.raises(ValidationError):
            extremal_markov_continuous(1.0, float("nan"), 0.5)

    @pytest.mark.parametrize("mu", [F(10**30 + 1, 10**30), "1e5000"])
    def test_mean_above_a_refused(self, mu):
        # The message names no value: 10**5000 has more digits than str() may print.
        with pytest.raises(ValidationError) as excinfo:
            extremal_markov_continuous(1, mu, 0.5)
        assert str(excinfo.value) == "mean must be at most a: the mix weight would exceed 1"

    def test_rational_inputs_give_float_fields(self):
        spec = extremal_markov_continuous(F(3), F(1), F(1, 2))
        out = json.loads(json.dumps(spec.to_dict()))
        assert out == {
            "kind": "ContinuousEpsilonMixture", "epsilon": 0.5, "a": 3.0, "p": 0.75 / 2.75,
            "achieved_tail": 0.75 / 5.5, "bound_value": 1 / 6,
        }

    def test_inputs_near_the_float_limit(self):
        spec = extremal_markov_continuous(1e308, 1e308, 1e307)
        assert spec.achieved_tail == spec.bound_value == 0.5
        with pytest.raises(ValidationError, match="^threshold a is too large for a float$"):
            extremal_markov_continuous(10**309, 1.0, 0.5)


class TestLpMaxTailDecreasing:
    def test_matches_sharpened_bound(self):
        res = lp_max_tail_decreasing(9, 5, 100)
        assert res.max_tail == F(5, 17)
        assert set(res.argmax.atoms) in ({0, 16}, {0, 17})
        assert res.enumerated > 0

    def test_threshold_one_is_classical_markov(self):
        # Classical Markov is tight at a = 1 as long as the two-atom
        # construction fits (mu <= 1/2); beyond that the cap binds.
        for mu in (F(1, 8), F(1, 4), F(1, 2)):
            assert lp_max_tail_decreasing(1, mu, 20).max_tail == mu
        assert lp_max_tail_decreasing(1, F(1), 20).max_tail == F(2, 3)

    def test_boundary_mean_forces_big_uniform(self):
        res = lp_max_tail_decreasing(3, F(25), 50)
        assert dict(res.argmax.atoms) == {50: F(1)}
        assert res.max_tail == F(48, 51)

    def test_argmax_recomputable(self):
        res = lp_max_tail_decreasing(4, F(3, 2), 30)
        p = from_uniform_mixture(res.argmax)
        assert shape(p).is_decreasing
        assert mean(p) == F(3, 2)
        assert tail(p, 4) == res.max_tail

    def test_infeasible_mean(self):
        with pytest.raises(InfeasibleError):
            lp_max_tail_decreasing(1, 30, 50)
        with pytest.raises(InfeasibleError):
            lp_max_tail_decreasing(1, 0, 50)

    def test_closed_form_edge_matches_hull_scan(self):
        # Every 2mu = k/q up to and including N; at N = 200 only those near
        # the vertex 2a - 1, near N, and every 11th k in between.
        start = time.perf_counter()
        cells = 0
        for a in range(1, 9):
            for N in (2 * a, 2 * a + 1, 50, 200):
                for q in (1, 2, 3, 7):
                    for k in range(1, N * q + 1):
                        two_mu = F(k, q)
                        if N == 200 and not (two_mu <= 4 * a or two_mu >= N - 2 or k % 11 == 0):
                            continue
                        got = lp_max_tail_decreasing(a, two_mu / 2, N)
                        want = hull_max_tail_decreasing(a, two_mu / 2, N)
                        assert (got.max_tail, got.argmax) == (
                            want.max_tail, want.argmax,
                        ), (a, two_mu, N)
                        # The reference checks all N + 1 columns; the oracle reads at most 8.
                        assert got.enumerated <= 8
                        cells += 1
        assert cells > 10_000
        assert time.perf_counter() - start < 10.0

    def test_constant_memory_at_a_million_columns(self):
        tracemalloc.start()
        try:
            res = lp_max_tail_decreasing(5, F(23, 4), 10**6)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert res.max_tail == F(187, 312)
        assert peak < 2**20

    def test_oracle_never_exceeds_bound_and_widening_does_not_help(self):
        for a, mu in [(2, F(1, 2)), (3, F(5, 4)), (5, F(2)), (7, F(13, 2))]:
            bound = mu / (2 * a - 1)
            base = lp_max_tail_decreasing(a, mu, 2 * a).max_tail
            assert base <= bound
            for N in (2 * a + 5, 4 * a, 60):
                assert lp_max_tail_decreasing(a, mu, N).max_tail <= base


def record_certificate_checks(monkeypatch):
    """Run every oracle's certificate check as usual, appending its arguments to a list."""
    calls = []

    def recording(*args):
        calls.append(args)
        return _check_certificate(*args)

    monkeypatch.setattr(extremal, "_check_certificate", recording)
    return calls


class TestSlackMinima:
    """The decreasing oracle's dual step accepts exactly what a scan of all N + 1 columns does."""

    @staticmethod
    def first_failing(a, q, N, y, det):
        """The dual step on the named columns, as plain lists: a column index or None."""
        named = _slack_minima(a, q, N, y, det)
        assert len(named) <= 8 and named == sorted(set(named))
        assert 0 <= named[0] and named[-1] <= N
        A, us = decreasing_columns(a, q, N)
        j = _first_failing([A[i] for i in named], [us[i] for i in named], y, det)
        return None if j is None else named[j]

    def accepts(self, a, q, N, y, det):
        got = self.first_failing(a, q, N, y, det) is None
        assert got == decreasing_dual_feasible(a, q, N, y, det), (a, q, N, y, det)
        return got

    def test_matches_the_full_scan(self):
        rng = random.Random(20261020)
        verdicts = {True: 0, False: 0}
        leading = set()
        for a in range(1, 9):
            for N in (2 * a, 2 * a + 1, 50):
                for q in (1, 2, 3, 7):
                    _, us = decreasing_columns(a, q, N)
                    for k in rng.sample(range(1, N * q + 1), min(6, N * q)):
                        # The oracle's own dual for 2mu = k / q, then tampered ones.
                        y, det, _ = hull_certificate(k, q, us)
                        assert self.accepts(a, q, N, y, det)
                        y0, y1, _ = y
                        duals = [((-y0, y1, 0), det), ((y0, -y1, 0), det), (y, -det)]
                        for d in (-1, 1):
                            duals += [((y0 + d, y1, 0), det), ((y0, y1 + d, 0), det), (y, det + d)]
                        size = max(abs(y0), det)
                        duals += [((rng.randint(-size, size), rng.randint(-9, 9), 0),
                                   rng.randint(-size, size)) for _ in range(3)]
                        for y, det in duals:
                            verdicts[self.accepts(a, q, N, y, det)] += 1
                            leading.add((y[1] > 0) - (y[1] < 0))
        assert leading == {-1, 0, 1}
        assert min(verdicts.values()) > 1000

    @pytest.mark.parametrize("a, y, det, failing", [
        (1, (230, 2, 0), 275, 11),  # 2i^2 - 43i + 230: vertex 10.75, least at its ceiling
        (1, (209, 2, 0), 252, 10),  # 2i^2 - 41i + 209: vertex 10.25, least at its floor
        (1, (-1, 5, 0), 3, 0),  # 5i^2 + i - 1: only i = a - 1 = 0, where the one piece starts
        # Only i = a - 1 = 2, where the upper piece starts; for a > 1 that
        # takes det < 0, since with det >= 0 column a fails as well.
        (3, (10, -6, 0), -400, 2),
    ], ids=["ceiling", "floor", "a-1-at-0", "a-1-at-2"])
    def test_a_lone_failing_column_is_found(self, a, y, det, failing):
        A, us = decreasing_columns(a, 1, 50)
        slack = [sum(u * v for u, v in zip(y, col)) - det * obj for col, obj in zip(A, us)]
        assert [i for i, s in enumerate(slack) if s < 0] == [failing]
        assert self.first_failing(a, 1, 50, y, det) == failing

    def test_the_oracle_checks_exactly_the_named_columns(self, monkeypatch):
        calls = record_certificate_checks(monkeypatch)
        rng = random.Random(20261021)
        cells = [(5, F(23, 2), 10**6), (1, F(10**6), 10**6), (3, F(1, 7), 10**6)]
        for _ in range(200):
            a = rng.randint(1, 8)
            N = rng.choice([2 * a, 2 * a + 1, 50, 10**6])
            q = rng.choice([1, 2, 3, 7])
            cells.append((a, F(rng.randint(1, min(N, 60) * q), q), N))
        for a, two_mu, N in cells:
            q = two_mu.denominator
            calls.clear()
            res = lp_max_tail_decreasing(a, two_mu / 2, N)
            [(A, us, b, y, det, solution, labels)] = calls
            named = _slack_minima(a, q, N, y, det)
            assert len(named) <= 8 and labels == named
            assert A == [(i + 1, q * i * (i + 1), 0) for i in named]
            assert us == [max(0, i - a + 1) for i in named]
            assert b == (1, two_mu.numerator, 0)
            # Both basis columns are named, and they bracket 2mu.
            xl, xr = sorted(named[j] for j in solution)
            assert xl < two_mu <= xr, (a, q, two_mu, N)
            assert set(res.argmax.atoms) <= {xl, xr}
            if N <= 50:
                _, want_det, want = hull_certificate(
                    two_mu.numerator, q, decreasing_columns(a, q, N)[1]
                )
                assert det == want_det
                assert {named[j]: x for j, x in solution.items()} == want


class TestTheorem2Certificate:
    """The decreasing oracle's dual is feasible at every column i >= 0: a proof, not a sample.

    On the edge [xl, xr] the dual is y = (Y0, Y1, 0) with
    Y0 = q xr (xr + 1 - 2a) and Y1 = a, at det = q (xl + 1)(xr + 1)(xr - xl).
    For i >= a - 1 column i's slack, y.(i + 1, q i (i + 1), 0) - det (i - a + 1),
    is claimed to equal q a (i - r1)(i - r1 - 1), which is >= 0 at every
    integer i.  Below a - 1 the slack is (i + 1)(Y0 + q a i) >= 0, since
    xr >= 2a - 1 makes Y0 >= 0.  Both sides are polynomials, and one of
    degree at most d_v in each variable v that vanishes on a grid of
    d_v + 1 values per variable is zero (Alon, Combinatorial
    Nullstellensatz, 1999, Lemma 2.1).  So an exact check on such a grid
    proves the identity for every a, q, edge and i, whatever N.
    """

    @staticmethod
    def dual(a, q, xl, xr):
        return (q * xr * (xr + 1 - 2 * a), a, 0), q * (xl + 1) * (xr + 1) * (xr - xl)

    @staticmethod
    def upper_slack(a, q, i, y, det):
        return sum(u * v for u, v in zip(y, (i + 1, q * i * (i + 1), 0))) - det * (i - a + 1)

    def test_first_edge_identity(self):
        # Edge [0, 2a - 1], r1 = 2a - 2; degree at most 3 in a, 1 in q, 2 in i.
        for a, q, i in itertools.product(range(4), range(2), range(3)):
            y, det = self.dual(a, q, 0, 2 * a - 1)
            r1 = 2 * a - 2
            assert self.upper_slack(a, q, i, y, det) == q * a * (i - r1) * (i - r1 - 1)

    def test_second_edge_identity(self):
        # Edge [k - 1, k], r1 = k - 1; degree at most 1 in a and q, 2 in k and i.
        for a, q, k, i in itertools.product(range(2), range(2), range(3), range(3)):
            y, det = self.dual(a, q, k - 1, k)
            r1 = k - 1
            assert self.upper_slack(a, q, i, y, det) == q * a * (i - r1) * (i - r1 - 1)

    def test_the_oracle_emits_these_polynomials(self, monkeypatch):
        calls = record_certificate_checks(monkeypatch)
        rng = random.Random(20261022)
        edges = set()
        for _ in range(400):
            a = rng.randint(1, 30)
            q = rng.choice([1, 2, 3, 5, 7, 12])
            N = rng.choice([2 * a, 6 * a + 4, 10**6])
            two_mu = F(rng.randint(1, min(N, 8 * a + 4) * q), q)
            q = two_mu.denominator
            calls.clear()
            lp_max_tail_decreasing(a, two_mu / 2, N)
            [(_, _, _, y, det, solution, labels)] = calls
            xl, xr = sorted(labels[j] for j in solution)
            assert (xl, xr) == ((0, 2 * a - 1) if xr == 2 * a - 1 else (xr - 1, xr))
            assert (y, det) == self.dual(a, q, xl, xr), (a, two_mu, N)
            assert y[0] >= 0
            edges.add(xl == 0)
        assert edges == {True, False}


class TestCertificateLabels:
    """A failing dual step names the column as its oracle does, not by its list position."""

    @staticmethod
    def tamper(monkeypatch, change):
        """Run each of the oracles' certificate checks on ``change(y)`` for the dual y."""
        seen = []

        def tampered(A, obj, b, y, det, solution, labels):
            y = change(y)
            seen.append((A, obj, y, 0 if solution is None else det, labels))
            return _check_certificate(A, obj, b, y, det, solution, labels)

        monkeypatch.setattr(extremal, "_check_certificate", tampered)
        return seen

    @pytest.mark.parametrize("call", [
        lambda: lp_max_tail_decreasing(3, 7, 50),
        lambda: verify_tightness_theorem2([3], [7], 50),
    ], ids=["oracle", "verify"])
    def test_decreasing_names_the_support_index(self, monkeypatch, call):
        seen = self.tamper(monkeypatch, lambda y: (y[0], y[1] - 1, 0))
        with pytest.raises(SoundnessViolationError) as excinfo:
            call()
        # The line through the edge [13, 14], tilted down.  Of the columns
        # checked, 13 is the first whose slack is negative, at position 3.
        assert str(excinfo.value) == "dual certificate fails on column 13"
        [(A, obj, y, scale, labels)] = seen
        assert labels == [0, 1, 2, 13, 14, 50]
        assert _first_failing(A, obj, y, scale) == 3
        assert (A[3], obj[3]) == ((14, 13 * 14, 0), 11)  # column 13: (i + 1, q i (i + 1), 0)

    def test_two_sided_names_the_interval(self, monkeypatch):
        seen = self.tamper(monkeypatch, lambda y: (y[0] - 1, y[1], y[2]))
        with pytest.raises(SoundnessViolationError) as excinfo:
            lp_max_two_sided_unimodal(1, 0, 1, 2)
        # The first common point, c = -2, is pruned.  Its tangent Farkas
        # vector (-6, -5, 3) sums to 0 over [-2, 2], the uniform whose
        # midpoint is mu, so lowering its mass entry fails that column first.
        assert str(excinfo.value) == "dual certificate fails on column (-2, 2)"
        [(A, obj, y, scale, labels)] = seen
        assert (y, scale) == ((-7, -5, 3), 0)
        j = _first_failing(A, obj, y, scale)
        assert (j, labels[j]) == (4, (-2, 2))
        # The sums over its 5 points of (1, k, k^2): count 5, sum 0, sum of squares 10.
        assert A[j] == (5, 0, 10)


class TestOneColumnForm:
    """Both oracles hand the checker window sums of a per-point vector and a tail indicator.

    Each column the checker receives is compared with a sum over its
    points written out here, with no closed form for sum k or sum k^2.
    """

    @staticmethod
    def window_sum(points, per_point):
        return tuple(sum(v) for v in zip(*map(per_point, points)))

    def test_two_sided_columns(self, monkeypatch):
        calls = record_certificate_checks(monkeypatch)
        rng = random.Random(20261023)
        cases = list(CRITERION_6_CONFIGS) + [(1, F(-5, 2), F(1, 4), 1), (2, F(-7, 3), F(5), 4)]
        for _ in range(12):
            radius = rng.randint(1, 5)
            mu = F(rng.randint(-9, 9), rng.choice([1, 2, 3]))
            cases.append((rng.randint(1, 3), mu, F(rng.randint(0, 2 * radius * radius), 4), radius))
        columns = 0
        for a, mu, var, radius in cases:
            calls.clear()
            try:
                res = lp_max_two_sided_unimodal(a, mu, var, radius)
            except InfeasibleError:
                res = None
            s2 = var + mu * mu
            sign = -1 if mu < 0 else 1
            m, s = sign * mu.denominator, s2.denominator
            lower_cut, upper_cut = math.floor(mu - a), math.ceil(mu + a)
            argmaxes = []
            for A, obj, b, y, det, solution, labels in calls:
                assert b == (1, sign * mu.numerator, s2.numerator)
                for (l, r), col, cost in zip(labels, A, obj):
                    points = range(l, r + 1)
                    assert col == self.window_sum(points, lambda k: (1, m * k, s * k * k)), (l, r)
                    assert cost == sum(k <= lower_cut or k >= upper_cut for k in points), (l, r)
                columns += len(A)
                if solution is not None:
                    # Interval j carries len_j * u_j of the mass.
                    argmaxes.append({labels[j]: F(labels[j][1] - labels[j][0] + 1) * x / det
                                     for j, x in solution.items() if x})
            assert (res is None) == (argmaxes == [])
            if res is not None:
                assert dict(res.argmax.atoms) in argmaxes, (a, mu, var, radius)
            # The checker receives the intervals holding each c of the window,
            # lowest c first, in (l, r) order.
            lo, hi = math.ceil(mu - radius), math.floor(mu + radius)
            assert [labels for *_, labels in calls] == [
                [(l, r) for l in range(lo, c + 1) for r in range(c, hi + 1)]
                for c in range(lo, hi + 1)
            ], (a, mu, var, radius)
        assert columns > 2000

    def test_decreasing_columns(self, monkeypatch):
        calls = record_certificate_checks(monkeypatch)
        rng = random.Random(20261024)
        for _ in range(60):
            a = rng.randint(1, 8)
            N = rng.choice([2 * a, 2 * a + 1, 50, 1000])
            q = rng.choice([1, 2, 3, 7])
            two_mu = F(rng.randint(1, min(N, 60) * q), q)
            q = two_mu.denominator  # in lowest terms, as the oracle reads it
            calls.clear()
            res = lp_max_tail_decreasing(a, two_mu / 2, N)
            [(A, obj, b, y, det, solution, labels)] = calls
            assert b == (1, two_mu.numerator, 0)
            for i, col, cost in zip(labels, A, obj):
                points = range(i + 1)
                assert col == self.window_sum(points, lambda k: (1, 2 * q * k, 0)), i
                assert cost == sum(k >= a for k in points), i
            assert dict(res.argmax.atoms) == {
                labels[j]: F(labels[j] + 1) * x / det for j, x in solution.items() if x
            }


class TestLpMaxTwoSidedUnimodal:
    def test_memory_holds_one_common_points_columns(self):
        # Only one c's columns, at most (N + 1)^2, are alive at a time.  A
        # first call fills the interpreter's free lists, so the traced peak
        # reads the same whether or not earlier tests ran the oracle.
        lp_max_two_sided_unimodal(4, 5, 10, 12)
        tracemalloc.start()
        try:
            res = lp_max_two_sided_unimodal(4, 5, 10, 12)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert res.max_tail == F(67, 165)
        assert peak < 24_000

    def test_uniform_is_feasible_witness(self):
        res = lp_max_two_sided_unimodal(4, 5, 10, 5)
        assert res.max_tail >= two_sided_tail(uniform_pmf(0, 10), 4) == F(4, 11)
        assert res.max_tail < chebyshev_unimodal(10, 4).value

    def test_zero_variance_point_mass(self):
        for a in (1, 2, 5):
            res = lp_max_two_sided_unimodal(a, 3, 0, 6)
            assert res.max_tail == 0
            assert dict(res.argmax.atoms) == {(3, 3): F(1)}

    def test_argmax_recomputable(self):
        res = lp_max_two_sided_unimodal(2, F(1, 2), F(3, 2), 6)
        p = from_interval_mixture(res.argmax)
        assert shape(p).is_unimodal
        assert mean(p) == F(1, 2)
        assert variance(p) == F(3, 2)
        assert two_sided_tail(p, 2) == res.max_tail

    def test_never_exceeds_sharpened_chebyshev(self):
        rng = random.Random(7)
        for _ in range(6):
            a = rng.randint(1, 4)
            mu = F(rng.randint(-4, 4), rng.choice([1, 2]))
            var = F(rng.randint(1, 30), rng.choice([1, 4]))
            try:
                res = lp_max_two_sided_unimodal(a, mu, var, 6)
            except InfeasibleError:
                continue
            assert res.max_tail <= chebyshev_unimodal(var, a).value

    def test_infeasible_moments(self):
        # Variance far beyond what the window can carry.
        with pytest.raises(InfeasibleError):
            lp_max_two_sided_unimodal(2, 0, 1000, 3)


class TestVerifyTightness:
    def test_grid_equality_on_feasible_cells(self):
        rows = verify_tightness_theorem2(range(1, 6), [F(1, 2), 1, 2], 30)
        feasible = [r for r in rows if r.note == ""]
        assert feasible and all(r.equal for r in feasible)
        assert all(r.oracle <= r.bound for r in rows if r.oracle is not None)

    def test_paper_cell(self):
        rows = verify_tightness_theorem2([9], [5], 50)
        assert rows[0].oracle == rows[0].bound == F(5, 17)
        assert rows[0].equal and rows[0].note == ""

    def test_infeasible_cell_reported(self):
        rows = verify_tightness_theorem2([1], [30], 50)
        assert rows[0].oracle is None and rows[0].equal is None
        assert "infeasible" in rows[0].note

    def test_construction_infeasible_cell_flagged(self):
        rows = verify_tightness_theorem2([1], [4], 50)
        assert rows[0].equal is False
        assert "construction infeasible" in rows[0].note
        assert rows[0].oracle == F(8, 9)

    @pytest.mark.parametrize("N", [1, -3])
    def test_invalid_cap_rejected_when_every_cell_infeasible(self, N):
        with pytest.raises(ValidationError, match="support cap N"):
            verify_tightness_theorem2([5], [1], N)

    def test_invalid_cap_rejected_on_an_empty_mean_grid(self):
        with pytest.raises(ValidationError, match="support cap N"):
            verify_tightness_theorem2([1], [], -5)
        with pytest.raises(ValidationError, match="support cap N"):
            verify_tightness_theorem2([1, 2], [], 3)  # 3 >= 2 a only for a = 1
        assert verify_tightness_theorem2([1, 2], [], 4) == []

    def test_generator_grid_read_once_for_every_threshold(self):
        rows = verify_tightness_theorem2([1, 2], (m for m in [F(1, 2)]), 10)
        assert [(r.a, r.mu) for r in rows] == [(1, F(1, 2)), (2, F(1, 2))]

    @staticmethod
    def reference_rows(a, mus, N):
        """verify's rows for one threshold, cell by cell from the hull-scan oracle."""
        rows = []
        for mu in mus:
            bound = mu / (2 * a - 1)
            try:
                oracle = hull_max_tail_decreasing(a, mu, N).max_tail
            except InfeasibleError:
                note = f"infeasible: mean must lie in (0, {F(N, 2)}]"
                rows.append(TightnessRow(
                    a=a, mu=mu, oracle=None, bound=bound, equal=None, note=note,
                ))
                continue
            assert oracle <= bound, (a, mu, N)
            note = ""
            if 2 * mu > 2 * a - 1:
                note = f"two-atom construction infeasible: mu > {F(2 * a - 1, 2)}"
            rows.append(TightnessRow(
                a=a, mu=mu, oracle=oracle, bound=bound, equal=oracle == bound, note=note,
            ))
        return rows

    def test_rows_match_the_hull_scan_cell_by_cell(self):
        rng = random.Random(20261022)
        seen = set()
        for a in range(1, 11):
            top = 2 * a - 1
            for N in (2 * a, 2 * a + 1, 50, 1000):
                mus = []
                for q in (1, 2, 3, 7):
                    # 2mu = k / q: at and below 0, around 2a - 1 and N, and a few between.
                    ks = {-q, 0, 1, q * top - 1, q * top, q * top + 1, q * N - 1, q * N, q * N + 1}
                    ks.update(rng.sample(range(1, q * N), min(4, q * N - 1)))
                    mus += [F(k, 2 * q) for k in sorted(ks)]
                rows = verify_tightness_theorem2([a], mus, N)
                assert rows == self.reference_rows(a, mus, N), (a, N)
                for mu in mus:
                    seen.add("at most 0" if mu <= 0 else "2a - 1" if 2 * mu == top else
                             "N" if 2 * mu == N else "just above N" if 0 < 2 * mu - N < 1 else "")
        assert seen >= {"at most 0", "2a - 1", "N", "just above N"}

    def test_one_certificate_check_per_feasible_cell(self, monkeypatch):
        calls = record_certificate_checks(monkeypatch)
        mus = [F(-1), F(0), F(1, 3), F(1, 2), F(5, 2), F(7), F(19, 2), F(10), F(21, 2), F(11)]
        rows = verify_tightness_theorem2(range(1, 6), mus, 20)
        feasible = sum(row.oracle is not None for row in rows)
        assert 0 < feasible < len(rows) == 50
        assert len(calls) == feasible

    @staticmethod
    def fake_core(monkeypatch, num, det):
        """Make the certified core return the optimum num / det for every cell."""

        def core(a, p, q, N):
            return num, det, 0, 3, 0, 0, 0  # verify reads only num and det

        monkeypatch.setattr(extremal, "_decreasing_cell", core)

    @pytest.mark.parametrize("num, det", [(1, 1), (1_000_001, 6_000_000)], ids=["far", "just"])
    def test_core_above_the_bound_raises(self, monkeypatch, num, det):
        self.fake_core(monkeypatch, num, det)
        with pytest.raises(SoundnessViolationError) as excinfo:
            verify_tightness_theorem2([2], [F(1, 2)], 10)
        want = f"oracle {F(num, det)} exceeds bound 1/6 at a=2, mu=1/2, N=10"
        assert str(excinfo.value) == want

    @pytest.mark.parametrize("num, det, equal", [(1, 6, True), (999_999, 6_000_000, False)])
    def test_core_at_or_below_the_bound_passes(self, monkeypatch, num, det, equal):
        self.fake_core(monkeypatch, num, det)
        [row] = verify_tightness_theorem2([2], [F(1, 2)], 10)
        assert (row.oracle, row.bound, row.equal) == (F(num, det), F(1, 6), equal)

    def test_csv_shape(self):
        rows = verify_tightness_theorem2([2], [F(1, 2)], 10)
        csv = tightness_rows_to_csv(rows)
        assert csv.splitlines()[0] == "a,mu,oracle,bound,equal"
        assert csv.splitlines()[1] == "2,1/2,1/6,1/6,true"


LONG = "<a number of more than 4300 digits>"


class TestMessagesPastTheDigitLimit:
    """An infeasible request names a value past the int<->str limit by its size.

    ``str`` of such a value raises ValueError, so each message would
    otherwise end in that error instead of InfeasibleError.
    """

    @pytest.mark.parametrize("call, args, message", [
        (extremal_markov_discrete, (2, "1e5000"),
         f"two-atom construction needs mu <= (2a-1)/2 = 3/2; got mu = {LONG}"),
        (lp_max_tail_decreasing, (1, "1e5000", 2),
         f"decreasing pmfs on {{0..2}} have mean in (0, 1]; got mu = {LONG}"),
        (lp_max_two_sided_unimodal, (1, "1e5000", 1, 1),
         f"no unimodal pmf on [{LONG}, {LONG}] has mean {LONG} and variance 1"),
        (lp_max_two_sided_unimodal, (1, 0, "1e5000", 1),
         f"no unimodal pmf on [-1, 1] has mean 0 and variance {LONG}"),
    ], ids=["discrete-mean", "decreasing-mean", "two-sided-mean", "two-sided-variance"])
    def test_infeasible(self, call, args, message):
        with pytest.raises(InfeasibleError) as excinfo:
            call(*args)
        assert str(excinfo.value) == message

    @pytest.mark.parametrize("call, args, message", [
        (extremal_markov_discrete, (2, 3),
         "two-atom construction needs mu <= (2a-1)/2 = 3/2; got mu = 3"),
        (lp_max_tail_decreasing, (1, F(-1, 2), 3),
         "decreasing pmfs on {0..3} have mean in (0, 3/2]; got mu = -1/2"),
        (lp_max_two_sided_unimodal, (1, F(1, 2), 100, 1),
         "no unimodal pmf on [0, 1] has mean 1/2 and variance 100"),
    ], ids=["discrete", "decreasing", "two-sided"])
    def test_short_values_written_exactly(self, call, args, message):
        with pytest.raises(InfeasibleError) as excinfo:
            call(*args)
        assert str(excinfo.value) == message


def _outcome(oracle, *args):
    try:
        return oracle(*args).max_tail
    except InfeasibleError:
        return "infeasible"


class TestReferenceCrossCheck:
    """The hull and simplex oracles agree exactly with brute-force enumeration."""

    def test_decreasing_matches_enumeration(self):
        start = time.perf_counter()
        rng = random.Random(20261017)
        cases = [
            (9, F(5), 40),  # Theorem 2 cell, two-atom optimum
            (3, F(20), 40),  # 2mu == N: single atom at the cap
            (2, F(3, 2), 12),  # 2mu == 2a - 1 is a hull vertex
            (4, F(7, 2), 8),  # 2mu == 2a - 1 with the smallest cap N == 2a
            (1, F(1, 2), 2),  # smallest cap
            (5, F(0), 20),  # infeasible: mean must be positive
            (5, F(21, 2), 20),  # infeasible: 2mu > N
        ]
        for _ in range(150):
            N = rng.randint(2, 40)
            a = rng.randint(1, N // 2)
            two_mu = F(rng.randint(1, 2 * N + 2), rng.choice([1, 1, 2, 3, 7]))
            cases.append((a, two_mu / 2, N))
        for a, mu, N in cases:
            got = _outcome(lp_max_tail_decreasing, a, mu, N)
            assert got == _outcome(reference_max_tail_decreasing, a, mu, N), (a, mu, N)
            if got != "infeasible":
                p = from_uniform_mixture(lp_max_tail_decreasing(a, mu, N).argmax)
                assert shape(p).is_decreasing and mean(p) == mu and tail(p, a) == got
        assert time.perf_counter() - start < 10.0

    def test_two_sided_matches_enumeration(self):
        start = time.perf_counter()
        rng = random.Random(20261018)
        cases = [
            (2, F(3), F(0), 4),  # var = 0: a point mass
            (1, F(1, 2), F(0), 4),  # var = 0 off the lattice: infeasible
            (3, F(0), F(4), 3),  # uniform on the whole window: var at its cap
            (3, F(0), F(401, 100), 3),  # just above that cap: infeasible
            (2, F(3), F(2), 2),  # window ends exactly at mu +- N, uniform on it
            (1, F(1, 3), F(2, 9), 1),  # window {0, 1}: mu 1/3 from its edge
            (1, F(5, 2), F(1, 4), 1),  # window {2, 3}, two equal atoms
            (2, F(0), F(1000), 3),  # variance far beyond the window
        ]
        for _ in range(40):
            radius = rng.randint(1, 6)
            a = rng.randint(1, 4)
            mu = F(rng.randint(-12, 12), rng.choice([1, 2, 3]))
            var = F(rng.randint(0, 4 * radius * radius), rng.choice([1, 2, 4, 12]))
            cases.append((a, mu, var, radius))
        feasible = 0
        for a, mu, var, radius in cases:
            got = _outcome(lp_max_two_sided_unimodal, a, mu, var, radius)
            assert got == _outcome(reference_max_two_sided_unimodal, a, mu, var, radius), (
                a, mu, var, radius,
            )
            if got != "infeasible":
                feasible += 1
                q = from_interval_mixture(lp_max_two_sided_unimodal(a, mu, var, radius).argmax)
                assert shape(q).is_unimodal and mean(q) == mu and variance(q) == var
                assert two_sided_tail(q, a) == got
        assert feasible >= len(cases) // 3
        assert time.perf_counter() - start < 10.0


def _result_and_work(oracle, *args):
    """((max_tail, argmax), enumerated), or (("infeasible", message), None)."""
    try:
        res = oracle(*args)
    except InfeasibleError as exc:
        return ("infeasible", str(exc)), None
    return (res.max_tail, res.argmax), res.enumerated


class TestOnePass:
    """Pruning common points changes the work done, never the result."""

    @staticmethod
    def cases():
        cases = [
            (2, F(3), F(0), 4),  # var = 0 at an integer mu: a point mass
            (1, F(-1, 2), F(0), 4),  # var = 0 off the lattice: infeasible
            (2, F(0), F(1000), 3),  # variance far beyond the window
            (3, F(-7, 3), F(64), 8),  # past any pmf on [-10, 5] with this mean: 506/9
            (1, F(-5, 2), F(1, 4), 1),  # window {-3, -2}, two equal atoms
            (4, F(-5, 3), F(5), 4),  # c = -5 and a higher c tie with different argmaxes
            # Only c = -2 is feasible; c = -1 and 0 are not pruned, so the
            # simplex proves them infeasible.
            (4, F(-2, 3), F(5, 4), 2),
        ]
        rng = random.Random(20261019)
        for radius in range(1, 9):
            for q in (1, 2, 3):
                for _ in range(4):
                    mu = F(rng.randint(-12, 12), q)
                    var = F(rng.randint(0, 2 * radius * radius), rng.choice([1, 2, 4, 12]))
                    cases.append((rng.randint(1, 4), mu, var, radius))
        return cases

    def test_matches_the_unpruned_reference(self, monkeypatch):
        calls = record_certificate_checks(monkeypatch)
        start = time.perf_counter()
        feasible = 0
        for a, mu, var, radius in self.cases():
            want, want_work = _result_and_work(simplex_max_two_sided_unimodal, a, mu, var, radius)
            calls.clear()
            got, work = _result_and_work(lp_max_two_sided_unimodal, a, mu, var, radius)
            assert got == want, (a, mu, var, radius)
            # Exactly one certificate check per common point of the window,
            # lowest first: the first interval of c's LP is [lo, c].
            lo, hi = math.ceil(mu - radius), math.floor(mu + radius)
            assert [labels[0][1] for *_, labels in calls] == list(range(lo, hi + 1))
            if work is not None:
                feasible += 1
                assert work <= want_work, (a, mu, var, radius)
        assert feasible >= 40
        assert time.perf_counter() - start < 20.0

    def test_fewer_pivots_on_the_theorem_3_probes(self):
        got = [lp_max_two_sided_unimodal(*config).enumerated for config in CRITERION_6_CONFIGS]
        want = [simplex_max_two_sided_unimodal(*config).enumerated
                for config in CRITERION_6_CONFIGS]
        assert all(g <= w for g, w in zip(got, want))
        assert sum(got) < sum(want)


def _point_lp(mu, var, lo, hi, c):
    """Common point c's columns, each summed point by point, its b and its labels."""
    m = (-1 if mu < 0 else 1) * mu.denominator
    s2 = var + mu * mu
    labels = [(l, r) for l in range(lo, c + 1) for r in range(c, hi + 1)]
    A = [tuple(sum(v) for v in zip(*((1, m * k, s2.denominator * k * k)
                                      for k in range(l, r + 1)))) for l, r in labels]
    return A, (1, int(m * mu), s2.numerator), labels


class TestPruning:
    """A common point with (mu - c)^2 + |mu - c| > 3 var is infeasible, by a closed-form vector."""

    def test_pruned_points_are_infeasible_on_small_windows(self, monkeypatch):
        calls = record_certificate_checks(monkeypatch)
        mus = sorted({F(j, q) for q in (2, 3) for j in range(-2 * q, 2 * q + 1)})
        variances = [F(0), F(1, 4), F(2, 3), F(1), F(2), F(7, 2), F(6), F(10)]
        pruned_points = kept_points = 0
        for radius in range(1, 6):
            for mu in mus:
                for var in variances:
                    calls.clear()
                    try:
                        lp_max_two_sided_unimodal(2, mu, var, radius)
                    except InfeasibleError:
                        pass
                    lo, hi = math.ceil(mu - radius), math.floor(mu + radius)
                    pruned = [c for c in range(lo, hi + 1)
                              if (mu - c) ** 2 + abs(mu - c) > 3 * var]
                    # The oracle hands the checker a Farkas vector at det 0
                    # exactly where the lemma prunes.
                    assert [labels[0][1] for _, _, _, _, det, _, labels in calls
                            if det == 0] == pruned, (mu, var, radius)
                    for c in pruned:
                        A, b, labels = _point_lp(mu, var, lo, hi, c)
                        obj = [0] * len(A)
                        solution, y, det, _ = _simplex(A, obj, b)
                        assert solution is None, (mu, var, radius, c)
                        _check_certificate(A, obj, b, y, det, None, labels)
                        y = tangent_farkas_vector(mu, var, c)
                        assert _check_certificate(A, obj, b, y, 0, None, labels) is None
                    pruned_points += len(pruned)
                    kept_points += hi - lo + 1 - len(pruned)
        assert min(pruned_points, kept_points) > 1000

    @pytest.mark.parametrize("delta", [1, 2, 3, 4])
    @pytest.mark.parametrize("side", [1, -1])
    def test_a_uniforms_end_point_is_kept(self, monkeypatch, delta, side):
        # The uniform on 2 delta + 1 points with c = -1 at one end has mean
        # mu = c +- delta and 3 var = delta^2 + delta = x^2 + |x|.  At that
        # equality the tangent vector's y.b is 0, so c is not pruned, and the
        # simplex finds it feasible.
        calls = record_certificate_checks(monkeypatch)
        c, mu = -1, F(-1 + side * delta)
        var = variance(uniform_pmf(min(c, c + 2 * side * delta), max(c, c + 2 * side * delta)))
        assert (mu - c) ** 2 + abs(mu - c) == 3 * var
        lp_max_two_sided_unimodal(1, mu, var, 2 * delta + 1)
        [solution] = [solution for *_, solution, labels in calls if labels[0][1] == c]
        assert solution is not None


class TestPivotRule:
    @pytest.mark.parametrize(
        "A, cost, artificial_cost, start, end",
        [
            # Phase 1 from the artificial basis: the column ties on all
            # three rows, and ~2, the lowest index, leaves.
            ([(1, 1, 1)], [0], -1, [~0, ~1, ~2], [~0, ~1, 0]),
            # Column 3 ties on rows 0 and 1; basis index 0 < 1 leaves.
            ([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0)], [0, 0, 0, 1], 0, [0, 1, 2],
             [3, 1, 2]),
        ],
        ids=["artificials", "columns"],
    )
    def test_ratio_test_tie_leaves_lowest_basis_index(self, A, cost, artificial_cost, start, end):
        # Bland's leaving rule; the optimum is the same either way, but the
        # pivot path, and so ``enumerated`` and sometimes the argmax, are not.
        basis = list(start)
        assert _run_phase(A, cost, artificial_cost, (1, 1, 1), basis)[3] == 1
        assert basis == end

    def test_pivot_cap_stops_a_cycling_rule(self, monkeypatch):
        # A pricing scan that always offers column 0 pivots it in and out
        # of its own row forever; the cap of C(1 + 3, 3) = 4 bases stops it.
        # The phase prices through the checker's scan but never checks.
        monkeypatch.setattr(extremal, "_first_failing", lambda *args: 0)
        with pytest.raises(SoundnessViolationError, match="more pivots than the 4 bases"):
            _run_phase([(1, 1, 1)], [0], -1, (1, 1, 1), [~0, ~1, ~2])

    # Beale's 1955 cycling example, rows 1 and 2 scaled by 4 and 2 and the
    # objective by 4 to make them integers: columns x1..x7, of which x1,
    # x2 and x3 are the slack basis.
    BEALE_A = [(4, 0, 0), (0, 2, 0), (0, 0, 1), (1, 1, 0), (-32, -24, 0), (-4, -1, 1),
               (36, 6, 0)]
    BEALE_OBJ = [0, 0, 0, 3, -80, 2, -24]
    BEALE_B = (0, 0, 1)

    def test_beale_example_ends_under_blands_rule(self):
        A, obj, b = self.BEALE_A, self.BEALE_OBJ, self.BEALE_B
        basis = [0, 1, 2]
        adj, det, y, pivots = _run_phase(A, obj, 0, b, basis)
        # Six pivots, the first four degenerate, to the basis {x1, x4, x6}
        # and the value 5: Beale's optimum -5/4 times -4.
        assert pivots == 6 and sorted(basis) == [0, 3, 5]
        solution = {j: sum(r * v for r, v in zip(row, b)) for j, row in zip(basis, adj)}
        labels = [f"x{j + 1}" for j in range(7)]
        assert F(_check_certificate(A, obj, b, y, det, solution, labels), det) == 5
        # From the artificial basis, through both phases.
        solution, y, det, pivots = _simplex(A, obj, b)
        assert pivots == 9
        assert F(_check_certificate(A, obj, b, y, det, solution, labels), det) == 5

    def test_beale_example_cycles_under_dantzigs_rule(self, monkeypatch):
        # Largest reduced cost first, with the same leaving rule: the slack
        # basis comes back after six degenerate pivots, and only the cap of
        # C(7 + 3, 3) = 120 bases ends the cycle.
        def dantzig(A, cost, y, scale):
            gains = [scale * cj - sum(u * v for u, v in zip(y, col)) for col, cj in zip(A, cost)]
            best = max(range(len(A)), key=gains.__getitem__)
            return best if gains[best] > 0 else None

        monkeypatch.setattr(extremal, "_first_failing", dantzig)
        with pytest.raises(SoundnessViolationError, match="more pivots than the 120 bases"):
            _run_phase(self.BEALE_A, self.BEALE_OBJ, 0, self.BEALE_B, [0, 1, 2])

    def test_unbounded_ray_refused(self):
        # Column 1 is column 0 negated: once column 0 holds the mass, column
        # 1 raises the objective without bound, since u0 - u1 = 1 lets both
        # grow together.  No ratio-test row limits it, so the phase refuses.
        with pytest.raises(SoundnessViolationError, match="unbounded ray"):
            _simplex([(1, 0, 0), (-1, 0, 0)], [0, 1], (1, 0, 0))

    def test_zero_artificial_leaves_on_a_negative_entry(self):
        # A phase-2 basis holding the artificial of row 0 at zero. Column 2
        # enters with entry -1 there: the plain ratio test would let row 1
        # leave and raise the artificial to 1, but it leaves itself, at
        # ratio 0, and the weights stay (0, 1, 1) on columns 2, 0 and 1.
        A = [(0, 1, 0), (0, 0, 1), (-1, 1, 0)]
        basis = [~0, 0, 1]
        adj, det, _, pivots = _run_phase(A, [0, 0, 1], 0, (0, 1, 1), basis)
        assert pivots == 1 and basis == [2, 0, 1]
        assert [F(sum(r * v for r, v in zip(row, (0, 1, 1))), det) for row in adj] == [0, 1, 1]


class TestCertificates:
    # Point masses at 0, 1 and 2 in (mass, mean, second moment) rows.
    A = [(1, 0, 0), (1, 1, 1), (1, 2, 4)]
    obj = [1, 0, 1]
    labels = [0, 1, 2]

    def test_simplex_certificate_accepted_and_tampering_rejected(self):
        b = (1, 1, 2)  # mean 1, second moment 2: only {0: 1/2, 2: 1/2}
        solution, y, det, _ = _simplex(self.A, self.obj, b)
        assert {j: F(x, det) for j, x in solution.items() if x} == {0: F(1, 2), 2: F(1, 2)}
        _check_certificate(self.A, self.obj, b, y, det, solution, self.labels)
        for bad_y in ((y[0] - 1, y[1], y[2]), (y[0], y[1] + 1, y[2]), (y[0], y[1], y[2] - 1)):
            with pytest.raises(SoundnessViolationError):
                _check_certificate(self.A, self.obj, b, bad_y, det, solution, self.labels)
        with pytest.raises(SoundnessViolationError):
            _check_certificate(self.A, self.obj, b, y, det, {0: det, 2: 0}, self.labels)

    def test_farkas_certificate_accepted_and_tampering_rejected(self):
        b = (1, 3, 9)  # mean 3 lies outside {0, 1, 2}
        solution, y, det, _ = _simplex(self.A, self.obj, b)
        assert solution is None
        _check_certificate(self.A, self.obj, b, y, det, None, self.labels)
        with pytest.raises(SoundnessViolationError):
            _check_certificate(self.A, self.obj, b, (-y[0], -y[1], -y[2]), det, None, self.labels)

    def test_farkas_vector_must_separate_b(self):
        # y = 0 passes every column's y.A_j >= 0, but y.b = 0 proves nothing.
        with pytest.raises(SoundnessViolationError, match="does not separate b"):
            _check_certificate(self.A, self.obj, (1, 1, 2), (0, 0, 0), 1, None, self.labels)

    # Each solution meets every row and the value check, so only the basis
    # check refuses it.  Unit columns and their sum (1, 1, 0), objective 0,
    # dual 0: with b = (0, 1, 0), u = {3: 1, 0: -1} meets the rows; with
    # b = (1, 1, 0), position -1 would read column 3 as Python indexes;
    # with det = 0 the empty solution meets 0 * b and the value 0 = y.b.
    @pytest.mark.parametrize("b, det, solution", [
        ((0, 1, 0), 1, {3: 1, 0: -1}),
        ((1, 1, 0), 1, {-1: 1}),
        ((1, 1, 0), 1, {4: 1}),
        ((1, 1, 0), 0, {}),
    ], ids=["negative-weight", "position-below-0", "position-past-the-end", "det-0"])
    def test_primal_must_be_a_nonnegative_basis(self, b, det, solution):
        A = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0)]
        with pytest.raises(SoundnessViolationError, match="not a nonnegative basis"):
            _check_certificate(A, [0] * 4, b, (0, 0, 0), det, solution, range(4))

    def test_line_certificate_accepted_and_tampering_rejected(self):
        # a = 1, N = 3, 2mu = p/q = 3/2: columns (i + 1, q i (i + 1), 0) over
        # u_i = d_i / (i + 1), objective (i - a + 1)^+, right-hand side (1, p, 0).
        A = [(i + 1, 2 * i * (i + 1), 0) for i in range(4)]
        us = [0, 1, 2, 3]
        b = (1, 3, 0)
        # The hull edge {1, 2}: d = {1: 1/2, 2: 1/2} scaled by det = 12, and
        # the line (2 + x) / 6 through (1, 1/2) and (2, 2/3) as y = (q * 2, 1, 0).
        edge, y = {1: 3, 2: 2}, (4, 1, 0)
        labels = range(4)
        assert F(_check_certificate(A, us, b, y, 12, edge, labels), 12) == F(7, 12)
        res = lp_max_tail_decreasing(1, F(3, 4), 3)
        assert res.max_tail == F(7, 12)
        assert dict(res.argmax.atoms) == {1: F(1, 2), 2: F(1, 2)}
        # The chord {0, 3}: d = {0: 1/2, 3: 1/2} scaled by det = 24.
        chord = {0: 12, 3: 3}
        with pytest.raises(SoundnessViolationError, match="differs"):
            _check_certificate(A, us, b, (8, 2, 0), 24, chord, labels)  # feasible, not tight
        with pytest.raises(SoundnessViolationError, match="column 1"):
            _check_certificate(A, us, b, (0, 3, 0), 24, chord, labels)  # y(1) = 1/4 < 1/2
