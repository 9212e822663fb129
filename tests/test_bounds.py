import json
import random
from fractions import Fraction as F

import pytest

from tailbounds import (
    Formula,
    TailMode,
    ValidationError,
    best_bound,
    chebyshev_classical,
    chebyshev_continuous_unimodal,
    chebyshev_unimodal,
    extremal_markov_continuous,
    extremal_markov_discrete,
    lp_max_two_sided_unimodal,
    make_pmf,
    markov_classical,
    markov_continuous_decreasing,
    markov_decreasing,
    point_pmf,
    tail,
    two_sided_tail,
    uniform_pmf,
    variance,
)

from tailbounds.bounds import _bounds_at, _pmf_terms

from genpmf import random_decreasing_pmf, random_unimodal_pmf
from reference_moments import reference_mean, reference_variance_about


class TestMarkovClassical:
    def test_uniform_example(self):
        assert markov_classical(5, 9).value == F(5, 9)

    def test_zero_mean(self):
        assert markov_classical(0, 3).value == 0

    def test_saturates_at_one(self):
        assert markov_classical(5, 5).value == 1

    def test_rejects_nonpositive_threshold(self):
        with pytest.raises(ValidationError):
            markov_classical(5, 0)


class TestChebyshevClassical:
    def test_uniform_example(self):
        assert chebyshev_classical(10, 4).value == F(10, 16) == F(5, 8)

    def test_zero_variance(self):
        assert chebyshev_classical(0, 2).value == 0

    def test_raw_value_may_exceed_one(self):
        assert chebyshev_classical(10, 2).value == F(10, 4)


class TestMarkovDecreasing:
    def test_uniform_example(self):
        assert markov_decreasing(5, 9).value == F(5, 17)

    def test_matches_classical_at_one(self):
        assert markov_decreasing(F(7, 3), 1).value == F(7, 3)

    def test_matched_by_extremal_distribution(self):
        assert markov_decreasing(F(17, 4), 9).value == F(1, 4)

    def test_rejects_non_integer_threshold(self):
        with pytest.raises(ValidationError):
            markov_decreasing(1, 0)


class TestChebyshevUnimodal:
    def test_uniform_example(self):
        r = chebyshev_unimodal(10, 4)
        assert r.value == F(121, 294)
        assert r.value >= two_sided_tail(uniform_pmf(0, 10), 4) == F(4, 11)

    def test_zero_variance_floor(self):
        assert chebyshev_unimodal(0, 1).value == F(1, 6)

    def test_asymptotically_half_classical(self):
        a = 1000
        sharp = chebyshev_unimodal(10, a).value
        half_classical = F(10, 2 * a * a)
        assert abs(sharp / half_classical - 1) < F(1, 50)


CONTINUOUS = [markov_continuous_decreasing, chebyshev_continuous_unimodal]


def float_case(rng):
    """(a, mu, epsilon) as floats with 0 < epsilon < a and epsilon/2 <= mu <= a."""
    a = rng.uniform(1e-3, 1e3)
    epsilon = rng.uniform(0, a)
    return a, rng.uniform(epsilon / 2, a), epsilon


def rational_case(rng):
    """(a, mu, epsilon) as Fractions of six-digit terms, scaled by 10**-20..10**20."""
    a = F(10) ** rng.randint(-20, 20) * F(rng.randint(1, 10**6), rng.randint(1, 10**6))
    epsilon = a * F(rng.randint(1, 999), 1000)
    return a, epsilon / 2 + (a - epsilon / 2) * F(rng.randint(0, 1000), 1000), epsilon


class TestContinuousFormulas:
    def test_exponential_example(self):
        r = markov_continuous_decreasing(0.5, 1.5)
        assert r.value == pytest.approx(1 / 6, abs=1e-15)
        assert r.asserted

    def test_zero_mean(self):
        assert markov_continuous_decreasing(0.0, 2.0).value == 0

    def test_half_of_classical_markov(self):
        for mu, a in [(0.5, 1.5), (3.0, 2.0), (7.25, 10.0)]:
            assert markov_continuous_decreasing(mu, a).value == pytest.approx(
                float(markov_classical(F(mu), F(a)).value) / 2, abs=1e-15
            )

    def test_uniform_interval_example(self):
        r = chebyshev_continuous_unimodal(6.75, 3.5)
        assert r.value == pytest.approx(6.75 / (2 * 3.5**2), abs=1e-15)
        assert r.value / 2 == pytest.approx(0.137755102040816, abs=1e-12)

    def test_nan_moments_rejected(self):
        with pytest.raises(ValidationError):
            markov_continuous_decreasing(float("nan"), 1.0)
        with pytest.raises(ValidationError):
            chebyshev_continuous_unimodal(float("nan"), 1.0)

    def test_half_of_classical_chebyshev(self):
        for var, a in [(6.75, 3.5), (1.0, 2.0), (11.5, 0.25)]:
            assert chebyshev_continuous_unimodal(var, a).value == pytest.approx(
                float(chebyshev_classical(F(var), F(a)).value) / 2, abs=1e-15
            )

    def test_large_inputs_keep_their_value(self):
        # 2a and a^2 would overflow to inf and read 0.0.
        assert markov_continuous_decreasing(1e308, 1e308).value == 0.5
        assert chebyshev_continuous_unimodal(1e308, 1e200).value == pytest.approx(
            5e-93, rel=1e-15
        )

    def test_tiny_threshold_gives_inf(self):
        # The true bound, 5e399, is past the float range, where the nearest
        # float is inf: the call refuses it rather than return inf.
        for var, a in [(1, 10**-200), (1.0, 1e-200)]:
            with pytest.raises(ValidationError, match="^a result is too large for a float$"):
                chebyshev_continuous_unimodal(var, a)

    @pytest.mark.parametrize("exact", [True, False])
    def test_infinite_value_refused_as_json(self, exact):
        # JSON has no infinity: a bound of 5e307 renders as a finite number,
        # and one of 5e309, which a float cannot hold, is refused at the call.
        a = F(1, 10**154)
        rendered = json.dumps(chebyshev_continuous_unimodal(1, a).to_dict(exact), allow_nan=False)
        assert json.loads(rendered)["value"] == 5e307
        with pytest.raises(ValidationError, match="^a result is too large for a float$"):
            chebyshev_continuous_unimodal(1, a / 10)

    def test_inputs_past_the_float_range_read_exactly(self):
        # Each input is past the float range or rounds to 0.0; the result is not.
        assert markov_continuous_decreasing(10**400, 10**400).value == 0.5
        assert markov_continuous_decreasing(F(1, 10**400), F(1, 10**400)).value == 0.5
        assert chebyshev_continuous_unimodal(10**800, 10**400).value == 0.5
        assert chebyshev_continuous_unimodal(F(1, 10**800), F(1, 10**400)).value == 0.5
        assert markov_continuous_decreasing(F(1, 10**400), 1).value == 0.0

    @pytest.mark.parametrize("draw", [float_case, rational_case], ids=["floats", "rationals"])
    def test_every_float_is_its_formula_rounded_once(self, draw):
        # The textbook forms in Fractions, then one float(): each result is correctly rounded.
        rng = random.Random(29)
        for _ in range(2000):
            a, mu, epsilon = draw(rng)
            fa, fmu, feps = F(a), F(mu), F(epsilon)
            assert markov_continuous_decreasing(mu, a).value == float(fmu / (2 * fa))
            assert chebyshev_continuous_unimodal(mu, a).value == float(fmu / (2 * fa**2))
            spec = extremal_markov_continuous(a, mu, epsilon)
            assert (spec.threshold, spec.epsilon) == (float(fa), float(feps))
            assert spec.mix_weight == float((fmu - feps / 2) / (fa - feps / 2))
            assert spec.achieved_tail == float((fmu - feps / 2) / (2 * fa - feps))
            assert spec.bound_value == float(fmu / (2 * fa))

    @pytest.mark.parametrize("formula", CONTINUOUS)
    def test_inputs_read_as_rationals(self, formula):
        assert formula("1/2", F(3, 2)).value == formula(0.5, 1.5).value

    @pytest.mark.parametrize("formula", CONTINUOUS)
    @pytest.mark.parametrize("args, message", [
        ((True, 2.0), "^not a rational number: True$"),
        ((object(), 2.0), "^not a rational number: <object"),
        ((1.0, F(1, 10**400)), "^a result is too large for a float$"),
    ], ids=["bool", "object", "overflow"])
    def test_inputs_refused(self, formula, args, message):
        with pytest.raises(ValidationError, match=message):
            formula(*args)


# Every sign-checked parameter: (call with the value in its place, message, strict).
SIGN_CHECKED = {
    "markov_classical-a": (lambda v: markov_classical(1, v), "threshold a must be positive", True),
    "markov_classical-mu": (lambda v: markov_classical(v, 1), "E|X| must be nonnegative", False),
    "chebyshev_classical-a": (
        lambda v: chebyshev_classical(1, v), "threshold a must be positive", True),
    "chebyshev_classical-var": (
        lambda v: chebyshev_classical(v, 1), "variance must be nonnegative", False),
    "markov_decreasing-mu": (lambda v: markov_decreasing(v, 1), "mean must be nonnegative", False),
    "chebyshev_unimodal-var": (
        lambda v: chebyshev_unimodal(v, 1), "variance must be nonnegative", False),
    "markov_continuous_decreasing-a": (
        lambda v: markov_continuous_decreasing(1.0, v), "threshold a must be positive", True),
    "markov_continuous_decreasing-mu": (
        lambda v: markov_continuous_decreasing(v, 1.0), "mean must be nonnegative", False),
    "chebyshev_continuous_unimodal-a": (
        lambda v: chebyshev_continuous_unimodal(1.0, v), "threshold a must be positive", True),
    "chebyshev_continuous_unimodal-var": (
        lambda v: chebyshev_continuous_unimodal(v, 1.0), "variance must be nonnegative", False),
    "make_pmf-weight": (lambda v: make_pmf(0, [1, v, 1]), "pmf weights must be nonnegative", False),
    "two_sided_tail-a": (
        lambda v: two_sided_tail(uniform_pmf(0, 3), v), "two-sided threshold must be positive",
        True),
    "extremal_markov_discrete-mu": (
        lambda v: extremal_markov_discrete(3, v), "mean must be positive", True),
    "extremal_markov_continuous-a": (
        lambda v: extremal_markov_continuous(v, 0.5, 0.1), "threshold a must be positive", True),
    "lp_max_two_sided_unimodal-var": (
        lambda v: lp_max_two_sided_unimodal(1, 0, v, 4), "variance must be nonnegative", False),
}


@pytest.mark.parametrize("call, value, message", [
    pytest.param(call, value, message, id=f"{name}-{label}")
    for name, (call, message, strict) in SIGN_CHECKED.items()
    for label, value in [("negative", -1), ("negative-tiny", F(-1, 10**30))]
    + [("zero", 0)] * strict
])
def test_sign_check_message(call, value, message):
    with pytest.raises(ValidationError) as excinfo:
        call(value)
    assert str(excinfo.value) == message


@pytest.mark.parametrize("call", [
    pytest.param(call, id=name)
    for name, (call, _, strict) in SIGN_CHECKED.items() if not strict
])
def test_nonnegative_parameter_takes_zero(call):
    call(0)


# The float layer's parameters: a positive value whose nearest float is 0.0
# is read exactly, so neither its sign check nor its size refuses it; the
# call fails only where its result has no float or epsilon leaves (0, a).
UNDERFLOW_OUTCOME = {
    "markov_continuous_decreasing-a": "a result is too large for a float",
    "markov_continuous_decreasing-mu": None,
    "chebyshev_continuous_unimodal-a": "a result is too large for a float",
    "chebyshev_continuous_unimodal-var": None,
    "extremal_markov_continuous-a": "epsilon must lie in (0, a)",
}


@pytest.mark.parametrize("name", UNDERFLOW_OUTCOME)
def test_float_parameter_underflow_message(name):
    call = SIGN_CHECKED[name][0]
    if UNDERFLOW_OUTCOME[name] is None:
        assert call(F(1, 10**400)).value == 0.0
    else:
        with pytest.raises(ValidationError) as excinfo:
            call(F(1, 10**400))
        assert str(excinfo.value) == UNDERFLOW_OUTCOME[name]


class TestBestBound:
    def test_uniform_one_sided(self):
        results = best_bound(uniform_pmf(0, 10), 9)
        assert [(r.formula, r.value) for r in results] == [
            (Formula.MARKOV_DECREASING_DISCRETE, F(5, 17)),
            (Formula.MARKOV_CLASSICAL, F(5, 9)),
        ]

    def test_point_mass_at_zero(self):
        results = best_bound(point_pmf(0), 3)
        assert all(r.value == 0 for r in results)

    def test_non_unimodal_gets_classical_only(self):
        p = make_pmf(0, [2, 1, 2, 1])
        results = best_bound(p, 2, TailMode.TWO_SIDED)
        assert [r.formula for r in results] == [Formula.CHEBYSHEV_CLASSICAL]

    def test_non_decreasing_gets_classical_only(self):
        results = best_bound(make_pmf(0, [1, 2, 1]), 2)
        assert [r.formula for r in results] == [Formula.MARKOV_CLASSICAL]

    def test_sorted_ascending(self):
        results = best_bound(uniform_pmf(0, 10), 4, TailMode.TWO_SIDED)
        assert results[0].value <= results[1].value


    def test_threshold_checked_before_mode(self):
        with pytest.raises(ValidationError, match="threshold a must be an integer >= 1"):
            best_bound(uniform_pmf(0, 3), 0, "sideways")

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValidationError, match="unknown tail mode"):
            best_bound(uniform_pmf(0, 3), 1, "sideways")

    def test_terms_hold_exact_moments(self):
        rng = random.Random(103)
        for _ in range(200):
            p = make_pmf(rng.randint(-5, 5), [rng.randint(0, 9) for _ in range(8)] + [1])
            terms = _pmf_terms(p)
            mu = reference_mean(p)
            assert terms.mean == mu
            assert terms.abs_mean == sum((w * abs(k) for k, w in p.items()), F(0))
            assert terms.variance == reference_variance_about(p, mu)
            for a in range(1, 6):
                for mode in TailMode:
                    assert _bounds_at(terms, a, mode) == best_bound(p, a, mode)


class TestSoundness:
    def test_sharpened_markov_on_random_decreasing_pmfs(self):
        rng = random.Random(101)
        for _ in range(500):
            p = random_decreasing_pmf(rng, max_support=25)
            mu = reference_mean(p)
            for a in range(1, p.support_max + 2):
                assert tail(p, a) * (2 * a - 1) <= mu

    def test_sharpened_chebyshev_on_random_unimodal_pmfs(self):
        rng = random.Random(102)
        for _ in range(500):
            p = random_unimodal_pmf(rng, max_span=20)
            var = variance(p)
            for a in range(1, p.support_max - p.support_min + 2):
                bound = chebyshev_unimodal(var, a).value
                assert two_sided_tail(p, a) <= bound


class TestDominance:
    def test_markov_sharpened_dominates_classical(self):
        for a in range(1, 30):
            sharp = markov_decreasing(F(7, 2), a).value
            classical = markov_classical(F(7, 2), a).value
            if a == 1:
                assert sharp == classical
            else:
                assert sharp < classical

    def test_chebyshev_crossover_matches_direct_comparison(self):
        # The sharpened two-sided bound does not dominate universally;
        # the winner must always agree with the direct rational
        # comparison of the two formulas.
        crossovers = []
        for var in [F(1, 100), F(1, 12), F(1), F(5, 2), F(10), F(100)]:
            for a in range(1, 20):
                sharp = chebyshev_unimodal(var, a).value
                classical = chebyshev_classical(var, a).value
                expected = (var + F(1, 12)) * a * a < var * 2 * (a - F(1, 2)) ** 2
                assert (sharp < classical) == expected
                if sharp >= classical:
                    crossovers.append((var, a))
        # The classical bound wins at a = 1 (for every variance) and
        # otherwise only at low variance.
        assert crossovers
        assert all(var <= F(2, 3) for var, a in crossovers if a >= 2)
