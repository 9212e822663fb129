import math
import random
import re
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from tailbounds import (
    IntervalMixture,
    Pmf,
    UniformMixture,
    ValidationError,
    as_rational,
    best_bound,
    chebyshev_unimodal,
    extremal_markov_discrete,
    flatten_head,
    lp_max_tail_decreasing,
    lp_max_two_sided_unimodal,
    make_pmf,
    markov_decreasing,
    mean,
    merge_tail_atoms,
    mixture_tail,
    point_pmf,
    reduce_three_atoms,
    shape,
    tail,
    two_sided_tail,
    uniform_pmf,
    variance,
    verify_tightness_theorem2,
)
import tailbounds.dist_core
from tailbounds.dist_core import (
    _common_denominator, _moments, _nearest_float, _threshold_tails, check_sign, read_int,
)

from reference_moments import reference_abs_mean, reference_mean, reference_variance_about
from reference_tails import reference_tail, reference_threshold_tails, reference_two_sided_tail


@st.composite
def pmfs(st_draw, max_size=12, offset_range=(-5, 5)):
    n = st_draw(st.integers(1, max_size))
    ws = st_draw(
        st.lists(st.integers(0, 9), min_size=n, max_size=n).filter(lambda w: any(w))
    )
    return make_pmf(st_draw(st.integers(*offset_range)), ws)


@st.composite
def moment_cases(st_draw):
    """A pmf at offset -20..20 whose support is one point, lies below 0,
    straddles 0 or lies anywhere; or one of 950-1050 points with weights
    up to 10**6.  Half of the supports below, across or anywhere come
    from the raw constructor, with weights of unrelated denominators."""
    where = st_draw(st.sampled_from(["point", "negative", "straddle", "anywhere", "long"]))
    if where == "long":
        rng = random.Random(st_draw(st.integers(0, 2**32)))
        weights = [rng.randint(0, 10**6) for _ in range(rng.randint(950, 1050))]
        return make_pmf(rng.randint(-20, 20), [1, *weights, 1])
    if where == "point":
        return point_pmf(st_draw(st.integers(-20, 20)))
    # Nonzero end weights, so the support is exactly offset..offset + n - 1.
    raw = st_draw(st.booleans())
    if raw:
        # The gaps between distinct cuts of [0, 1] with denominators up to
        # 12: positive weights summing to 1, with no one total behind them.
        cut = st.fractions(0, 1, max_denominator=12).filter(lambda f: 0 < f < 1)
        cuts = sorted(st_draw(st.lists(cut, min_size=2, max_size=10, unique=True)))
        ws = [hi - lo for lo, hi in zip([0, *cuts], [*cuts, 1])]
    else:
        ends = st.integers(1, 9)
        ws = [st_draw(ends), *st_draw(st.lists(st.integers(0, 9), min_size=1, max_size=10)),
              st_draw(ends)]
    n = len(ws)
    lo, hi = {"negative": (-20, -n), "straddle": (2 - n, -1), "anywhere": (-20, 20)}[where]
    offset = st_draw(st.integers(lo, hi))
    return Pmf(offset, ws) if raw else make_pmf(offset, ws)


@st.composite
def tail_table_cases(st_draw):
    """A pmf at offset -5..5, a third of them palindromes of odd length
    (integer mean) and a third of even length (half-integer mean), and a
    top threshold past both the support and the largest distance from
    the mean."""
    ws = st_draw(st.lists(st.integers(0, 9), min_size=1, max_size=10).filter(any))
    mirror = st_draw(st.sampled_from([None, "odd", "even"]))
    if mirror == "odd":
        ws = ws + ws[-2::-1]
    elif mirror == "even":
        ws = ws + ws[::-1]
    p = make_pmf(st_draw(st.integers(-5, 5)), ws)
    top = len(p.weights) + abs(p.offset) + st_draw(st.integers(0, 3))
    return p, top


class TestAsRational:
    @pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
    def test_non_finite_floats_rejected(self, value):
        with pytest.raises(ValidationError):
            as_rational(value)

    @pytest.mark.parametrize("text, value", [
        ("1e4", 10**4), ("1e5", 10**5), ("2.5E-5", F(1, 40000)), ("1e+0_5", 10**5),
    ])
    def test_exponent_up_to_the_cap_allowed(self, monkeypatch, text, value):
        monkeypatch.setattr(tailbounds.dist_core, "_MAX_EXPONENT", 5)
        assert as_rational(text) == value

    @pytest.mark.parametrize("text", ["1e6", "1E-6", "0.5e+6", "1e0_6"])
    def test_exponent_above_the_cap_rejected(self, monkeypatch, text):
        monkeypatch.setattr(tailbounds.dist_core, "_MAX_EXPONENT", 5)
        with pytest.raises(ValidationError, match="exponent must be at most 5 in size"):
            as_rational(text)

    # Fraction's grammar reads any Unicode digit and strips any Unicode space.
    @pytest.mark.parametrize("text", [
        "1e5_", "1e1__0", "1e_5", "1e", "1e+", "1e" + "0" * 4301 + "1", "7" * 4301,
        "\u0663", "1/\u0663", "1e\u0663", "\u20031",
    ], ids=["trailing-underscore", "double-underscore", "leading-underscore", "no-digits",
            "sign-only", "exponent-past-int-limit", "digits-past-int-limit",
            "arabic-indic-digit", "non-ascii-denominator", "non-ascii-exponent", "em-space"])
    def test_malformed_or_unreadable_numerals_rejected(self, text):
        with pytest.raises(ValidationError, match="not a rational number"):
            as_rational(text)

    def test_documented_cap(self):
        assert tailbounds.dist_core._MAX_EXPONENT == 10_000


class TestReadInt:
    @pytest.mark.parametrize("text, value", [("0", 0), ("01", 1), ("-3", -3), ("-0", 0)])
    def test_minus_and_ascii_digits_read(self, text, value):
        assert read_int(text) == value

    @pytest.mark.parametrize("text", [
        "+3", "1_0", " 7 ", "7\n", "\u0663", "", "-", "--1", "1.0", "0x1",
    ])
    def test_other_spellings_rejected(self, text):
        with pytest.raises(ValidationError, match=re.escape(f"not an integer: {text!r}")):
            read_int(text)

    def test_digit_limit_error_comes_through(self):
        with pytest.raises(ValueError, match="integer string conversion") as excinfo:
            read_int("7" * 4301)
        assert excinfo.type is ValueError


class TestCheckSign:
    @pytest.mark.parametrize("value", [F(1, 10**30), 1e-300, 1, float("inf")])
    def test_positive_returned(self, value):
        assert check_sign(value, "x") is value
        assert check_sign(value, "x", strict=True) is value

    @pytest.mark.parametrize("value", [F(0), 0.0, -0.0])
    def test_zero_is_nonnegative_but_not_positive(self, value):
        assert check_sign(value, "x") is value
        with pytest.raises(ValidationError, match="^x must be positive$"):
            check_sign(value, "x", strict=True)

    @pytest.mark.parametrize("value", [F(-1, 10**30), -1e-300, float("-inf"), float("nan")])
    def test_negative_and_nan_fail_both(self, value):
        with pytest.raises(ValidationError, match="^x must be nonnegative$"):
            check_sign(value, "x")
        with pytest.raises(ValidationError, match="^x must be positive$"):
            check_sign(value, "x", strict=True)


def as_float(value, name="x"):
    """An input as the epsilon-mixture's threshold and epsilon fields read it."""
    return _nearest_float(as_rational(value), name)


class TestAsFloat:
    @pytest.mark.parametrize("value, expected", [
        (F(1, 3), 1 / 3), ("1/4", 0.25), (10**308, 1e308), (-2.5, -2.5), (F(0), 0.0),
    ])
    def test_nearest_float(self, value, expected):
        assert as_float(value) == expected

    @pytest.mark.parametrize("value", [F(1, 10**400), F(-1, 10**400), "1e-400", F(1, 2**1075)])
    def test_nonzero_value_that_rounds_to_zero(self, value):
        # Correctly rounded, so it reads 0.0 with its sign; it is not refused.
        assert as_float(value) == 0.0
        assert math.copysign(1, as_float(value)) == (1 if as_rational(value) > 0 else -1)

    def test_smallest_subnormal_is_kept(self):
        assert as_float(F(1, 2**1074)) == 5e-324

    @pytest.mark.parametrize("value", [10**309, -(10**309), F(10**400, 3), "1e309"])
    def test_past_the_float_range(self, value):
        with pytest.raises(ValidationError, match="^x is too large for a float$"):
            as_float(value)
        with pytest.raises(ValidationError, match="^a result is too large for a float$"):
            _nearest_float(as_rational(value))

    @pytest.mark.parametrize("value", [True, float("nan"), float("inf"), "x", None])
    def test_not_a_rational(self, value):
        with pytest.raises(ValidationError, match=re.escape(f"not a rational number: {value!r}")):
            as_float(value)


# Every public entry point that takes an integer, called with True where
# the integer goes and otherwise valid arguments; True is not the integer 1.
BOOL_AS_INTEGER = {
    "tail": lambda: tail(uniform_pmf(0, 3), True),
    "best_bound": lambda: best_bound(uniform_pmf(0, 3), True),
    "markov_decreasing": lambda: markov_decreasing(1, True),
    "chebyshev_unimodal": lambda: chebyshev_unimodal(1, True),
    "flatten_head": lambda: flatten_head(uniform_pmf(0, 3), True),
    "merge_tail_atoms": lambda: merge_tail_atoms(UniformMixture({1: F(1)}), True),
    "mixture_tail": lambda: mixture_tail(UniformMixture({1: F(1)}), True),
    "reduce_three_atoms": lambda: reduce_three_atoms(UniformMixture({1: F(1)}), True),
    "make_pmf-offset": lambda: make_pmf(True, [1]),
    "Pmf-offset": lambda: Pmf(True, (F(1),)),
    "Pmf.probability": lambda: uniform_pmf(0, 3).probability(True),
    "uniform_pmf-hi": lambda: uniform_pmf(0, True),
    "from_dict-offset": lambda: Pmf.from_dict({"offset": True, "weights": ["1"]}),
    "as_rational": lambda: as_rational(True),
    "UniformMixture-index": lambda: UniformMixture({True: F(1)}),
    "IntervalMixture-left": lambda: IntervalMixture({(True, 1): F(1)}),
    "IntervalMixture-right": lambda: IntervalMixture({(0, True): F(1)}),
    "extremal_markov_discrete": lambda: extremal_markov_discrete(True, F(1, 2)),
    "lp_max_tail_decreasing-a": lambda: lp_max_tail_decreasing(True, F(1, 2), 10),
    "lp_max_tail_decreasing-N": lambda: lp_max_tail_decreasing(1, F(1, 2), True),
    "lp_max_two_sided_unimodal-a": lambda: lp_max_two_sided_unimodal(True, 0, 1, 4),
    "lp_max_two_sided_unimodal-N": lambda: lp_max_two_sided_unimodal(1, 0, 0, True),
    "verify_tightness_theorem2": lambda: verify_tightness_theorem2([True], [F(1, 2)], 10),
}


@pytest.mark.parametrize("call", BOOL_AS_INTEGER.values(), ids=BOOL_AS_INTEGER.keys())
def test_bool_rejected_as_integer(call):
    with pytest.raises(ValidationError):
        call()


@pytest.mark.parametrize("k", [0.5, "a", None, F(1)], ids=["float", "str", "None", "Fraction"])
def test_probability_point_must_be_an_integer(k):
    with pytest.raises(ValidationError, match="probability point must be an integer"):
        make_pmf(0, [1, 1]).probability(k)


@pytest.mark.parametrize("lo, hi", [(0.5, 3), (0, 2.5), ("a", 3), (0, None), (F(1), 3)],
                         ids=["float-lo", "float-hi", "str-lo", "None-hi", "Fraction-lo"])
def test_uniform_ends_must_be_integers(lo, hi):
    with pytest.raises(ValidationError, match="uniform (lower|upper) end must be an integer"):
        uniform_pmf(lo, hi)


@pytest.mark.parametrize("lo, hi, shown", [
    (3, 0, "{3..0}"),
    (10**5000, 0, "{<a number of more than 4300 digits>..0}"),
], ids=["short", "past-the-digit-limit"])
def test_empty_uniform_support_named(lo, hi, shown):
    with pytest.raises(ValidationError) as excinfo:
        uniform_pmf(lo, hi)
    assert str(excinfo.value) == f"empty support {shown}"


class TestMakePmf:
    def test_point_mass(self):
        p = make_pmf(0, [1])
        assert p.offset == 0 and p.weights == (F(1),)

    def test_uniform_rescaled(self):
        p = make_pmf(0, [1] * 11)
        assert p.weights == tuple([F(1, 11)] * 11)

    def test_negative_offset_rescaled(self):
        p = make_pmf(-2, [1, 2, 1])
        assert p.offset == -2
        assert p.weights == (F(1, 4), F(1, 2), F(1, 4))

    def test_trims_zero_endpoints(self):
        p = make_pmf(3, [0, 0, 2, 1, 0])
        assert p.offset == 5
        assert p.weights == (F(2, 3), F(1, 3))

    def test_all_zero_rejected(self):
        with pytest.raises(ValidationError):
            make_pmf(0, [0, 0])

    def test_negative_weight_rejected(self):
        with pytest.raises(ValidationError):
            make_pmf(0, [1, -1])

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            make_pmf(0, [])

    def test_raw_constructor_rejects_unnormalized(self):
        with pytest.raises(ValidationError):
            Pmf(0, (F(1, 2), F(1, 4)))

    @pytest.mark.parametrize("weights", [(F(0), F(1)), (F(1), F(0))], ids=["first", "last"])
    def test_raw_constructor_rejects_a_zero_endpoint(self, weights):
        with pytest.raises(ValidationError, match="nonzero endpoints"):
            Pmf(0, weights)

    def test_raw_constructor_makes_float_weights_exact(self):
        p = Pmf(0, (0.5, 0.5))
        assert p == make_pmf(0, [1, 1])
        results = [mean(p), variance(p), tail(p, 1), two_sided_tail(p, F(1, 2))]
        assert results == [F(1, 2), F(1, 4), F(1, 2), 1]
        assert all(type(x) is F for x in [*p.weights, *results])

    def test_raw_constructor_rejects_fractional_offset(self):
        with pytest.raises(ValidationError, match="pmf offset must be an integer"):
            Pmf(0.5, (F(1),))

    def test_raw_constructor_stores_a_tuple(self):
        p = Pmf(0, [F(1)])
        assert p.weights == (F(1),) and hash(p) == hash(point_pmf(0))

    @pytest.mark.parametrize(
        "build",
        [
            lambda: make_pmf(0, "12"),
            lambda: make_pmf(0, 5),
            lambda: Pmf(0, "1"),
            lambda: Pmf(0, 5),
        ],
        ids=["make_pmf-string", "make_pmf-int", "Pmf-string", "Pmf-int"],
    )
    def test_weights_must_be_a_list_or_tuple(self, build):
        with pytest.raises(ValidationError, match="pmf weights must be a list or tuple"):
            build()

    def test_raw_constructor_coerces_rational_strings(self):
        assert Pmf(0, ["1/4", "3/4"]) == make_pmf(0, [1, 3])
        with pytest.raises(ValidationError, match="not a rational number"):
            Pmf(0, ["x"])


class TestMoments:
    def test_uniform_mean(self):
        assert mean(uniform_pmf(0, 10)) == 5

    def test_point_mean(self):
        assert mean(point_pmf(0)) == 0

    def test_extremal_mixture_mean_matches_direct_sum(self):
        # Two-atom extremal shape for a=9, mu=17/4: point mass at 0 mixed
        # with uniform {0..17}; oracle is the direct weighted sum.
        weights = [F(1, 2) + F(1, 2) * F(1, 18)] + [F(1, 2) * F(1, 18)] * 17
        p = make_pmf(0, weights)
        direct = sum(F(k) * w for k, w in p.items())
        assert mean(p) == direct == F(17, 4)

    def test_uniform_variance(self):
        assert variance(uniform_pmf(0, 10)) == 10

    def test_point_variance(self):
        assert variance(point_pmf(7)) == 0

    def test_moments_over_unrelated_denominators(self):
        p = Pmf(-1, [F(1, 2), F(1, 3), F(1, 6)])
        assert _common_denominator(p) == (6, [3, 2, 1])
        assert _moments(p) == (F(-1, 3), F(2, 3), F(5, 9))

    @pytest.mark.parametrize("n", range(0, 51))
    def test_uniform_variance_closed_form(self, n):
        p = uniform_pmf(0, n)
        mu = sum(F(k) for k in range(n + 1)) / (n + 1)
        brute = sum((F(k) - mu) ** 2 for k in range(n + 1)) / (n + 1)
        assert variance(p) == brute == F(n * (n + 2), 12)

    @settings(deadline=None)
    @given(moment_cases())
    @example(Pmf(-5, [F(1, 3), F(1, 4), 0, F(1, 5), F(13, 60)]))
    def test_one_pass_matches_the_reference_moments(self, p):
        mu = reference_mean(p)
        abs_mean = sum((w * abs(k) for k, w in p.items()), F(0))
        assert reference_abs_mean(p, mu) == abs_mean
        assert _moments(p) == (mu, abs_mean, reference_variance_about(p, mu))


class TestTails:
    def test_uniform_tail(self):
        assert tail(uniform_pmf(0, 10), 9) == F(2, 11)

    def test_tail_at_support_min_is_one(self):
        assert tail(make_pmf(-2, [1, 2, 1]), -2) == 1

    def test_tail_counts_atoms(self):
        assert tail(uniform_pmf(0, 17), 9) == F(9, 18) == F(1, 2)

    def test_tail_beyond_support_is_zero(self):
        assert tail(uniform_pmf(0, 10), 11) == 0

    def test_two_sided_uniform(self):
        assert two_sided_tail(uniform_pmf(0, 10), 4) == F(4, 11)

    def test_two_sided_point_mass(self):
        assert two_sided_tail(point_pmf(3), F(1, 2)) == 0

    def test_two_sided_symmetric_pair(self):
        p = make_pmf(-1, [1, 0, 1])
        assert two_sided_tail(p, 1) == 1

    @given(tail_table_cases())
    def test_threshold_table_matches_each_tail(self, case):
        # Integer thresholds from below the support to past it, and
        # rational two-sided ones at, just off and between every exact
        # distance |k - mu|, compared with the slice sum, the per-point
        # filter and the distance buckets of tests/reference_tails.py.
        p, top = case
        mu = reference_mean(p)
        integers = [*range(min(p.offset, 0) - 3, top + 1), 10**6]
        one_sided = _threshold_tails(p, integers)
        assert one_sided == reference_threshold_tails(p, integers)
        assert one_sided == [tail(p, a) for a in integers]
        assert one_sided == [reference_tail(p, a) for a in integers]
        two_sided = _threshold_tails(p, integers, mu)
        assert two_sided == reference_threshold_tails(p, integers, mu)
        assert all(t == 1 for a, t in zip(integers, two_sided) if a <= 0)
        distances = sorted({abs(k - mu) for k, _ in p.items()})
        rationals = sorted(
            {d + e for d in distances for e in (0, F(-1, 7), F(1, 3))}
            | {(d + e) / 2 for d, e in zip(distances, distances[1:])}
            | {F(-1, 2), F(0), F(1, 2), F(10**6, 3)}
        )
        two_sided = _threshold_tails(p, rationals, mu)
        assert len(two_sided) == len(rationals)
        for a, t in zip(rationals, two_sided):
            if a > 0:
                assert t == two_sided_tail(p, a) == reference_two_sided_tail(p, a)
            else:
                assert t == 1

    @pytest.mark.parametrize("mu", [None, F(1, 2)])
    def test_threshold_table_below_one_is_whole_or_empty(self, mu):
        p = make_pmf(0, [1, 1])
        assert _threshold_tails(p, [0, -3], mu) == [1, 1]
        assert _threshold_tails(p, [], mu) == []

    def test_two_sided_table_at_zero_with_mass_at_the_mean(self):
        # Both cuts of a = 0 meet at the mean, where this pmf has mass.
        assert _threshold_tails(uniform_pmf(0, 2), [0], F(1)) == [1]

    def test_threshold_table_far_past_support(self):
        # One entry per threshold asked for, however large the threshold.
        p = make_pmf(-3, [1, 2, 3, 2, 1])
        far = [10**6, 10**6 + 1]
        assert _threshold_tails(p, far) == [tail(p, a) for a in far] == [0, 0]
        assert _threshold_tails(p, far, reference_mean(p)) == [0, 0]
        assert _threshold_tails(p, [2, 10**6, 1], reference_mean(p)) == [
            two_sided_tail(p, 2), 0, two_sided_tail(p, 1),
        ]

    def test_two_sided_requires_positive_threshold(self):
        with pytest.raises(ValidationError):
            two_sided_tail(uniform_pmf(0, 10), 0)


class TestShape:
    def test_uniform_is_decreasing(self):
        rep = shape(uniform_pmf(0, 10))
        assert rep.is_decreasing and rep.is_unimodal and rep.mode == 0

    def test_peaked_not_decreasing(self):
        rep = shape(make_pmf(0, [1, 2, 1]))
        assert not rep.is_decreasing and rep.is_unimodal and rep.mode == 1

    def test_two_peaks_not_unimodal(self):
        rep = shape(make_pmf(0, [2, 1, 2, 1]))
        assert not rep.is_unimodal and rep.mode is None

    def test_decreasing_needs_offset_zero(self):
        rep = shape(uniform_pmf(1, 5))
        assert not rep.is_decreasing and rep.is_unimodal

    def test_mode_is_smallest_witness(self):
        assert shape(make_pmf(0, [1, 2, 2, 1])).mode == 1


class TestSerialization:
    def test_roundtrip(self):
        p = make_pmf(-2, [1, 2, 1])
        assert Pmf.from_dict(p.to_dict()) == p

    def test_dict_shape(self):
        assert uniform_pmf(0, 1).to_dict() == {"offset": 0, "weights": ["1/2", "1/2"]}

    def test_bad_json_rejected(self):
        with pytest.raises(ValidationError):
            Pmf.from_dict({"offset": "x", "weights": ["1"]})

    @pytest.mark.parametrize("weights", [5, None, "12", {"0": "1"}])
    def test_weights_must_be_an_array(self, weights):
        with pytest.raises(ValidationError, match="array"):
            Pmf.from_dict({"offset": 0, "weights": weights})


class TestInvariants:
    @given(pmfs())
    def test_weights_sum_to_one(self, p):
        assert sum(p.weights) == 1

    @given(pmfs())
    def test_tail_at_offset_is_one_and_nonincreasing(self, p):
        assert tail(p, p.offset) == 1
        values = [tail(p, a) for a in range(p.offset, p.support_max + 2)]
        assert all(x >= y for x, y in zip(values, values[1:]))

    @given(pmfs(), st.fractions(min_value="1/100", max_value=30))
    def test_two_sided_decomposes_into_one_sided_sums(self, p, a):
        mu = reference_mean(p)
        left = sum((w for k, w in p.items() if F(k) <= mu - a), F(0))
        right = sum((w for k, w in p.items() if F(k) >= mu + a), F(0))
        assert two_sided_tail(p, a) == left + right

    @given(pmfs())
    def test_variance_nonnegative_zero_iff_point(self, p):
        v = variance(p)
        assert v >= 0
        assert (v == 0) == (len(p.weights) == 1)

    def test_decreasing_implies_unimodal_on_random_monotone_pmfs(self):
        rng = random.Random(4)
        for _ in range(200):
            n = rng.randint(1, 30)
            ws = sorted((rng.randint(0, 9) for _ in range(n)), reverse=True)
            if ws[0] == 0:
                ws[0] = 1
            rep = shape(make_pmf(0, ws))
            assert rep.is_decreasing
            assert rep.is_unimodal and rep.mode == 0
