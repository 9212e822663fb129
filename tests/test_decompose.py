import random
import re
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from tailbounds import (
    IntervalMixture,
    Pmf,
    ShapeReport,
    ShapeViolationError,
    SoundnessViolationError,
    UniformMixture,
    ValidationError,
    flatten_head,
    from_interval_mixture,
    from_uniform_mixture,
    make_pmf,
    mean,
    merge_tail_atoms,
    mixture_mean,
    mixture_tail,
    point_pmf,
    reduce_three_atoms,
    shape,
    tail,
    to_uniform_mixture,
    unimodal_to_interval_mixture,
    uniform_pmf,
)

from genpmf import coprime_weights, random_three_atom_mixture, random_uniform_mixture
from reference_decompose import (
    reference_to_uniform_mixture,
    reference_unimodal_to_interval_mixture,
)
from reference_transforms import _merge_step, reference_flatten_head, reference_merge_tail_atoms


@st.composite
def decreasing_pmfs(st_draw, max_size=15):
    n = st_draw(st.integers(1, max_size))
    ws = st_draw(
        st.lists(st.integers(0, 9), min_size=n, max_size=n).filter(lambda w: any(w))
    )
    return make_pmf(0, sorted(ws, reverse=True))


@st.composite
def unimodal_pmfs(st_draw, max_size=12):
    n = st_draw(st.integers(1, max_size))
    peak = st_draw(st.integers(1, 9))
    mode = st_draw(st.integers(0, n - 1))
    left = sorted(st_draw(st.lists(st.integers(0, peak), min_size=mode, max_size=mode)))
    m = n - 1 - mode
    right = sorted(
        st_draw(st.lists(st.integers(0, peak), min_size=m, max_size=m)), reverse=True
    )
    offset = st_draw(st.integers(-6, 6))
    return make_pmf(offset, left + [peak] + right)


@st.composite
def uniform_mixtures(st_draw, max_index=79):
    raw = st_draw(
        st.dictionaries(st.integers(0, max_index), st.integers(1, 9), min_size=1, max_size=8)
    )
    total = sum(raw.values())
    return UniformMixture({i: F(w, total) for i, w in raw.items()})


@pytest.mark.parametrize(
    "build",
    [
        lambda: UniformMixture({"a": F(1), 0: F(0)}),
        lambda: UniformMixture({-1: F(0), 0: F(1)}),
        lambda: IntervalMixture.from_dict(
            {"atoms": [{"l": 0, "r": 1, "w": "1"}, {"l": "0", "r": 2, "w": "0"}]}
        ),
        lambda: IntervalMixture({(0, 1): F(1), 1: F(0)}),
        lambda: IntervalMixture({(0, 1): F(1), (0, 1, 2): F(0)}),
    ],
    ids=[
        "str-index-beside-int", "negative-index-zero-weight", "str-left-end-beside-int",
        "int-interval-key", "triple-interval-key",
    ],
)
def test_atoms_validated_before_sorting_and_dropping_zeros(build):
    with pytest.raises(ValidationError):
        build()


@pytest.mark.parametrize(
    "build, repeated",
    [
        (lambda: UniformMixture.from_dict({"atoms": {"1": "1", "01": "1"}}), "mixture atom 1"),
        (lambda: IntervalMixture.from_dict(
            {"atoms": [{"l": 0, "r": 1, "w": "1"}, {"l": 0, "r": 1, "w": "1"}]}
        ), "interval atom (0, 1)"),
    ],
    ids=["uniform-index-spelled-twice", "interval-listed-twice"],
)
def test_from_dict_rejects_a_repeated_atom(build, repeated):
    # The later entry would overwrite the earlier one, so weights that
    # total 2 in the JSON would pass as a mixture of total 1.
    with pytest.raises(ValidationError, match=re.escape(f"{repeated} is given twice")):
        build()


@pytest.mark.parametrize("obj", [
    {"atoms": [{"l": 0, "r": 1}]},
    {"atoms": 5},
    {"atoms": {"l": 0, "r": 1, "w": "1"}},
    {"atoms": ["[0, 1]"]},
    {},
], ids=["missing-w", "atoms-an-int", "atoms-an-object", "entry-a-string", "no-atoms"])
def test_interval_from_dict_rejects_a_malformed_structure(obj):
    with pytest.raises(ValidationError, match="interval mixture JSON must be"):
        IntervalMixture.from_dict(obj)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: UniformMixture({0: "-1e5000", 1: 1}),
         "mixture weight for atom 0 is negative: <a number of more than 4300 digits>"),
        (lambda: IntervalMixture({(0, 10**5000): -1}),
         "interval weight for atom <a number of more than 4300 digits> is negative: -1"),
    ],
    ids=["long-weight", "long-key"],
)
def test_negative_weight_past_the_digit_limit_named_by_its_size(build, message):
    with pytest.raises(ValidationError) as excinfo:
        build()
    assert str(excinfo.value) == message


@pytest.mark.parametrize(
    "build, kind",
    [
        (lambda: UniformMixture(5), "mixture"),
        (lambda: UniformMixture([1]), "mixture"),
        (lambda: IntervalMixture(5), "interval"),
    ],
    ids=["uniform-int", "uniform-list", "interval-int"],
)
def test_atoms_must_be_a_mapping(build, kind):
    with pytest.raises(ValidationError, match=f"{kind} atoms must be a mapping"):
        build()


@pytest.mark.parametrize("weight", ["1", 1.0])
def test_mixture_weights_stored_as_fractions(weight):
    for m in (UniformMixture({0: weight}), IntervalMixture({(0, 1): weight})):
        assert [(type(w), w) for w in m.atoms.values()] == [(F, 1)]


class TestUniformMixture:
    def test_uniform_is_single_atom(self):
        m = to_uniform_mixture(uniform_pmf(0, 7))
        assert dict(m.atoms) == {7: F(1)}

    def test_point_mass_at_zero(self):
        assert dict(to_uniform_mixture(point_pmf(0)).atoms) == {0: F(1)}

    def test_from_dict_index_may_have_leading_zeros(self):
        assert UniformMixture.from_dict({"atoms": {"01": "1"}}) == UniformMixture({1: F(1)})

    @pytest.mark.parametrize("index", ["1_0", " 7 ", "+3", "\u0663"])
    def test_from_dict_index_is_minus_and_ascii_digits(self, index):
        # int() reads these as 10, 7, 3 and 3; to_dict writes none of them.
        with pytest.raises(ValidationError, match="uniform mixture JSON must be"):
            UniformMixture.from_dict({"atoms": {index: "1"}})

    @pytest.mark.parametrize("atoms", [[1], "0"], ids=["array", "string"])
    def test_from_dict_atoms_must_be_an_object(self, atoms):
        with pytest.raises(ValidationError, match="uniform mixture JSON must be"):
            UniformMixture.from_dict({"atoms": atoms})

    def test_staircase_example(self):
        m = to_uniform_mixture(make_pmf(0, [F(1, 2), F(1, 4), F(1, 4)]))
        assert dict(m.atoms) == {0: F(1, 4), 2: F(3, 4)}

    def test_inverse_of_staircase(self):
        p = from_uniform_mixture(UniformMixture({0: F(1, 4), 2: F(3, 4)}))
        assert p == make_pmf(0, [F(1, 2), F(1, 4), F(1, 4)])

    def test_single_atom_reconstructs_uniform(self):
        assert from_uniform_mixture(UniformMixture({10: F(1)})) == uniform_pmf(0, 10)

    def test_two_atom_extremal_shape(self):
        p = from_uniform_mixture(UniformMixture({0: F(1, 2), 17: F(1, 2)}))
        assert mean(p) == F(17, 4)
        assert tail(p, 9) == F(1, 4)
        assert shape(p).is_decreasing

    def test_rejects_non_decreasing(self):
        with pytest.raises(ShapeViolationError):
            to_uniform_mixture(make_pmf(0, [1, 2, 1]))

    def test_negative_atom_formula_on_non_decreasing_input(self):
        # Applying the atom formula directly to a non-decreasing sequence
        # must produce a negative atom somewhere: that is the certificate
        # the shape gate relies on.
        w = [F(1, 4), F(1, 2), F(1, 4)]
        atoms = [
            (i + 1) * (w[i] - (w[i + 1] if i + 1 < len(w) else F(0)))
            for i in range(len(w))
        ]
        assert any(d < 0 for d in atoms)

    def test_validates_weight_sum(self):
        with pytest.raises(ValidationError):
            UniformMixture({0: F(1, 2)})

    def test_json_roundtrip(self):
        m = UniformMixture({0: F(1, 4), 2: F(3, 4)})
        assert UniformMixture.from_dict(m.to_dict()) == m

    @given(decreasing_pmfs())
    def test_roundtrip_identity(self, p):
        assert from_uniform_mixture(to_uniform_mixture(p)) == p

    @given(st.integers(0, 2**32), st.integers(1, 5))
    def test_roundtrip_identity_over_coprime_denominators(self, seed, scale):
        # Shares d_i/(i+1) of unlike denominators, summed as integers over
        # their lcm; from the raw constructor and from make_pmf alike.
        ws = coprime_weights(random.Random(seed), decreasing=True)
        p = Pmf(0, ws)
        assert make_pmf(0, [*(w * scale for w in ws), 0]) == p
        assert from_uniform_mixture(to_uniform_mixture(p)) == p

    @given(decreasing_pmfs())
    def test_mean_identity(self, p):
        m = to_uniform_mixture(p)
        assert mean(p) == mixture_mean(m) / 2

    @given(decreasing_pmfs(), st.integers(-5, 20))
    def test_mixture_tail_matches_pmf_tail(self, p, a):
        assert mixture_tail(to_uniform_mixture(p), a) == tail(p, a)


class TestIntervalMixture:
    def test_peaked_example(self):
        m = unimodal_to_interval_mixture(make_pmf(-1, [1, 2, 1]))
        assert dict(m.atoms) == {(-1, 1): F(3, 4), (0, 0): F(1, 4)}
        assert from_interval_mixture(m) == make_pmf(-1, [1, 2, 1])

    def test_uniform_single_layer(self):
        m = unimodal_to_interval_mixture(uniform_pmf(0, 9))
        assert dict(m.atoms) == {(0, 9): F(1)}

    def test_point_mass(self):
        m = unimodal_to_interval_mixture(point_pmf(4))
        assert dict(m.atoms) == {(4, 4): F(1)}

    def test_rejects_non_unimodal(self):
        with pytest.raises(ShapeViolationError):
            unimodal_to_interval_mixture(make_pmf(0, [2, 1, 2]))

    def test_rejects_disjoint_intervals(self):
        with pytest.raises(ValidationError):
            IntervalMixture({(0, 1): F(1, 2), (3, 4): F(1, 2)})

    def test_json_roundtrip(self):
        m = unimodal_to_interval_mixture(make_pmf(-1, [1, 2, 1]))
        assert IntervalMixture.from_dict(m.to_dict()) == m

    def test_non_contiguous_level_set_is_soundness_violation(self, monkeypatch):
        # A shape check that wrongly passes [2, 1, 2] leaves the level set
        # {0, 2}; the decomposition must refuse it under python -O too.  In
        # [3, 1, 2, 1, 3] the walk skips the interior levels, whose layers
        # all share the window {0..4}, so they telescope into one.
        import tailbounds.decompose

        monkeypatch.setattr(
            tailbounds.decompose, "shape",
            lambda p: ShapeReport(is_decreasing=False, is_unimodal=True, mode=0),
        )
        for weights, held in [([2, 1, 2], "6/5"), ([3, 1, 2, 1, 3], "3/2")]:
            with pytest.raises(SoundnessViolationError, match=f"not contiguous: layers hold {held}$"):
                unimodal_to_interval_mixture(make_pmf(0, weights))

    @given(unimodal_pmfs())
    def test_roundtrip_identity(self, p):
        assert from_interval_mixture(unimodal_to_interval_mixture(p)) == p


def _outcome(decompose, p):
    """The mixture, or the type and message of the error raised instead."""
    try:
        return decompose(p)
    except (ShapeViolationError, SoundnessViolationError) as exc:
        return type(exc), str(exc)


@st.composite
def shaped_pmfs(st_draw, max_size=12, max_weight=3):
    """Decreasing, unimodal or unshaped pmfs with few, often tied, levels."""
    ws = st_draw(st.lists(st.integers(0, max_weight), min_size=1, max_size=max_size))
    ws = ws if any(ws) else ws + [1]
    kind = st_draw(st.sampled_from(["decreasing", "unimodal", "unshaped"]))
    if kind == "decreasing":
        ws = sorted(ws, reverse=True)
    elif kind == "unimodal":
        mode = st_draw(st.integers(0, len(ws)))
        ws = sorted(ws[:mode]) + sorted(ws[mode:], reverse=True)
    # Only offset 0 lets a decreasing sequence count as a decreasing pmf.
    return make_pmf(st_draw(st.just(0) | st.integers(-5, 5)), ws)


class TestSweepMatchesReference:
    """Both decompositions equal the d_i loop and the per-level scan exactly."""

    @given(shaped_pmfs())
    def test_small_pmfs(self, p):
        assert _outcome(to_uniform_mixture, p) == _outcome(reference_to_uniform_mixture, p)
        assert _outcome(unimodal_to_interval_mixture, p) == _outcome(
            reference_unimodal_to_interval_mixture, p
        )

    @pytest.mark.parametrize(
        "weights, offset",
        [([1], -5), ([1], 0), ([7], 5), ([2] * 9, 0), ([2] * 9, -3), ([1, 1, 3, 3, 1], 4),
         ([4, 4, 2, 2, 2, 1], 0)],
        ids=["point-below-0", "point-at-0", "point-above-0", "flat-at-0", "flat-below-0",
             "tied-plateau", "tied-steps"],
    )
    def test_edges(self, weights, offset):
        p = make_pmf(offset, weights)
        if offset == 0 and weights == sorted(weights, reverse=True):
            assert to_uniform_mixture(p) == reference_to_uniform_mixture(p)
        assert unimodal_to_interval_mixture(p) == reference_unimodal_to_interval_mixture(p)

    @settings(max_examples=20, deadline=None)
    @given(
        st.lists(st.integers(1, 10**6), min_size=280, max_size=320),
        st.integers(0, 320),
        st.integers(-20, 20),
    )
    def test_large_pmfs(self, ws, mode, offset):
        # The shape of decompose_roundtrip's large items: 280-320 points
        # with weights up to 10^6, so nearly every level is distinct.
        p = make_pmf(offset, sorted(ws[:mode]) + sorted(ws[mode:], reverse=True))
        assert unimodal_to_interval_mixture(p) == reference_unimodal_to_interval_mixture(p)
        q = make_pmf(0, sorted(ws, reverse=True))
        assert to_uniform_mixture(q) == reference_to_uniform_mixture(q)


class TestFlattenHead:
    def test_already_flat_unchanged(self):
        p = make_pmf(0, [F(1, 2), F(1, 4), F(1, 4)])
        assert flatten_head(p, 2) == p

    def test_jump_example(self):
        p = make_pmf(0, [F(2, 5), F(2, 5), F(1, 5)])
        q = flatten_head(p, 2)
        assert mean(q) == mean(p) == F(4, 5)
        assert q.weights[1] == q.weights[2]
        assert tail(q, 2) >= tail(p, 2) == F(1, 5)
        assert q == make_pmf(0, [F(7, 15), F(4, 15), F(4, 15)])

    def test_requires_decreasing(self):
        with pytest.raises(ShapeViolationError):
            flatten_head(make_pmf(0, [1, 2, 1]), 2)

    @given(decreasing_pmfs(), st.integers(1, 8))
    def test_postconditions(self, p, a):
        q = flatten_head(p, a)
        assert mean(q) == mean(p)
        assert tail(q, a) >= tail(p, a)
        assert shape(q).is_decreasing
        head = [q.probability(i) for i in range(1, a + 1)]
        assert len(set(head)) == 1


class TestMergeTailAtoms:
    def test_far_atoms_converge_to_adjacent(self):
        m = UniformMixture({9: F(1, 2), 20: F(1, 2)})
        out = merge_tail_atoms(m, 9)
        assert set(out.atoms) <= {14, 15}
        assert mixture_mean(out) == mixture_mean(m)
        assert mixture_tail(out, 9) > mixture_tail(m, 9)

    def test_single_atom_unchanged(self):
        m = UniformMixture({9: F(1)})
        assert merge_tail_atoms(m, 9) == m

    def test_adjacent_atoms_unchanged(self):
        m = UniformMixture({9: F(1, 2), 10: F(1, 2)})
        assert merge_tail_atoms(m, 9) == m

    def test_atoms_below_threshold_untouched(self):
        m = UniformMixture({0: F(1, 3), 9: F(1, 3), 20: F(1, 3)})
        out = merge_tail_atoms(m, 9)
        assert out.weight(0) == F(1, 3)

    def test_step_invariants(self):
        rng = random.Random(11)
        for _ in range(100):
            a = rng.randint(1, 6)
            m = random_uniform_mixture(rng, max_atom=25)
            atoms = dict(m.atoms)
            for _ in range(30 * 30):
                before_mean = sum(F(i) * w for i, w in atoms.items())
                before_tail = mixture_tail(UniformMixture(atoms), a)
                if not _merge_step(atoms, a):
                    break
                assert sum(F(i) * w for i, w in atoms.items()) == before_mean
                assert mixture_tail(UniformMixture(atoms), a) > before_tail
            else:
                pytest.fail("merge loop did not terminate")
            remaining = sorted(i for i in atoms if i >= a)
            assert len(remaining) <= 2
            if len(remaining) == 2:
                assert remaining[1] == remaining[0] + 1


class TestClosedFormsMatchMoves:
    """The closed-form transforms equal the step-by-step proof moves exactly."""

    @given(decreasing_pmfs(max_size=30), st.data())
    def test_flatten_head_random(self, p, data):
        a = data.draw(st.integers(1, p.support_max + 3))
        assert flatten_head(p, a) == reference_flatten_head(p, a)

    @pytest.mark.parametrize(
        "weights, a",
        [
            ([3, 2, 1], 1),
            ([5, 1, 1, 1], 3),
            ([4, 3, 2, 1], 4),
            ([1], 2),
            ([9, 6, 6, 2, 1], 5),
        ],
        ids=["a-1", "flat-head", "a-one-past-support", "point-mass", "a-at-support-end"],
    )
    def test_flatten_head_edges(self, weights, a):
        p = make_pmf(0, weights)
        assert flatten_head(p, a) == reference_flatten_head(p, a)

    @given(uniform_mixtures(), st.integers(1, 82))
    def test_merge_tail_atoms_random(self, m, a):
        assert merge_tail_atoms(m, a) == reference_merge_tail_atoms(m, a)

    @pytest.mark.parametrize(
        "atoms, a",
        [
            ({0: F(1, 2), 3: F(1, 2)}, 5),
            ({0: F(1, 2), 5: F(1, 2)}, 5),
            ({5: F(1, 2), 9: F(1, 2)}, 5),
            ({1: F(1, 4), 5: F(1, 4), 6: F(1, 4), 30: F(1, 4)}, 1),
            ({2: F(1, 3), 7: F(1, 3), 79: F(1, 3)}, 4),
        ],
        ids=["all-below-a", "one-atom-at-a", "integer-mean", "a-1", "far-atom"],
    )
    def test_merge_tail_atoms_edges(self, atoms, a):
        m = UniformMixture(atoms)
        assert merge_tail_atoms(m, a) == reference_merge_tail_atoms(m, a)


class TestReduceThreeAtoms:
    def test_three_atom_example(self):
        m = UniformMixture({0: F(1, 3), 17: F(1, 3), 18: F(1, 3)})
        out = reduce_three_atoms(m, 9)
        assert dict(out.atoms) == {0: F(16, 51), 17: F(35, 51)}
        assert mixture_mean(out) == mixture_mean(m)
        assert mixture_tail(out, 9) >= mixture_tail(m, 9)

    def test_turning_point_runs_forward(self):
        # At i = 2a - 2 the move leaves the tail unchanged in either
        # direction; the documented forward move eliminates d_{i+1}.
        m = UniformMixture({0: F(1, 2), 4: F(1, 4), 5: F(1, 4)})
        out = reduce_three_atoms(m, 3)
        assert dict(out.atoms) == {0: F(7, 16), 4: F(9, 16)}
        assert mixture_tail(out, 3) == mixture_tail(m, 3)

    def test_below_turning_point_runs_backward(self):
        m = UniformMixture({0: F(1, 2), 3: F(1, 4), 4: F(1, 4)})
        out = reduce_three_atoms(m, 3)
        assert dict(out.atoms) == {0: F(9, 16), 4: F(7, 16)}
        assert mixture_tail(out, 3) > mixture_tail(m, 3)

    def test_two_atoms_with_zero_unchanged(self):
        m = UniformMixture({0: F(1, 2), 17: F(1, 2)})
        assert reduce_three_atoms(m, 9) == m

    def test_missing_zero_atom_unchanged(self):
        m = UniformMixture({17: F(1, 2), 18: F(1, 2)})
        assert reduce_three_atoms(m, 9) == m

    def test_rejects_wrong_structure(self):
        m = UniformMixture({0: F(1, 3), 10: F(1, 3), 14: F(1, 3)})
        with pytest.raises(ValidationError):
            reduce_three_atoms(m, 9)

    def test_rejects_atom_below_threshold(self):
        m = UniformMixture({0: F(1, 2), 5: F(1, 2)})
        with pytest.raises(ValidationError):
            reduce_three_atoms(m, 9)

    def test_randomized_postconditions(self):
        rng = random.Random(23)
        for _ in range(200):
            a = rng.randint(1, 8)
            m = random_three_atom_mixture(rng, a)
            out = reduce_three_atoms(m, a)
            assert mixture_mean(out) == mixture_mean(m)
            assert mixture_tail(out, a) >= mixture_tail(m, a)
            assert len(out.atoms) <= 2
