import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from tailbounds import (
    ValidationError,
    make_pmf,
    point_pmf,
    uniform_pmf,
)
import tailbounds.bounds
import tailbounds.cli
import tailbounds.dist_core
import tailbounds.extremal
from tailbounds.cli import _parse_int_range, main, parse_pmf_literal


MODES = ("one-sided", "two-sided")
# Exact results past a float's range: a two-sided sweep ratio of about
# 10**4700, and a mean of 10**400.
FLOAT_OVERFLOW = [
    ["sweep", "--pmf", "weights:0;1,1e-300,0,0,0,0,1e-5000", "--a", "5", "--mode", "two-sided"],
    ["bound", "--pmf", f"weights:1{'0' * 400};1", "--a", "1"],
]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParsePmfLiteral:
    def test_uniform(self):
        assert parse_pmf_literal("uniform:0..10") == uniform_pmf(0, 10)

    def test_point(self):
        assert parse_pmf_literal("point:3") == point_pmf(3)

    def test_point_negative(self):
        assert parse_pmf_literal("point:-2") == point_pmf(-2)

    def test_weights(self):
        assert parse_pmf_literal("weights:0;1/2,1/4,1/4") == make_pmf(
            0, [F(1, 2), F(1, 4), F(1, 4)]
        )

    def test_weights_with_offset_and_decimals(self):
        assert parse_pmf_literal("weights:-1;0.25,0.5,0.25") == make_pmf(
            -1, [1, 2, 1]
        )

    @pytest.mark.parametrize(
        "literal",
        ["uniform", "uniform:a..b", "uniform:5..2", "point:x", "weights:0",
         "weights:z;1", "weights:0;1,oops", "gamma:1",
         "point:\u0663", "uniform:\u0660..\u0663", "weights:\u0663;1,1"],
    )
    def test_bad_literals_report_position(self, literal):
        with pytest.raises(ValidationError, match="pmf literal"):
            parse_pmf_literal(literal)

    @pytest.mark.parametrize("token, reason", [
        ("1e10001", "an exponent must be at most 10000 in size"),
        ("1/x", "not a rational number: '1/x'"),
        ("\u0663", "not a rational number: '\u0663'"),
    ], ids=["exponent-cap", "not-rational", "non-ascii-digit"])
    def test_bad_weight_says_why(self, capsys, token, reason):
        literal = f"weights:0;{token},1"
        message = f"pmf literal {literal!r}: bad weight {token!r} at position 10: {reason}"
        assert run_cli(capsys, "bound", "--pmf", literal, "--a", "1") == (
            3, "", f"error: {message}\n"
        )


class TestBoundCommand:
    def test_paper_example_json(self, capsys):
        code, out, _ = run_cli(capsys, "bound", "--pmf", "uniform:0..10", "--a", "9")
        assert code == 0
        payload = json.loads(out)
        assert payload["exact_tail"] == "2/11"
        assert [b["value"] for b in payload["bounds"]] == ["5/17", "5/9"]

    def test_values_match_library_exactly(self, capsys):
        from tailbounds import best_bound

        _, out, _ = run_cli(capsys, "bound", "--pmf", "uniform:0..10", "--a", "9")
        payload = json.loads(out)
        expected = [str(r.value) for r in best_bound(uniform_pmf(0, 10), 9)]
        assert [b["value"] for b in payload["bounds"]] == expected

    def test_two_sided(self, capsys):
        code, out, _ = run_cli(
            capsys, "bound", "--pmf", "uniform:0..10", "--a", "4", "--mode", "two-sided"
        )
        payload = json.loads(out)
        assert payload["exact_tail"] == "4/11"
        assert [b["value"] for b in payload["bounds"]] == ["121/294", "5/8"]

    def test_plain_clamps_with_marker(self, capsys):
        code, out, _ = run_cli(
            capsys, "bound", "--pmf", "uniform:0..10", "--a", "1", "--format", "plain"
        )
        assert code == 0
        assert "1 *" in out

    def test_float_rendering(self, capsys):
        _, out, _ = run_cli(
            capsys, "bound", "--pmf", "uniform:0..10", "--a", "9", "--float"
        )
        payload = json.loads(out)
        assert payload["exact_tail"] == pytest.approx(2 / 11)

    def test_input_file(self, capsys, tmp_path):
        path = tmp_path / "pmf.json"
        path.write_text(json.dumps(uniform_pmf(0, 10).to_dict()))
        code, out, _ = run_cli(capsys, "bound", "--input", str(path), "--a", "9")
        assert code == 0
        assert json.loads(out)["exact_tail"] == "2/11"

    def test_input_bool_offset_exits_3(self, capsys, tmp_path):
        path = tmp_path / "pmf.json"
        path.write_text('{"offset": true, "weights": ["1"]}')
        code, out, err = run_cli(capsys, "bound", "--input", str(path), "--a", "1")
        assert code == 3 and out == ""
        assert err == "error: pmf 'offset' must be an integer\n"

    @pytest.mark.parametrize("weights", ["5", "null", '"12"'])
    def test_input_weights_not_an_array_exits_3(self, capsys, tmp_path, weights):
        path = tmp_path / "pmf.json"
        path.write_text(f'{{"offset": 0, "weights": {weights}}}')
        code, out, err = run_cli(capsys, "bound", "--input", str(path), "--a", "1")
        assert code == 3 and out == ""
        assert err == "error: pmf 'weights' must be an array of weights\n"

    @pytest.mark.parametrize("content, reason", [
        (b"\xff\xfe{}", "is not valid JSON: 'utf-8' codec can't decode byte 0xff"),
        (b"[" * 100_000 + b"]" * 100_000, "nests too deeply to read: maximum recursion depth"),
    ], ids=["not-utf-8", "deep-nesting"])
    def test_unreadable_input_exits_3_naming_the_file(self, capsys, tmp_path, content, reason):
        path = tmp_path / "pmf.json"
        path.write_bytes(content)
        code, out, err = run_cli(capsys, "bound", "--input", str(path), "--a", "1")
        assert code == 3 and out == "" and err.count("\n") == 1
        assert err.startswith(f"error: {path} {reason}")

    def test_input_path_with_nul_exits_3(self, capsys):
        code, out, err = run_cli(capsys, "bound", "--input", "a\x00b", "--a", "1")
        assert code == 3 and out == ""
        assert err == "error: cannot read 'a\\x00b': a path cannot hold a NUL character\n"

    def test_requires_exactly_one_source(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "bound", "--a", "9")
        assert code == 3 and "exactly one" in err


class TestDecomposeCommand:
    def test_uniform_mixture(self, capsys):
        code, out, _ = run_cli(
            capsys, "decompose", "--pmf", "weights:0;1/2,1/4,1/4"
        )
        assert code == 0
        assert json.loads(out) == {"atoms": {"0": "1/4", "2": "3/4"}}

    def test_interval_mixture(self, capsys):
        code, out, _ = run_cli(
            capsys, "decompose", "--pmf", "weights:-1;1/4,1/2,1/4", "--kind", "interval"
        )
        assert json.loads(out) == {
            "atoms": [
                {"l": -1, "r": 1, "w": "3/4"},
                {"l": 0, "r": 0, "w": "1/4"},
            ]
        }

    def test_shape_violation_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "decompose", "--pmf", "weights:0;1,2,1")
        assert code == 3 and "decreasing" in err


class TestExtremalCommand:
    def test_discrete(self, capsys):
        code, out, _ = run_cli(
            capsys, "extremal", "--kind", "discrete", "--a", "1", "--mu", "0.5"
        )
        payload = json.loads(out)
        assert payload["atoms"] == {"1": "1"}
        assert payload["achieved_tail"] == "1/2"

    def test_continuous(self, capsys):
        code, out, _ = run_cli(
            capsys, "extremal", "--kind", "continuous", "--a", "1", "--mu", "0.5",
            "--epsilon", "0.1",
        )
        payload = json.loads(out)
        assert payload["p"] == pytest.approx(0.45 / 0.95)
        assert payload["achieved_tail"] == pytest.approx(0.45 / 1.9)

    def test_infeasible_exit_code(self, capsys):
        code, _, err = run_cli(
            capsys, "extremal", "--kind", "discrete", "--a", "9", "--mu", "100"
        )
        assert code == 4 and "17/2" in err

    def test_continuous_requires_epsilon(self, capsys):
        code, _, err = run_cli(
            capsys, "extremal", "--kind", "continuous", "--a", "1", "--mu", "0.5"
        )
        assert code == 3 and "epsilon" in err

    def test_discrete_rejects_epsilon(self, capsys):
        # Only the continuous construction reads --epsilon.
        assert run_cli(
            capsys, "extremal", "--a", "3", "--mu", "3/4", "--epsilon", "0.1"
        ) == (3, "", "error: --epsilon applies only to --kind continuous\n")

    def test_continuous_rejects_float(self, capsys):
        # The continuous construction's results are floats already.
        assert run_cli(
            capsys, "extremal", "--kind", "continuous", "--a", "3", "--mu", "0.75",
            "--epsilon", "0.5", "--float",
        ) == (3, "", "error: --float applies only to --kind discrete\n")

    def test_continuous_mean_too_large_for_float(self, capsys):
        code, out, err = run_cli(
            capsys, "extremal", "--kind", "continuous", "--a", "1", "--mu", "1e400",
            "--epsilon", "0.5",
        )
        assert code == 3 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_continuous_threshold_too_large_for_float(self, capsys):
        assert run_cli(
            capsys, "extremal", "--kind", "continuous", "--a", str(10**309), "--mu", "1",
            "--epsilon", "0.5",
        ) == (3, "", "error: threshold a is too large for a float\n")

    def test_continuous_epsilon_read_as_a_rational(self, capsys):
        argv = ["extremal", "--kind", "continuous", "--a", "3", "--mu", "0.75", "--epsilon"]
        assert run_cli(capsys, *argv, "1/2") == run_cli(capsys, *argv, "0.5")

    def test_continuous_epsilon_below_the_smallest_float(self, capsys):
        # Read exactly, so it lies in (0, a); it prints as its nearest float, 0.0.
        code, out, _ = run_cli(
            capsys, "extremal", "--kind", "continuous", "--a", "1", "--mu", "1/2",
            "--epsilon", "1e-400",
        )
        payload = json.loads(out)
        assert code == 0 and payload["epsilon"] == 0.0 and payload["p"] == 0.5
        assert payload["achieved_tail"] == payload["bound_value"] == 0.25

    def test_continuous_near_the_float_limit(self, capsys):
        # 2a would overflow to inf and read both values as 0.0.
        code, out, _ = run_cli(
            capsys, "extremal", "--kind", "continuous", "--a", str(10**308), "--mu", "1e308",
            "--epsilon", "1e307",
        )
        payload = json.loads(out)
        assert code == 0 and payload["achieved_tail"] == payload["bound_value"] == 0.5


    def test_construction_mismatch_exits_5(self, capsys, monkeypatch):
        # The check must raise, not assert, so that it also runs under python -O.
        import tailbounds.extremal

        monkeypatch.setattr(tailbounds.extremal, "mixture_tail", lambda m, a: F(0))
        code, out, err = run_cli(capsys, "extremal", "--a", "2", "--mu", "1/2")
        assert code == 5 and out == ""
        assert err.startswith("soundness violation: ") and err.count("\n") == 1
        assert "Traceback" not in err


class TestVerifyCommand:
    def test_csv(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--a", "1..3", "--mu", "0.5,1", "--N", "20",
            "--format", "csv",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "a,mu,oracle,bound,equal"
        assert "1,1/2,1/2,1/2,true" in lines

    def test_json_mirror(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--a", "2", "--mu", "1/2", "--N", "10")
        payload = json.loads(out)
        assert payload == [
            {"a": 2, "mu": "1/2", "oracle": "1/6", "bound": "1/6", "equal": True,
             "note": ""}
        ]

    @pytest.mark.parametrize("N", ["1", "-3"])
    def test_invalid_cap_exits_3(self, capsys, N):
        code, out, err = run_cli(capsys, "verify", "--a", "5", "--mu", "1", "--N", N)
        assert code == 3 and out == ""
        assert "support cap N must be an integer >= 10" in err

    # sha256 of the whole stdout of one grid, so that no row, note or digit
    # of verify's output can change unseen: every a in 1..30 against means
    # inside and beyond the two-atom range, at and past N/2, and below 0.
    @pytest.mark.parametrize("fmt, digest", [
        ("json", "88dcc320d88853bc9f7830ab9a2e494cf34d92b3ea061d94939f45813b007c35"),
        ("csv", "037edf7f89506cd6000bad8316e77db45625aed5b0150fe2dfb5181c95d121df"),
    ], ids=["json", "csv"])
    def test_pinned_grid_bytes(self, capsys, fmt, digest):
        code, out, err = run_cli(
            capsys, "verify", "--a", "1..30", "--mu", "1/2,1,3/2,7/3,4,11/7,30,99/2,-1",
            "--N", "60", "--format", fmt,
        )
        assert code == 0 and err == ""
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_oracle_above_bound_exits_5(self, capsys, monkeypatch):
        import tailbounds.extremal

        def faulty_core(a, p, q, N):
            return 1, 1, 0, 1, 0, 1, 2  # a tail of 1, far above the bound 1/6

        monkeypatch.setattr(tailbounds.extremal, "_decreasing_cell", faulty_core)
        code, out, err = run_cli(capsys, "verify", "--a", "2", "--mu", "1/2", "--N", "10")
        assert code == 5 and out == ""
        assert err.startswith("soundness violation: ") and err.count("\n") == 1
        assert "Traceback" not in err


class TestSweepCommand:
    def test_csv_rows(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--pmf", "uniform:0..10", "--a", "8..9",
            "--format", "csv",
        )
        lines = out.strip().splitlines()
        assert lines[0] == "a,exact_tail,formula,bound,ratio"
        assert "9,2/11,MarkovDecreasingDiscrete,5/17,55/34" in lines

    def test_json(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--pmf", "point:0", "--a", "1..2")
        payload = json.loads(out)
        assert all(row["ratio"] is None for row in payload)

    @pytest.mark.parametrize("argv", [
        *(pytest.param(["sweep", "--a", "1..8", "--mode", mode], id=mode) for mode in MODES),
        *(pytest.param(["bound", "--a", "2", "--mode", mode, "--format", fmt],
                       id=f"bound-{fmt}-{mode}")
          for fmt in ("json", "csv", "plain") for mode in MODES),
    ])
    def test_shape_and_mean_computed_once_per_pmf(self, capsys, monkeypatch, argv):
        # bound and sweep share one table: one shape, one moment and one tail
        # pass per request, whatever the number of thresholds.
        calls = {"shape": 0, "_moments": 0, "_threshold_tails": 0}
        for name in calls:
            original = getattr(tailbounds.dist_core, name)

            def counted(*args, _name=name, _original=original):
                calls[_name] += 1
                return _original(*args)

            for module in (tailbounds.dist_core, tailbounds.bounds, tailbounds.cli):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counted)
        code, _, _ = run_cli(capsys, argv[0], "--pmf", "weights:0;4,3,3,2,1", *argv[1:])
        assert code == 0
        assert calls == {"shape": 1, "_moments": 1, "_threshold_tails": 1}


@settings(max_examples=200, deadline=None)
@given(
    offset=st.integers(-5, 5),
    weights=st.lists(st.integers(0, 9), min_size=1, max_size=12).filter(any),
    a=st.integers(1, 8),
    mode=st.sampled_from(MODES),
    as_float=st.booleans(),
)
def test_bound_is_the_one_threshold_sweep(offset, weights, a, mode, as_float):
    common = ["--pmf", f"weights:{offset};{','.join(map(str, weights))}", "--mode", mode,
              "--format", "json", *(["--float"] if as_float else [])]
    code, out, err = run_main(["bound", *common, "--a", str(a)])
    assert (code, err) == (0, "")
    bound = json.loads(out)
    code, out, err = run_main(["sweep", *common, "--a", f"{a}..{a}"])
    assert (code, err) == (0, "")
    rows = json.loads(out)
    assert [(r["a"], r["exact_tail"], r["formula"], r["bound"]) for r in rows] == [
        (a, bound["exact_tail"], b["formula"], b["value"]) for b in bound["bounds"]
    ]


SWEEP_CSV = ["sweep", "--pmf", "uniform:0..5", "--format", "csv"]
VERIFY_HALF = ["verify", "--mu", "1/2", "--N", "10"]
CONTINUOUS = ["extremal", "--kind", "continuous", "--a", "3", "--mu", "0.75"]


@pytest.mark.parametrize("spaced, same_as, code", [
    *(pytest.param([*argv, "--a", a], [*argv, f"--a={a}"], code, id=f"{a}-{name}")
      for a, sweep_code in (("-1..7", 0), ("-3", 0), ("-2..x", 3))
      for name, argv, code in (("sweep", SWEEP_CSV, sweep_code), ("verify", VERIFY_HALF, 3))),
    pytest.param(["verify", "--a", "1", "--mu", "-1/2", "--N", "10"],
                 ["verify", "--a", "1", "--mu=-1/2", "--N", "10"], 0, id="verify-mu"),
    pytest.param(["extremal", "--a", "1", "--mu", "-1/2"], ["extremal", "--a", "1", "--mu=-1/2"],
                 3, id="extremal-mu"),
    pytest.param([*CONTINUOUS, "--epsilon", "-1e-3"], [*CONTINUOUS, "--epsilon=-1e-3"], 3,
                 id="continuous-epsilon"),
    # A flag takes no value, so the token after it is left alone.
    pytest.param(["--version", "-1"], ["--version"], 0, id="version"),
    pytest.param(["bound", "--pmf", "point:0", "--float", "-1", "--a", "1"],
                 ["bound", "--pmf", "point:0", "--float", "--a", "1", "-1"], 2, id="float"),
])
def test_range_after_a_reads_like_a_joined_range(spaced, same_as, code):
    # argparse reads a lone "-1..7" or "-1/2" as an option, so the token
    # after an option that takes a value is joined to it: "--a=-1..7".
    result = run_main(spaced)
    assert result == run_main(same_as)
    assert result[0] == code


def test_value_options_are_the_parsers():
    # The options whose next token is joined are exactly those that take a value.
    def value_options(parser):
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                for sub in action.choices.values():
                    yield from value_options(sub)
            elif action.nargs != 0:
                yield from action.option_strings

    assert set(value_options(tailbounds.cli.build_parser())) == tailbounds.cli._VALUE_OPTIONS


class TestRangeCap:
    def test_ten_thousand_values_allowed(self):
        assert _parse_int_range("1..10000") == list(range(1, 10001))
        assert len(_parse_int_range("-5000..4999")) == 10000

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "--pmf", "point:0", "--a", "1..10001"],
            ["verify", "--a", "1..10001", "--mu", "1/2", "--N", "5"],
        ],
        ids=["sweep", "verify"],
    )
    def test_ten_thousand_and_one_values_exit_3(self, capsys, argv):
        assert run_cli(capsys, *argv) == (
            3, "", "error: range '1..10001' has 10001 values; at most 10000 are allowed\n",
        )

    def test_sweep_range_capped_before_the_pmf_is_built(self, capsys, monkeypatch):
        def refuse(args):
            raise AssertionError("pmf built before the range cap was checked")

        monkeypatch.setattr(tailbounds.cli, "_load_pmf", refuse)
        assert run_cli(capsys, "sweep", "--pmf", "uniform:0..99999", "--a", "1..20000") == (
            3, "", "error: range '1..20000' has 20000 values; at most 10000 are allowed\n",
        )


class TestPointCap:
    """A ``uniform:l..r`` literal and ``verify --N`` are capped at ``_MAX_POINTS``."""

    @pytest.fixture
    def small_cap(self, monkeypatch):
        monkeypatch.setattr(tailbounds.cli, "_MAX_POINTS", 20)

    @pytest.mark.parametrize("hi", [18, 19])
    def test_uniform_up_to_the_cap_allowed(self, capsys, small_cap, hi):
        code, out, _ = run_cli(capsys, "bound", "--pmf", f"uniform:0..{hi}", "--a", "1")
        assert code == 0
        assert json.loads(out)["mean"] == str(F(hi, 2))

    @pytest.mark.parametrize("N", [19, 20])
    def test_verify_cap_up_to_the_cap_allowed(self, capsys, small_cap, N):
        code, out, _ = run_cli(capsys, "verify", "--a", "1", "--mu", "1/2", "--N", str(N))
        assert code == 0 and json.loads(out)[0]["equal"] is True

    @pytest.fixture
    def nothing_built(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("built before the cap was checked")

        # The CLI reads these from their modules when it runs.
        monkeypatch.setattr(tailbounds.dist_core, "uniform_pmf", refuse)
        monkeypatch.setattr(tailbounds.dist_core, "make_pmf", refuse)
        monkeypatch.setattr(tailbounds.extremal, "verify_tightness_theorem2", refuse)

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["bound", "--pmf", "uniform:0..20", "--a", "1"],
             "pmf literal 'uniform:0..20': 21 points; at most 20 are allowed"),
            (["bound", "--pmf", "weights:0;" + ",".join(["1"] * 21), "--a", "1"],
             f"pmf literal 'weights:0;{','.join(['1'] * 21)}': 21 points; at most 20 are allowed"),
            (["verify", "--a", "1", "--mu", "1/2", "--N", "21"],
             "--N 21 is too large; at most 20 is allowed"),
        ],
        ids=["uniform", "weights", "verify"],
    )
    def test_above_the_cap_exits_3_before_building(
        self, capsys, small_cap, nothing_built, argv, message
    ):
        assert run_cli(capsys, *argv) == (3, "", f"error: {message}\n")

    def test_documented_cap(self, capsys, nothing_built):
        assert tailbounds.cli._MAX_POINTS == 100_000
        code, _, err = run_cli(capsys, "sweep", "--pmf", "uniform:-50000..50000", "--a", "1")
        assert code == 3 and "100001 points; at most 100000 are allowed" in err

    def test_input_file_above_the_cap_exits_3_before_building(
        self, capsys, tmp_path, nothing_built
    ):
        path = tmp_path / "pmf.json"
        path.write_text(json.dumps({"offset": 0, "weights": ["1/3"] * 100_001}))
        assert run_cli(capsys, "bound", "--input", str(path), "--a", "1") == (
            3, "", f"error: {path}: 100001 points; at most 100000 are allowed\n",
        )


class TestDigitLimit:
    """Numbers past Python's int<->str limit exit 3 with one error line."""

    TOO_LONG = (
        "error: a number has more than 4300 digits, past Python's int<->str conversion limit\n"
    )

    @pytest.mark.parametrize("argv", [
        ["bound", "--pmf", "point:" + "7" * 4301, "--a", "1"],
        ["sweep", "--pmf", "uniform:0..3", "--a", "1.." + "7" * 4301],
    ], ids=["pmf-literal", "range"])
    def test_integer_token_too_long_to_read(self, capsys, argv):
        assert run_cli(capsys, *argv) == (3, "", self.TOO_LONG)

    def test_integer_token_in_input_json(self, capsys, tmp_path):
        path = tmp_path / "p.json"
        path.write_text('{"offset": 0, "weights": [%s, 1]}' % ("7" * 4301))
        assert run_cli(capsys, "bound", "--input", str(path), "--a", "1") == (3, "", self.TOO_LONG)

    @pytest.mark.parametrize("argv", [
        ["extremal", "--a", "3", "--mu", "1e-5000"],
        ["bound", "--pmf", "weights:0;1e3000,1e-3000", "--a", "1"],
    ], ids=["exact-result", "normalized-weights"])
    def test_result_too_long_to_print(self, capsys, argv):
        assert run_cli(capsys, *argv) == (3, "", self.TOO_LONG)

    def test_message_names_a_value_too_long_to_print(self, capsys):
        assert run_cli(capsys, "extremal", "--a", "3", "--mu", "1e5000") == (
            4, "", "infeasible: two-atom construction needs mu <= (2a-1)/2 = 5/2;"
            " got mu = <a number of more than 4300 digits>\n",
        )

    def test_other_value_errors_surface(self, capsys, monkeypatch):
        def broken(args):
            raise ValueError("not an int<->str limit")

        monkeypatch.setattr(tailbounds.cli, "_run_decompose", broken)
        with pytest.raises(ValueError, match="not an int<->str limit"):
            main(["decompose", "--pmf", "point:0"])


@pytest.mark.parametrize("argv", [
    ["bound", "--pmf", "uniform:0..9", "--a", "3"],
    ["verify", "--a", "1..20", "--mu", "1,2,3", "--N", "50"],
    ["--version"],
    ["--help"],
    ["bound", "--help"],
], ids=["bound", "verify", "version", "help", "bound-help"])
def test_closed_stdout_exits_1_without_a_traceback(argv):
    # The read end is closed before the launch, so the first write fails
    # with EPIPE however short the output is.  argparse drops that error
    # when it writes --help or --version itself.
    read_end, write_end = os.pipe()
    os.close(read_end)
    src = str(Path(tailbounds.cli.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    try:
        proc = subprocess.run([sys.executable, "-m", "tailbounds.cli", *argv], stdout=write_end,
                              stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (1, b"")


class TestIntegerText:
    """An integer written as text is an optional "-" and ASCII digits at every site."""

    @pytest.mark.parametrize("argv, a", [
        (["sweep", "--pmf", "uniform:0..3", "--a", "\u0661..\u0662"], "\u0661..\u0662"),
        (["verify", "--a", "\u0663", "--mu", "1/2", "--N", "10"], "\u0663"),
    ], ids=["sweep-a", "verify-a"])
    def test_non_ascii_digits_in_a_range_exit_3(self, capsys, argv, a):
        message = f"error: expected an integer or 'lo..hi' range, got {a!r}\n"
        assert run_cli(capsys, *argv) == (3, "", message)

    @pytest.mark.parametrize("argv, option, value", [
        (["bound", "--pmf", "point:0", "--a", "1_0"], "--a", "1_0"),
        (["extremal", "--a", "+3", "--mu", "1"], "--a", "+3"),
        (["verify", "--a", "1", "--mu", "1/2", "--N", " 12"], "--N", " 12"),
    ], ids=["bound-a", "extremal-a", "verify-N"])
    def test_other_spellings_of_an_option_exit_2(self, argv, option, value):
        code, out, err = run_main(argv)
        assert (code, out) == (2, "")
        assert err.endswith(f"error: argument {option}: invalid int value: {value!r}\n")


class TestVerifyWorkCap:
    """A ``verify`` grid holds at most ``_MAX_VERIFY_CELLS`` (a, mu) cells, whatever N."""

    @pytest.fixture
    def small_cap(self, monkeypatch):
        monkeypatch.setattr(tailbounds.cli, "_MAX_VERIFY_CELLS", 6)

    @pytest.mark.parametrize("a, mu, N, cells", [
        ("1..5", "1/2", "100000", 5),
        ("1..2", "1/2,1,2", "10", 6),
    ], ids=["below", "at"])
    def test_up_to_the_cap_allowed(self, capsys, small_cap, a, mu, N, cells):
        code, out, _ = run_cli(capsys, "verify", "--a", a, "--mu", mu, "--N", N)
        assert code == 0 and len(json.loads(out)) == cells

    @pytest.fixture
    def no_oracle(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("an oracle ran before the cap was checked")

        monkeypatch.setattr(tailbounds.extremal, "verify_tightness_theorem2", refuse)

    @pytest.mark.parametrize("a, mu", [
        ("1", "1/2,1,2,3,4,5,6"), ("1..7", "1/2"),
    ], ids=["one-threshold", "seven-thresholds"])
    def test_above_the_cap_exits_3_before_any_oracle(self, capsys, small_cap, no_oracle, a, mu):
        assert run_cli(capsys, "verify", "--a", a, "--mu", mu, "--N", "10") == (
            3, "", "error: verify grid has 7 (a, mu) cells; at most 6 are allowed\n"
        )

    def test_one_past_the_documented_cap(self, capsys, no_oracle):
        # 7143 thresholds x 7 means: 50 001 cells, at the smallest N.
        mus = ",".join(str(k) for k in range(1, 8))
        assert run_cli(capsys, "verify", "--a", "1..7143", "--mu", mus, "--N", "2") == (
            3, "", "error: verify grid has 50001 (a, mu) cells; at most 50000 are allowed\n"
        )

    def test_documented_cap(self):
        assert tailbounds.cli._MAX_VERIFY_CELLS == 50_000


class TestFloatOption:
    @pytest.mark.parametrize(
        "argv",
        [
            ["decompose", "--pmf", "weights:0;1/2,1/4,1/4", "--float"],
            ["verify", "--a", "2", "--mu", "1/2", "--N", "10", "--float"],
        ],
        ids=["decompose", "verify"],
    )
    def test_commands_with_only_exact_output_reject_float(self, capsys, argv):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --float" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["decompose", "--pmf", "weights:0;1/2,1/4,1/4", "--format", "json"],
            ["extremal", "--a", "9", "--mu", "17/4", "--format", "json"],
        ],
        ids=["decompose", "extremal"],
    )
    def test_commands_with_only_json_output_reject_format(self, capsys, argv):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --format json" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, exact_err", [
        (FLOAT_OVERFLOW[0], TestDigitLimit.TOO_LONG), (FLOAT_OVERFLOW[1], ""),
    ], ids=["sweep-ratio", "bound-mean"])
    def test_result_past_the_float_range_exits_3(self, capsys, argv, exact_err):
        assert run_cli(capsys, *argv, "--float") == (
            3, "", "error: a result is too large for a float\n"
        )
        # Exact output is as before: the bound prints its mean of 10**400, and
        # the sweep's ratio has more digits than Python's int<->str limit.
        code, _, err = run_cli(capsys, *argv)
        assert (code, err) == (3 if exact_err else 0, exact_err)


# stdout, stderr and exit code of one invocation per subcommand, format,
# tail mode and --float setting, plus an exit-3 and an exit-4 error, and
# verify grids whose 2mu sits at the envelope vertex 2a - 1, at an
# integer above it, at the cap N, at a = 1 and at sevenths.  The strings
# were captured before the code that produces them was last rewritten;
# a change to them is a change to the CLI's output, not a refactor.
GOLDEN = json.loads((Path(__file__).parent / "golden_cli.json").read_text())


@pytest.mark.parametrize("case", GOLDEN, ids=[case["id"] for case in GOLDEN])
def test_golden_output(capsys, case):
    assert run_cli(capsys, *case["argv"]) == (case["code"], case["stdout"], case["stderr"])


class TestUsageErrors:
    def test_missing_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2

    def test_unknown_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["bound", "--nope"])
        assert excinfo.value.code == 2


# Small tokens only: ranges of at most 20 values, N <= 60, at most 20
# weights, so every generated invocation is cheap.
INT_TEXT = st.one_of(st.integers(-5, 25).map(str), st.sampled_from(["+3", "1_0", "\u0663"]))
RANGE_TEXT = st.one_of(
    INT_TEXT,
    st.tuples(st.integers(-5, 20), st.integers(-1, 19)).map(lambda t: f"{t[0]}..{t[0] + t[1]}"),
)
RATIONAL_TEXT = st.one_of(
    st.integers(-3, 12).map(str),
    st.fractions(min_value=-3, max_value=12, max_denominator=12).map(str),
    st.sampled_from(["0.25", "1e1", "2.5e-1", "1e-2", "x", "", "1/0", "nan", "inf", "-0",
                     "1e5_", "1e1__0", "1_0", "1e+0_1"]),
)
PMF_TEXT = st.one_of(
    st.tuples(st.integers(-5, 10), st.integers(-1, 19)).map(
        lambda t: f"uniform:{t[0]}..{t[0] + t[1]}"
    ),
    st.integers(-5, 10).map(lambda k: f"point:{k}"),
    st.tuples(st.integers(-5, 5), st.lists(RATIONAL_TEXT, min_size=1, max_size=20)).map(
        lambda t: f"weights:{t[0]};{','.join(t[1])}"
    ),
    st.sampled_from(["uniform:1", "gamma:1", "weights:0", "point:x", "point"]),
)


@st.composite
def cli_argvs(draw):
    """An argv for one of the five subcommands, sometimes with a flag dropped."""
    def optional(*flag):
        return list(flag) if draw(st.booleans()) else []

    def choice(flag, values):
        return optional(flag, draw(st.sampled_from(values)))

    def spaced_or_joined(flag, value):
        # "--a -3..5" and "--a=-3..5" are read alike.
        return [flag, value] if draw(st.booleans()) else [f"{flag}={value}"]

    command = draw(st.sampled_from(["bound", "decompose", "extremal", "verify", "sweep"]))
    pmf = ["--pmf", draw(PMF_TEXT)]
    mode = choice("--mode", ["one-sided", "two-sided"])
    a_range = spaced_or_joined("--a", draw(RANGE_TEXT))
    if command == "bound":
        argv = [*pmf, *spaced_or_joined("--a", draw(INT_TEXT)), *mode,
                *choice("--format", ["json", "csv", "plain"]), *optional("--float")]
    elif command == "decompose":
        argv = [*pmf, *choice("--kind", ["uniform", "interval"])]
    elif command == "extremal":
        epsilon = draw(st.one_of(RATIONAL_TEXT, st.sampled_from(["1/8", "1e-400", "1e400"])))
        argv = [*spaced_or_joined("--a", draw(INT_TEXT)),
                *spaced_or_joined("--mu", draw(RATIONAL_TEXT)),
                *choice("--kind", ["discrete", "continuous"]),
                *(spaced_or_joined("--epsilon", epsilon) if draw(st.booleans()) else []),
                *optional("--float")]
    elif command == "verify":
        mus = draw(st.lists(RATIONAL_TEXT, min_size=1, max_size=3))
        argv = [*a_range, *spaced_or_joined("--mu", ",".join(mus)),
                "--N", str(draw(st.integers(-2, 60))), *choice("--format", ["json", "csv"])]
    else:
        argv = [*pmf, *a_range, *mode, *choice("--format", ["json", "csv"]),
                *optional("--float")]
    if all(draw(st.booleans()) for _ in range(3)):
        del argv[draw(st.integers(0, len(argv) - 1))]
    return [command, *argv]


def run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


BIG = "1" * 4301


@settings(max_examples=300, deadline=None)
@given(cli_argvs())
@example(["bound", "--pmf", f"point:{BIG}", "--a", "1"])
@example(["bound", "--pmf", f"uniform:0..{BIG}", "--a", "1"])
@example(["bound", "--pmf", f"weights:{BIG};1", "--a", "1"])
@example(["bound", "--pmf", f"weights:0;{BIG},1", "--a", "1"])
@example(["sweep", "--pmf", "uniform:0..3", "--a", f"1..{BIG}"])
@example(["extremal", "--a", "3", "--mu", "1e5000"])
@example(["verify", "--a", "1", "--mu", "1e5000", "--N", "10"])
@example(["bound", "--pmf", "weights:0;1e5000,1", "--a", "1"])
@example(["bound", "--pmf", "weights:0;1e3000,1e-3000", "--a", "1"])
@example(["extremal", "--a", "3", "--mu", "1e1000000"])
@example(["extremal", "--a", "3", "--mu", "1e5_"])
@example(["verify", "--a", "1", "--mu", "1e1__0", "--N", "10"])
@example(["bound", "--pmf", "weights:0;1e5_,1", "--a", "1"])
@example(["bound", "--pmf", "weights:0;1,1e-1000000", "--a", "1"])
@example([*FLOAT_OVERFLOW[0], "--float"])
@example([*FLOAT_OVERFLOW[1], "--float"])
def test_any_argv_gives_a_result_or_one_error_line(argv):
    code, out, err = run_main(argv)
    assert code in {0, 2, 3, 4}
    assert "Traceback" not in err
    if code in (3, 4):
        assert out == "" and err.count("\n") == 1


# JSON texts, built from raw tokens so that numbers past the int<->str
# limit or a float's range can be written: wrong types, missing keys,
# nesting, huge integers and exponents.
JSON_TOKEN = st.one_of(
    st.integers(-5, 20).map(str),
    st.sampled_from(["null", "true", "false", "0.25", "-0.0", "1e999", "-1e999", "1e-999",
                     "1E400", "NaN", "Infinity", "9" * 300, BIG, "[]", "{}"]),
    st.sampled_from(["1/2", "3", "1e5000", "1e-5000", "1e1__0", "x", "", "-1"]).map(json.dumps),
    st.text(max_size=4).map(json.dumps),
)
JSON_TEXT = st.recursive(
    JSON_TOKEN,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5).map(lambda xs: f"[{','.join(xs)}]"),
        st.dictionaries(st.sampled_from(['"offset"', '"weights"', '"atoms"', '""']), inner,
                        max_size=3).map(
            lambda d: "{" + ",".join(f"{k}:{v}" for k, v in d.items()) + "}"
        ),
    ),
    max_leaves=20,
)
PMF_FILE = st.one_of(
    st.binary(max_size=40),
    JSON_TEXT.map(str.encode),
    st.tuples(JSON_TEXT, JSON_TEXT).map(
        lambda t: f'{{"offset": {t[0]}, "weights": {t[1]}}}'.encode()
    ),
    st.tuples(st.integers(-5, 5), st.lists(JSON_TOKEN, min_size=1, max_size=20)).map(
        lambda t: f'{{"offset": {t[0]}, "weights": [{",".join(t[1])}]}}'.encode()
    ),
)
INPUT_ARGVS = st.sampled_from([
    ["bound", "--a", "1"],
    ["bound", "--a", "2", "--mode", "two-sided", "--float"],
    ["sweep", "--a", "1..5"],
    ["sweep", "--a", "1..3", "--mode", "two-sided", "--format", "csv"],
    ["decompose"],
    ["decompose", "--kind", "interval"],
])


@settings(max_examples=200, deadline=None)
@given(PMF_FILE, INPUT_ARGVS)
@example(b"\xff\xfe{}", ["bound", "--a", "1"])
@example(b"[" * 100_000 + b"]" * 100_000, ["bound", "--a", "1"])
def test_any_input_file_gives_a_result_or_one_error_line(content, argv):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "pmf.json"
        path.write_bytes(content)
        code, out, err = run_main([*argv, "--input", str(path)])
    assert code in {0, 3, 4}
    assert "Traceback" not in err
    if code in (3, 4):
        assert out == "" and err.count("\n") == 1
