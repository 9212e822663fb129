"""Command-line front end.

Subcommands: ``bound``, ``decompose``, ``extremal``, ``verify``,
``sweep``.  Output is JSON; ``bound``, ``verify`` and ``sweep`` take
``--format csv`` too, and ``bound`` ``--format plain``.  Exit
codes: 0 ok, 1 stdout closed before the output was written, 2 usage,
3 validation, 4 infeasible, 5 soundness violation (an oracle beat a
proven bound or failed its certificate check, or a construction missed
its bound, i.e. a bug).
"""
from __future__ import annotations

import argparse
import re
import sys
from typing import TYPE_CHECKING, Optional, Sequence, Union

from . import __version__
from ._modes import TailMode
from .errors import TailBoundsError, ValidationError

if TYPE_CHECKING:
    from fractions import Fraction

    from .bounds import BoundResult, _PmfTerms
    from .dist_core import Pmf

# Each runner imports the library modules it calls when it runs, so a
# command loads only what it uses and ``--version`` loads none of them.

# Most thresholds one ``--a lo..hi`` range may hold.
_MAX_RANGE_VALUES = 10_000
# Most points a ``uniform:l..r`` literal may span, most weights a
# ``weights:`` literal or ``--input`` file may hold, and the largest
# ``verify --N``.
_MAX_POINTS = 100_000
# Most (a, mu) cells one ``verify`` grid may hold: each runs one oracle,
# whose work does not grow with N, and writes one row.
_MAX_VERIFY_CELLS = 50_000


def _check_points(source: str, count: int) -> None:
    if count > _MAX_POINTS:
        raise ValidationError(f"{source}: {count} points; at most {_MAX_POINTS} are allowed")


def parse_pmf_literal(text: str) -> Pmf:
    """Parse ``uniform:l..r``, ``point:k`` or ``weights:o;w0,w1,...``.

    Weight tokens are rationals like ``1/2``, ``3`` or ``0.25``.
    """
    from .dist_core import INT_PATTERN, as_rational, make_pmf, point_pmf, uniform_pmf

    kind, sep, body = text.partition(":")
    if not sep:
        raise ValidationError(
            f"pmf literal {text!r}: expected 'kind:...' (missing ':' after position 0)"
        )
    pos = len(kind) + 1
    if kind == "uniform":
        m = re.fullmatch(rf"({INT_PATTERN})\.\.({INT_PATTERN})", body)
        if not m:
            raise ValidationError(
                f"pmf literal {text!r}: expected 'l..r' at position {pos}"
            )
        lo, hi = int(m.group(1)), int(m.group(2))
        if lo > hi:
            raise ValidationError(f"pmf literal {text!r}: empty range {lo}..{hi}")
        _check_points(f"pmf literal {text!r}", hi - lo + 1)
        return uniform_pmf(lo, hi)
    if kind == "point":
        if not re.fullmatch(INT_PATTERN, body):
            raise ValidationError(
                f"pmf literal {text!r}: expected an integer at position {pos}"
            )
        return point_pmf(int(body))
    if kind == "weights":
        offset_text, sep2, weights_text = body.partition(";")
        if not sep2:
            raise ValidationError(
                f"pmf literal {text!r}: expected 'offset;w0,w1,...' at position {pos}"
            )
        if not re.fullmatch(INT_PATTERN, offset_text):
            raise ValidationError(
                f"pmf literal {text!r}: offset must be an integer at position {pos}"
            )
        tokens = weights_text.split(",")
        _check_points(f"pmf literal {text!r}", len(tokens))
        weights = []
        cursor = pos + len(offset_text) + 1
        for token in tokens:
            try:
                weights.append(as_rational(token.strip()))
            except ValidationError as exc:
                raise ValidationError(
                    f"pmf literal {text!r}: bad weight {token!r} at position {cursor}: {exc}"
                ) from exc
            cursor += len(token) + 1
        return make_pmf(int(offset_text), weights)
    raise ValidationError(
        f"pmf literal {text!r}: unknown kind {kind!r} (want uniform|point|weights)"
    )


def _load_pmf(args: argparse.Namespace) -> Pmf:
    import json

    from .dist_core import Pmf

    sources = [s for s in (args.pmf, args.input) if s is not None]
    if len(sources) != 1:
        raise ValidationError("exactly one of --pmf or --input is required")
    if args.pmf is not None:
        return parse_pmf_literal(args.pmf)
    if "\0" in args.input:
        # open() raises a bare ValueError for it; repr keeps the message one line.
        raise ValidationError(f"cannot read {args.input!r}: a path cannot hold a NUL character")
    try:
        with open(args.input, encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read {args.input}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ValidationError(f"{args.input} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ValidationError(f"{args.input} nests too deeply to read: {exc}") from exc
    if isinstance(obj, dict) and isinstance(obj.get("weights"), list):
        _check_points(args.input, len(obj["weights"]))
    return Pmf.from_dict(obj)


def _parse_int_range(text: str) -> list[int]:
    from .dist_core import INT_PATTERN

    m = re.fullmatch(rf"({INT_PATTERN})(?:\.\.({INT_PATTERN}))?", text)
    if not m:
        raise ValidationError(f"expected an integer or 'lo..hi' range, got {text!r}")
    lo = int(m.group(1))
    hi = int(m.group(2)) if m.group(2) else lo
    if lo > hi:
        raise ValidationError(f"empty range {text!r}")
    if hi - lo + 1 > _MAX_RANGE_VALUES:
        raise ValidationError(
            f"range {text!r} has {hi - lo + 1} values; at most {_MAX_RANGE_VALUES} are allowed"
        )
    return list(range(lo, hi + 1))


def _int_option(text: str) -> int:
    """:func:`read_int` as an argparse type, refused as argparse refuses ``int``."""
    from .dist_core import read_int

    try:
        return read_int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from exc


def _parse_rational_list(text: str) -> list[Fraction]:
    from .dist_core import as_rational

    return [as_rational(tok.strip()) for tok in text.split(",")]


def _clamped(value: Union[Fraction, float]) -> str:
    # Presentation-side clamp for the plain format only.
    if value > 1:
        return "1 *"
    return str(value)


def _tail_rows(
    pmf: Pmf, thresholds: list[int], mode: TailMode
) -> tuple[_PmfTerms, list[tuple[int, Fraction, list[BoundResult]]]]:
    """The pmf's terms and one ``(a, exact tail, bounds)`` row per threshold.

    The CLI's one bound table: shape, moments and tails are computed once
    per pmf, whatever the number of thresholds and the tail ``mode``.
    """
    from .bounds import _bounds_at, _pmf_terms
    from .dist_core import _threshold_tails

    terms = _pmf_terms(pmf)
    centre = terms.mean if mode is TailMode.TWO_SIDED else None
    tails = _threshold_tails(pmf, thresholds, centre)
    return terms, [(a, t, _bounds_at(terms, a, mode)) for a, t in zip(thresholds, tails)]


def _run_bound(args: argparse.Namespace) -> str:
    import json

    from .dist_core import _render_rational

    mode = TailMode(args.mode)
    terms, [(a, exact_tail, results)] = _tail_rows(_load_pmf(args), [args.a], mode)
    exact = not args.as_float
    if args.format == "json":
        payload = {
            "a": a,
            "mode": mode.value,
            "exact_tail": _render_rational(exact_tail, exact),
            "mean": _render_rational(terms.mean, exact),
            "variance": _render_rational(terms.variance, exact),
            "bounds": [r.to_dict(exact) for r in results],
        }
        return json.dumps(payload, indent=2)
    if args.format == "csv":
        lines = ["formula,value", f"ExactTail,{_render_rational(exact_tail, exact)}"]
        lines.extend(f"{r.formula.value},{_render_rational(r.value, exact)}" for r in results)
        return "\n".join(lines)
    one_sided = mode is TailMode.ONE_SIDED_UPPER
    tail_label = f"P(X >= {a})" if one_sided else f"P(|X - E[X]| >= {a})"
    lines = [f"exact tail {tail_label} = {exact_tail}"]
    width = max(len(r.formula.value) for r in results)
    lines.extend(f"{r.formula.value:<{width}}  {_clamped(r.value)}" for r in results)
    return "\n".join(lines)


def _run_decompose(args: argparse.Namespace) -> str:
    import json

    from .decompose import to_uniform_mixture, unimodal_to_interval_mixture

    pmf = _load_pmf(args)
    if args.kind == "interval":
        mixture = unimodal_to_interval_mixture(pmf)
    else:
        mixture = to_uniform_mixture(pmf)
    return json.dumps(mixture.to_dict(), indent=2)


def _run_extremal(args: argparse.Namespace) -> str:
    import json

    from .dist_core import as_rational
    from .extremal import extremal_markov_continuous, extremal_markov_discrete

    mu = as_rational(args.mu)
    if args.kind == "continuous":
        if args.as_float:
            raise ValidationError("--float applies only to --kind discrete")
        if args.epsilon is None:
            raise ValidationError("--epsilon is required for the continuous construction")
        spec = extremal_markov_continuous(args.a, mu, args.epsilon)
    else:
        if args.epsilon is not None:
            raise ValidationError("--epsilon applies only to --kind continuous")
        spec = extremal_markov_discrete(args.a, mu)
    return json.dumps(spec.to_dict(not args.as_float), indent=2)


def _run_verify(args: argparse.Namespace) -> str:
    import json

    from .extremal import (
        tightness_rows_to_csv,
        tightness_rows_to_json,
        verify_tightness_theorem2,
    )

    a_values = _parse_int_range(args.a)
    mu_values = _parse_rational_list(args.mu)
    if args.N > _MAX_POINTS:
        raise ValidationError(f"--N {args.N} is too large; at most {_MAX_POINTS} is allowed")
    cells = len(a_values) * len(mu_values)
    if cells > _MAX_VERIFY_CELLS:
        raise ValidationError(
            f"verify grid has {cells} (a, mu) cells; at most {_MAX_VERIFY_CELLS} are allowed"
        )
    rows = verify_tightness_theorem2(a_values, mu_values, args.N)
    if args.format == "csv":
        return tightness_rows_to_csv(rows).rstrip("\n")
    return json.dumps(tightness_rows_to_json(rows), indent=2)


def _run_sweep(args: argparse.Namespace) -> str:
    import json

    from .dist_core import _render_rational

    # No row below a = 1, which has no bound. The range is capped before the pmf is built.
    thresholds = [a for a in _parse_int_range(args.a) if a >= 1]
    _, table = _tail_rows(_load_pmf(args), thresholds, TailMode(args.mode))
    exact = not args.as_float
    rows = [
        {
            "a": a,
            "exact_tail": _render_rational(t, exact),
            "formula": r.formula.value,
            "bound": _render_rational(r.value, exact),
            "ratio": _render_rational(r.value / t, exact) if t > 0 else None,
        }
        for a, t, results in table
        for r in results
    ]
    if args.format == "json":
        return json.dumps(rows, indent=2)
    lines = ["a,exact_tail,formula,bound,ratio"]
    lines.extend(",".join("" if v is None else str(v) for v in row.values()) for row in rows)
    return "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tailbounds",
        description="Tail bounds for shape-constrained discrete distributions.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    modes = [mode.value for mode in TailMode]

    def add_pmf_opts(p: argparse.ArgumentParser) -> None:
        p.add_argument("--pmf", help="inline literal: uniform:l..r | point:k | weights:o;w0,w1,...")
        p.add_argument("--input", help="path to a pmf JSON file {offset, weights}")

    def add_format(p: argparse.ArgumentParser, choices=("json", "csv", "plain")) -> None:
        p.add_argument("--format", choices=choices, default="json")

    def add_float(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--float", action="store_true", dest="as_float",
            help="render rationals as decimals instead of num/den",
        )

    p = sub.add_parser("bound", help="exact tail plus every applicable bound")
    p.set_defaults(run=_run_bound)
    add_pmf_opts(p)
    p.add_argument("--a", required=True, type=_int_option)
    p.add_argument("--mode", choices=modes, default=TailMode.ONE_SIDED_UPPER.value)
    add_format(p)
    add_float(p)

    p = sub.add_parser("decompose", help="mixture decomposition of a shaped pmf")
    p.set_defaults(run=_run_decompose)
    add_pmf_opts(p)
    p.add_argument("--kind", choices=["uniform", "interval"], default="uniform")

    p = sub.add_parser("extremal", help="construct a worst-case distribution")
    p.set_defaults(run=_run_extremal)
    p.add_argument("--kind", choices=["discrete", "continuous"], default="discrete")
    p.add_argument("--a", required=True, type=_int_option)
    p.add_argument("--mu", required=True)
    p.add_argument("--epsilon")
    add_float(p)

    p = sub.add_parser("verify", help="tightness sweep of the sharpened Markov bound")
    p.set_defaults(run=_run_verify)
    p.add_argument("--a", required=True, help="integer or range lo..hi")
    p.add_argument("--mu", required=True, help="comma-separated rationals")
    p.add_argument("--N", required=True, type=_int_option, help="support cap for the oracle")
    add_format(p, choices=("json", "csv"))

    p = sub.add_parser("sweep", help="bound-vs-exact-tail ratios across thresholds")
    p.set_defaults(run=_run_sweep)
    add_pmf_opts(p)
    p.add_argument("--a", required=True, help="integer or range lo..hi")
    p.add_argument("--mode", choices=modes, default=TailMode.ONE_SIDED_UPPER.value)
    add_format(p, choices=("json", "csv"))
    add_float(p)

    return parser


# The options that take a value, each of which may start with ``-``.
_VALUE_OPTIONS = frozenset("--a --epsilon --format --input --kind --mode --mu --N --pmf".split())


def _join_option_values(argv: Sequence[str]) -> list[str]:
    """``--opt -X`` as ``--opt=-X`` after each option that takes a value.

    argparse reads a lone token that starts with ``-`` and is not a plain
    negative number, such as ``-1/2`` or the range ``-1..7``, as an option.
    """
    joined: list[str] = []
    for token in argv:
        if joined and joined[-1] in _VALUE_OPTIONS and re.match(r"-[^-]", token):
            joined[-1] = f"{joined[-1]}={token}"
        else:
            joined.append(token)
    return joined


def _write(text: str) -> int:
    """Write ``text`` to stdout and return the exit code: 0, or 1 if stdout is closed."""
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout early, as ``| head -1`` does.  Point
        # stdout at devnull so that the flush at exit does not fail again,
        # and exit 1, as Python does on EPIPE.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    import contextlib
    import io

    # argparse writes --help and --version itself and drops any OSError,
    # so their text is caught here and written like every other output.
    shown = io.StringIO()
    try:
        with contextlib.redirect_stdout(shown):
            args = build_parser().parse_args(
                _join_option_values(sys.argv[1:] if argv is None else argv)
            )
    except SystemExit as exc:
        if exc.code != 0:
            raise
        return _write(shown.getvalue())
    try:
        output = args.run(args)
    except TailBoundsError as exc:
        print(f"{exc.label}: {exc}", file=sys.stderr)
        return exc.exit_code
    except ValueError as exc:
        # Raised by int(text) or str(n) past Python's int<->str limit: an
        # integer token of a pmf literal, a range or --input JSON, or an
        # exact result while it is rendered.
        if "integer string conversion" not in str(exc):
            raise
        print(
            f"error: a number has more than {sys.get_int_max_str_digits()} digits,"
            " past Python's int<->str conversion limit",
            file=sys.stderr,
        )
        return ValidationError.exit_code
    return _write(output + "\n")


if __name__ == "__main__":
    sys.exit(main())
