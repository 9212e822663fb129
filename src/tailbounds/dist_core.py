"""Exact finite-support distributions on the integers.

Everything in this module is exact rational arithmetic.  Weights are
stored as `fractions.Fraction`; the one moment pass, behind both
:func:`mean` and :func:`variance`, and the one tail table, behind
:func:`tail` and :func:`two_sided_tail`, rescale them to integer
numerators over their common denominator, sum integers and return exact
Fractions.  Moments, tails and shape predicates are computed exactly,
so downstream equality checks (bound tightness, decomposition
roundtrips) are genuine equalities rather than tolerance comparisons.
"""
from __future__ import annotations

import math
import re
import sys
from fractions import Fraction
from typing import Iterator, Optional, Sequence, Union

from ._record import Record
from .errors import ValidationError

RationalLike = Union[int, float, str, Fraction]

# An integer written as text: an optional "-" and ASCII digits, leading zeros allowed.
INT_PATTERN = r"-?[0-9]+"

# Largest decimal exponent, in size, that ``as_rational`` reads from a
# string: ``Fraction("1e<e>")`` builds 10**e in full before checking it.
_MAX_EXPONENT = 10_000


def check_int(value: object, name: str, minimum: Optional[int] = None) -> None:
    """Raise ValidationError unless ``value`` is an int, not a bool, and >= ``minimum``.

    The message reads "<name> must be an integer" plus " >= <minimum>"
    when a minimum is given.
    """
    if (
        isinstance(value, bool)
        or not isinstance(value, int)
        or (minimum is not None and value < minimum)
    ):
        at_least = "" if minimum is None else f" >= {minimum}"
        raise ValidationError(f"{name} must be an integer{at_least}")


def check_sign(value: Fraction, name: str, strict: bool = False) -> Fraction:
    """``value`` if it is > 0 (``strict``) or >= 0, else ValidationError."""
    if not (value > 0 if strict else value >= 0):
        raise ValidationError(f"{name} must be {'positive' if strict else 'nonnegative'}")
    return value


def read_int(text: str) -> int:
    """``text`` as an int if it matches :data:`INT_PATTERN`, else ValidationError.

    Unlike ``int()``, refuses ``+3``, ``1_0``, `` 7 `` and non-ASCII digits;
    past the int<->str digit limit, ``int()``'s own ValueError comes through.
    """
    if not re.fullmatch(INT_PATTERN, text):
        raise ValidationError(f"not an integer: {text!r}")
    return int(text)


def as_rational(value: RationalLike) -> Fraction:
    """Coerce ints, Fractions, floats and ASCII strings like ``2/3`` or ``0.5``.

    ``bool`` is rejected: ``True`` is not a rational input, and so are a
    string that holds a non-ASCII character (``Fraction`` would read
    non-ASCII digits) and a string whose decimal exponent is above
    ``_MAX_EXPONENT`` in size.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool) or isinstance(value, str) and not value.isascii():
        raise ValidationError(f"not a rational number: {value!r}")
    try:
        # Fraction's own exponent grammar: int() fails only past the digit limit.
        exp = re.search(r"[eE]([-+]?\d+(?:_\d+)*)", value) if isinstance(value, str) else None
        if exp and abs(int(exp[1])) > _MAX_EXPONENT:
            raise ValidationError(f"an exponent must be at most {_MAX_EXPONENT} in size")
        return Fraction(value)
    except ValidationError:
        raise
    except (ValueError, ZeroDivisionError, TypeError, OverflowError) as exc:
        raise ValidationError(f"not a rational number: {value!r}") from exc


def _checked_weights(weights: object) -> tuple[Fraction, ...]:
    """pmf weights, a nonempty list or tuple of nonnegative rationals, as a tuple of Fractions."""
    if not isinstance(weights, (list, tuple)):
        raise ValidationError(f"pmf weights must be a list or tuple; got {type(weights).__name__}")
    ws = tuple([as_rational(w) for w in weights])
    if not ws:
        raise ValidationError("pmf needs at least one weight")
    check_sign(min(ws), "pmf weights")
    return ws


def _nearest_float(value: Fraction, name: str = "a result") -> float:
    """The float nearest ``value``: the one place an exact value becomes a float.

    ``float`` of a Fraction is correctly rounded, so a positive value below
    the smallest float reads 0.0; one past the float range is refused.
    """
    try:
        return float(value)
    except OverflowError as exc:
        raise ValidationError(f"{name} is too large for a float") from exc


def _shown(value: object) -> str:
    """``str(value)`` for an error message, or a placeholder past the digit limit.

    ``str`` of an integer, or of a rational or tuple holding one, with more
    digits than ``sys.get_int_max_str_digits()`` raises ValueError; a
    message that names such a value says how long it is instead.
    """
    try:
        return str(value)
    except ValueError:
        return f"<a number of more than {sys.get_int_max_str_digits()} digits>"


def _render_rational(value: Union[Fraction, float], exact: bool) -> Union[str, float]:
    """JSON form of a result: ``"num/den"``, or the nearest float when not ``exact``.

    Float results (the continuous formulas) are already rounded and pass through.
    """
    if isinstance(value, Fraction):
        return str(value) if exact else _nearest_float(value)
    return value


class Pmf(Record):
    """Finite-support pmf on the integers with exact rational weights.

    ``weights[k]`` is the probability of ``offset + k``.  Canonical form:
    weights sum to exactly one and the first and last weight are nonzero,
    so structurally equal pmfs are equal distributions and vice versa.
    Use :func:`make_pmf` rather than the raw constructor; it trims and
    rescales arbitrary weight lists.  The raw constructor checks the offset
    and stores the weights, a list or tuple, as a tuple coerced by
    :func:`as_rational`.
    """

    offset: int
    weights: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        check_int(self.offset, "pmf offset")
        object.__setattr__(self, "weights", _checked_weights(self.weights))
        if sum(self.weights) != 1:
            raise ValidationError("pmf weights must sum to exactly 1")
        if self.weights[0] == 0 or self.weights[-1] == 0:
            raise ValidationError(
                "pmf weights must have nonzero endpoints (use make_pmf)"
            )

    @property
    def support_min(self) -> int:
        return self.offset

    @property
    def support_max(self) -> int:
        return self.offset + len(self.weights) - 1

    def probability(self, k: int) -> Fraction:
        check_int(k, "probability point")
        idx = k - self.offset
        if 0 <= idx < len(self.weights):
            return self.weights[idx]
        return Fraction(0)

    def items(self) -> Iterator[tuple[int, Fraction]]:
        for idx, w in enumerate(self.weights):
            yield self.offset + idx, w

    def to_dict(self) -> dict:
        """JSON form: ``{"offset": int, "weights": ["num/den", ...]}``."""
        return {"offset": self.offset, "weights": [str(w) for w in self.weights]}

    @classmethod
    def from_dict(cls, obj: dict) -> "Pmf":
        try:
            offset = obj["offset"]
            raw = obj["weights"]
        except (TypeError, KeyError) as exc:
            raise ValidationError(
                "pmf JSON must be an object with 'offset' and 'weights'"
            ) from exc
        check_int(offset, "pmf 'offset'")
        if not isinstance(raw, (list, tuple)):
            raise ValidationError("pmf 'weights' must be an array of weights")
        return make_pmf(offset, raw)


class ShapeReport(Record):
    """Shape predicates of a pmf.

    ``is_decreasing`` is only meaningful for distributions on the
    nonnegative integers starting at 0; ``mode`` is the smallest position
    witnessing unimodality.
    """

    is_decreasing: bool
    is_unimodal: bool
    mode: Optional[int]


def make_pmf(offset: int, weights: Sequence[RationalLike]) -> Pmf:
    """Build a canonical pmf, rescaling a list or tuple of weights by their exact sum."""
    check_int(offset, "offset")
    ws = _checked_weights(weights)
    total = sum(ws)
    if total == 0:
        raise ValidationError("pmf weights must not all be zero")
    lo = 0
    while ws[lo] == 0:
        lo += 1
    hi = len(ws)
    while ws[hi - 1] == 0:
        hi -= 1
    return Pmf(offset + lo, tuple(w / total for w in ws[lo:hi]))


def uniform_pmf(lo: int, hi: int) -> Pmf:
    """Discrete uniform on {lo..hi}: hi - lo + 1 weights, so the cost grows with hi - lo."""
    check_int(lo, "uniform lower end")
    check_int(hi, "uniform upper end")
    if lo > hi:
        raise ValidationError(f"empty support {{{_shown(lo)}..{_shown(hi)}}}")
    return make_pmf(lo, [1] * (hi - lo + 1))


def point_pmf(k: int) -> Pmf:
    """Point mass at k."""
    return make_pmf(k, [1])


def mean(p: Pmf) -> Fraction:
    """Exact expectation, the first value of :func:`_moments`."""
    return _moments(p)[0]


def variance(p: Pmf) -> Fraction:
    """Exact second central moment, the third value of :func:`_moments`."""
    return _moments(p)[2]


def _common_denominator(p: Pmf) -> tuple[int, list[int]]:
    """The weights as ``(den, nums)`` with ``weights[i] == nums[i] / den``.

    ``den`` is the lcm of the weights' denominators, so every ``nums[i]`` is an int.
    """
    den = math.lcm(*[w.denominator for w in p.weights])
    return den, [w.numerator * (den // w.denominator) for w in p.weights]


def _moments(p: Pmf) -> tuple[Fraction, Fraction, Fraction]:
    """Exact E[X], E|X| = E[X] - 2 E[X; X < 0] and V(X) = E[X^2] - E[X]^2, in one pass.

    The pass sums integers: m1, m2 and below are den times E[X], E[X^2]
    and E[X; X < 0], so V(X) = (den m2 - m1^2) / den^2.
    """
    den, nums = _common_denominator(p)
    m1 = m2 = below = 0
    for k, c in enumerate(nums, p.offset):
        ck = c * k
        m1 += ck
        m2 += ck * k
        if k < 0:
            below += ck
    return (Fraction(m1, den), Fraction(m1 - 2 * below, den),
            Fraction(den * m2 - m1 * m1, den * den))


def tail(p: Pmf, a: int) -> Fraction:
    """Exact P(X >= a); 1 when a is at or below the support minimum."""
    check_int(a, "tail threshold")
    return _threshold_tails(p, [a])[0]


def two_sided_tail(p: Pmf, a: RationalLike) -> Fraction:
    """Exact P(|X - E[X]| >= a) for rational a > 0."""
    a = check_sign(as_rational(a), "two-sided threshold", strict=True)
    return _threshold_tails(p, [a], mean(p))[0]


def _threshold_tails(
    p: Pmf, thresholds: Sequence[Union[int, Fraction]], mu: Optional[Fraction] = None
) -> list[Fraction]:
    """Exact tails at the given thresholds, one entry per threshold.

    With ``mu`` None the entry for an integer a is P(X >= a), as
    :func:`tail` gives it; with ``mu`` the mean it is P(|X - mu| >= a) for
    a rational a > 0, as :func:`two_sided_tail` gives it, and 1 for a <= 0.
    Every entry is read from one suffix table of the weights' integer
    numerators over their common denominator den (see
    :func:`_common_denominator`), and becomes one Fraction over den: on
    the integers, |X - mu| >= a > 0 exactly when X >= ceil(mu + a) or
    X <= floor(mu - a), and P(X <= m) = 1 - P(X >= m + 1), so den times
    that tail is at_least(ceil(mu + a)) + den - at_least(floor(mu - a) + 1).
    A lookup outside the table is clamped to its nearest end, so the cost
    is O(n + len(thresholds)), whatever the thresholds' values.
    """
    den, nums = _common_denominator(p)
    n = len(nums)
    suffix = [0] * (n + 1)
    for i in reversed(range(n)):
        suffix[i] = suffix[i + 1] + nums[i]

    def at_least(k: int) -> int:
        return suffix[min(max(k - p.offset, 0), n)]

    if mu is None:
        return [Fraction(at_least(a), den) for a in thresholds]
    return [
        Fraction(at_least(math.ceil(mu + a)) + den - at_least(math.floor(mu - a) + 1), den)
        if a > 0 else Fraction(1)
        for a in thresholds
    ]


def shape(p: Pmf) -> ShapeReport:
    """Detect decreasing / unimodal structure.

    Uses non-strict inequalities: a pmf is decreasing when it starts at 0
    and each weight is <= its predecessor, unimodal when some mode splits
    the weights into a nondecreasing run followed by a nonincreasing run.
    The reported mode is the smallest valid one.
    """
    w = p.weights
    n = len(w)
    # Smallest index from which the weights are nonincreasing.
    dec_start = n - 1
    while dec_start > 0 and w[dec_start - 1] >= w[dec_start]:
        dec_start -= 1
    # Largest index up to which the weights are nondecreasing.
    inc_end = 0
    while inc_end < n - 1 and w[inc_end] <= w[inc_end + 1]:
        inc_end += 1
    unimodal = dec_start <= inc_end
    mode = p.offset + dec_start if unimodal else None
    decreasing = p.offset == 0 and dec_start == 0
    return ShapeReport(is_decreasing=decreasing, is_unimodal=unimodal, mode=mode)
