"""The bound catalogue: classical, continuous-smoothed, and sharpened discrete.

Every formula is computed in exact rationals.  The continuous ones, over
moment summaries, round that exact value once to the nearest float.  Raw
formula values may exceed 1 - clamping is left to presentation layers so
the algebraic identities between bounds remain exact.
"""
from __future__ import annotations

import enum
from fractions import Fraction
from typing import Union

from ._modes import TailMode
from ._record import Record, replace
from .dist_core import (
    Pmf,
    RationalLike,
    ShapeReport,
    _moments,
    _nearest_float,
    _render_rational,
    as_rational,
    check_int,
    check_sign,
    shape,
)
from .errors import ValidationError


class Formula(enum.Enum):
    MARKOV_CLASSICAL = "MarkovClassical"
    CHEBYSHEV_CLASSICAL = "ChebyshevClassical"
    MARKOV_DECREASING_DISCRETE = "MarkovDecreasingDiscrete"
    CHEBYSHEV_UNIMODAL_DISCRETE = "ChebyshevUnimodalDiscrete"
    MARKOV_CONTINUOUS_DECREASING = "MarkovContinuousDecreasing"
    CHEBYSHEV_CONTINUOUS_UNIMODAL = "ChebyshevContinuousUnimodal"


class BoundResult(Record):
    """A bound value plus the facts that licensed the formula.

    ``verified`` lists preconditions this library actually checked;
    ``asserted`` lists conditions the caller vouched for (the continuous
    formulas cannot check density shape from moment summaries).
    """

    value: Union[Fraction, float]
    formula: Formula
    verified: tuple[str, ...] = ()
    asserted: tuple[str, ...] = ()

    def to_dict(self, exact: bool = True) -> dict:
        return {
            "formula": self.formula.value,
            "value": _render_rational(self.value, exact),
            "verified": list(self.verified),
            "asserted": list(self.asserted),
        }


def markov_classical(mu: RationalLike, a: RationalLike) -> BoundResult:
    """P(|X| >= a) <= E|X| / a."""
    a = check_sign(as_rational(a), "threshold a", strict=True)
    mu = check_sign(as_rational(mu), "E|X|")
    return BoundResult(
        value=mu / a,
        formula=Formula.MARKOV_CLASSICAL,
        verified=("a > 0", "E|X| >= 0"),
    )


def chebyshev_classical(var: RationalLike, a: RationalLike) -> BoundResult:
    """P(|X - E[X]| >= a) <= V(X) / a^2."""
    a = check_sign(as_rational(a), "threshold a", strict=True)
    var = check_sign(as_rational(var), "variance")
    return BoundResult(
        value=var / a**2,
        formula=Formula.CHEBYSHEV_CLASSICAL,
        verified=("a > 0", "V(X) >= 0"),
    )


def markov_decreasing(mu: RationalLike, a: int) -> BoundResult:
    """P(X >= a) <= E[X] / (2a - 1) for decreasing pmfs on {0,1,...}."""
    check_int(a, "threshold a", 1)
    mu = check_sign(as_rational(mu), "mean")
    return BoundResult(
        value=mu / (2 * a - 1),
        formula=Formula.MARKOV_DECREASING_DISCRETE,
        verified=("a >= 1 integer", "E[X] >= 0"),
    )


def chebyshev_unimodal(var: RationalLike, a: int) -> BoundResult:
    """P(|X - E[X]| >= a) <= (V(X) + 1/12) / (2 (a - 1/2)^2) for unimodal pmfs."""
    check_int(a, "threshold a", 1)
    var = check_sign(as_rational(var), "variance")
    return BoundResult(
        value=(var + Fraction(1, 12)) / (2 * (a - Fraction(1, 2)) ** 2),
        formula=Formula.CHEBYSHEV_UNIMODAL_DISCRETE,
        verified=("a >= 1 integer", "V(X) >= 0"),
    )


def markov_continuous_decreasing(mu: RationalLike, a: RationalLike) -> BoundResult:
    """P(X >= a) <= E[X] / (2a) for continuous X with decreasing density, as the nearest float."""
    a = check_sign(as_rational(a), "threshold a", strict=True)
    mu = check_sign(as_rational(mu), "mean")
    return BoundResult(
        value=_nearest_float(mu / (2 * a)),
        formula=Formula.MARKOV_CONTINUOUS_DECREASING,
        verified=("a > 0", "E[X] >= 0"),
        asserted=("nonnegative continuous with decreasing density (asserted, not verified)",),
    )


def chebyshev_continuous_unimodal(var: RationalLike, a: RationalLike) -> BoundResult:
    """P(|X - E[X]| >= a) <= V(X) / (2 a^2) under the half-interval density conditions.

    The value is the float nearest V(X) / (2 a^2).
    """
    a = check_sign(as_rational(a), "threshold a", strict=True)
    var = check_sign(as_rational(var), "variance")
    return BoundResult(
        value=_nearest_float(var / (2 * a * a)),
        formula=Formula.CHEBYSHEV_CONTINUOUS_UNIMODAL,
        verified=("a > 0", "V(X) >= 0"),
        asserted=(
            "density decreasing on [a/2, 3a/2] and increasing on [-3a/2, -a/2] "
            "about the mean (asserted, not verified)",
        ),
    )


class _PmfTerms(Record):
    """What the bounds need from one pmf, whatever the threshold and the tail mode."""

    report: ShapeReport
    mean: Fraction
    abs_mean: Fraction
    variance: Fraction


def _pmf_terms(p: Pmf) -> _PmfTerms:
    """Per-pmf step of :func:`best_bound`: one :func:`shape` and one :func:`_moments` pass."""
    return _PmfTerms(shape(p), *_moments(p))


def _bounds_at(terms: _PmfTerms, a: int, mode: TailMode) -> list[BoundResult]:
    """Per-threshold step of :func:`best_bound`: every bound for ``mode`` at ``a``, ascending."""
    check_int(a, "threshold a", 1)
    report = terms.report
    if mode is TailMode.ONE_SIDED_UPPER:
        r = markov_classical(terms.abs_mean, a)
        results = [replace(r, verified=r.verified + ("E|X| computed exactly",))]
        if report.is_decreasing:
            r = markov_decreasing(terms.mean, a)
            results.append(
                replace(r, verified=r.verified + ("pmf decreasing on {0,1,...} (verified)",))
            )
    elif mode is TailMode.TWO_SIDED:
        results = [chebyshev_classical(terms.variance, a)]
        if report.is_unimodal:
            r = chebyshev_unimodal(terms.variance, a)
            results.append(
                replace(r, verified=r.verified + (f"pmf unimodal with mode {report.mode} (verified)",))
            )
    else:
        raise ValidationError(f"unknown tail mode: {mode!r}")
    results.sort(key=lambda r: r.value)
    return results


def best_bound(p: Pmf, a: int, mode: TailMode = TailMode.ONE_SIDED_UPPER) -> list[BoundResult]:
    """Every applicable bound for the pmf, sorted ascending by value.

    Classical bounds always apply; the sharpened discrete ones are
    included only when the relevant shape predicate verifies.  The first
    element is the best provable bound.

    This is :func:`_pmf_terms` (shape and moments, once per pmf) followed
    by :func:`_bounds_at` (the formulas at ``a``), so a caller with many
    thresholds can run the first step once.  ``a`` is checked before the
    pmf is read, so a bad threshold is reported ahead of a bad mode.
    """
    check_int(a, "threshold a", 1)
    return _bounds_at(_pmf_terms(p), a, mode)
