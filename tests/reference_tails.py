"""Reference versions of the library's exact tails.

``tailbounds.dist_core`` reads every exact tail from one suffix table of
the weights.  The functions here compute the same tails the three ways
the library once did: a slice sum for P(X >= a), a filter over every
point for P(|X - mu| >= a), and a table of the weights bucketed by
floor(|k - mu|) for many integer thresholds at once.  Exact agreement
between the two checks the table's lookups.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

from tailbounds import Pmf, ValidationError
from tailbounds.dist_core import RationalLike, as_rational, check_int

from reference_moments import reference_mean


def reference_tail(p: Pmf, a: int) -> Fraction:
    """Exact P(X >= a); 1 when a is at or below the support minimum."""
    check_int(a, "tail threshold")
    idx = max(0, a - p.offset)
    return sum(p.weights[idx:], Fraction(0))


def reference_two_sided_tail(p: Pmf, a: RationalLike) -> Fraction:
    """Exact P(|X - E[X]| >= a) for rational a > 0."""
    a = as_rational(a)
    if a <= 0:
        raise ValidationError("two-sided threshold must be positive")
    mu = reference_mean(p)
    return sum((w for k, w in p.items() if abs(k - mu) >= a), Fraction(0))


def reference_threshold_tails(
    p: Pmf, thresholds: Sequence[int], mu: Optional[Fraction] = None
) -> list[Fraction]:
    """Exact tails at the given integer thresholds, one entry per threshold.

    With ``mu`` None the entry for a is P(X >= a), as :func:`tail` gives
    it; with ``mu`` the mean it is P(|X - mu| >= a), as
    :func:`two_sided_tail` gives it for a >= 1.  One pass over the pmf
    fills a table sized by its support: suffix sums of the weights, or,
    two-sided, the weights bucketed by d = floor(|k - mu|) and summed from
    the far end.  Bucketing is exact because for an integer a,
    |k - mu| >= a exactly when floor(|k - mu|) >= a.  A threshold outside
    the table is clamped to its nearest end, so each one is a single
    lookup and the cost is O(n + len(thresholds)), whatever their values.
    """
    if mu is None:
        shift, mass = p.offset, p.weights
    else:
        num, den = mu.numerator, mu.denominator
        dist = [abs(k * den - num) // den for k, _ in p.items()]
        shift, mass = 0, [Fraction(0)] * (max(dist) + 1)
        for d, w in zip(dist, p.weights):
            mass[d] += w
    # suffix[i] is the mass at table positions i and beyond.
    suffix = [Fraction(0)] * (len(mass) + 1)
    for i in reversed(range(len(mass))):
        suffix[i] = suffix[i + 1] + mass[i]
    return [suffix[min(max(a - shift, 0), len(mass))] for a in thresholds]
