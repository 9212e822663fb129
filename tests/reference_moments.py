"""Reference versions of the library's exact moments.

``tailbounds.dist_core._moments`` reads E[X], E|X| and V(X) from one
integer pass, with V(X) = E[X^2] - E[X]^2, and ``mean`` and ``variance``
return its values.  The functions here compute all three the ways the
library once did: E[X] as a Fraction sum over the atoms, E|X| from E[X]
and the atoms below 0, and V(X) as a sum of squared deviations about
the mean.  Exact agreement between the two checks the one-pass sums.
"""
from __future__ import annotations

from fractions import Fraction

from tailbounds import Pmf


def reference_mean(p: Pmf) -> Fraction:
    """Exact expectation."""
    return sum((w * k for k, w in p.items()), Fraction(0))


def reference_abs_mean(p: Pmf, mu: Fraction) -> Fraction:
    """Exact E|X| when ``mu`` is the mean."""
    # E|X| = E[X] - 2 E[X; X < 0], so only the atoms below 0 are read again.
    below = sum((w * k for k, w in zip(range(p.offset, 0), p.weights)), Fraction(0))
    return mu - 2 * below


def reference_variance_about(p: Pmf, mu: Fraction) -> Fraction:
    """Exact E[(X - mu)^2]; the variance when ``mu`` is the mean."""
    return sum((w * (k - mu) ** 2 for k, w in p.items()), Fraction(0))
