"""Brute-force reference oracles for cross-checking the library's LP oracles.

These enumerate basic feasible solutions directly: bracketing atom pairs
for the decreasing problem, and singles, pairs and triples of intervals
with a common point for the two-sided unimodal problem.  They are slow
(O(N * 2mu) and O(N^6)) but share no solver code with
``tailbounds.extremal``, so exact agreement between the two is evidence
that both are right.

``hull_max_tail_decreasing`` is the step-by-step form of the decreasing
oracle's closed-form edge: it builds the upper concave envelope with a
monotone-chain scan (``_upper_hull``) and takes the edge that brackets
2mu, as the library oracle did before it picked that edge directly.  It
builds all N + 1 columns (``decreasing_columns``) and checks the line
through that edge against every one of them, as the library oracle did
before it read only the columns where the dual slack can be least;
``decreasing_dual_feasible`` is that full scan on its own.

``simplex_max_two_sided_unimodal`` is the unpruned form of the two-sided
oracle: it runs the library's simplex on every common point from the
lowest up, and the first c wins ties.  It shares the solver, so it
checks the pruning and the tie rule, not the simplex itself.
``tangent_farkas_vector`` is a pruned point's certificate, read off the
quadratic it stands for rather than taken from the library's expansion.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional, Sequence

from tailbounds import (
    InfeasibleError,
    IntervalMixture,
    OracleResult,
    UniformMixture,
    ValidationError,
    as_rational,
)
from tailbounds.dist_core import check_int, check_sign
from tailbounds.extremal import Column, _check_certificate, _simplex


def reference_max_tail_decreasing(a: int, mu, N: int) -> OracleResult:
    """Maximize P(X >= a) over decreasing pmfs on {0..N} with mean mu.

    Enumerates every atom pair (i, j) with i <= 2mu <= j and solves the
    two moment equations for it exactly.
    """
    check_int(a, "threshold a", 1)
    mu = as_rational(mu)
    check_int(N, "support cap N", 2 * a)
    if mu <= 0 or 2 * mu > N:
        raise InfeasibleError(
            f"decreasing pmfs on {{0..{N}}} have mean in (0, {Fraction(N, 2)}]; got mu = {mu}"
        )
    two_mu = 2 * mu
    coeff = [Fraction(max(0, i - a + 1), i + 1) for i in range(N + 1)]
    best: Optional[tuple[Fraction, dict[int, Fraction]]] = None
    examined = 0
    i_hi = min(N, math.floor(two_mu))
    j_lo = math.ceil(two_mu)
    for i in range(i_hi + 1):
        for j in range(max(j_lo, i + 1), N + 1):
            examined += 1
            d_j = (two_mu - i) / (j - i)
            d_i = 1 - d_j
            value = d_i * coeff[i] + d_j * coeff[j]
            if best is None or value > best[0]:
                best = (value, {i: d_i, j: d_j})
    if best is None:
        raise InfeasibleError(f"no atom pair brackets E[D] = {two_mu} in {{0..{N}}}")
    return OracleResult(
        max_tail=best[0], argmax=UniformMixture(best[1]), enumerated=examined
    )


def _upper_hull(us: Sequence[int]) -> list[int]:
    """Vertices of the upper concave envelope of the points (i, us[i] / (i + 1)).

    One monotone-chain pass; slopes are compared in integers by
    multiplying through by the (i + 1) denominators.  Collinear points
    are dropped, so consecutive edges have strictly decreasing slopes.
    """
    hull: list[int] = []
    for x3, u3 in enumerate(us):
        while len(hull) >= 2:
            x1, x2 = hull[-2], hull[-1]
            u1, u2 = us[x1], us[x2]
            # Keep x2 only if slope(x1, x2) > slope(x2, x3).
            if (u2 * (x1 + 1) - u1 * (x2 + 1)) * (x3 + 1) * (x3 - x2) > (
                u3 * (x2 + 1) - u2 * (x3 + 1)
            ) * (x1 + 1) * (x2 - x1):
                break
            hull.pop()
        hull.append(x3)
    return hull


def decreasing_columns(a: int, q: int, N: int) -> tuple[list[Column], list[int]]:
    """The decreasing oracle's LP for 2mu = p / q built in full.

    Column i is (i + 1, q i (i + 1), 0) and its objective (i - a + 1)^+,
    for every i in 0..N.
    """
    A = [(i + 1, q * i * (i + 1), 0) for i in range(N + 1)]
    us = [max(0, i - a + 1) for i in range(N + 1)]
    return A, us


def decreasing_dual_feasible(a: int, q: int, N: int, y: Column, det: int) -> bool:
    """Whether y.A_i >= det * us_i on every one of the N + 1 columns."""
    A, us = decreasing_columns(a, q, N)
    return all(_dot(y, col) >= det * u for col, u in zip(A, us))


def hull_certificate(p: int, q: int, us: list[int]) -> tuple[Column, int, dict[int, int]]:
    """``(y, det, solution)`` for the hull edge [xl, xr] with xl < p / q <= xr.

    ``us`` is the objective of ``decreasing_columns``, and 0 < p / q <=
    N.  The basis is that edge, with weights scaled by ``det``, and ``y``
    is the line through it, as the library oracle forms them.
    """
    hull = _upper_hull(us)
    # hull[0] == 0 < p / q <= N == hull[-1], so some edge brackets p / q.
    k = next(k for k, x in enumerate(hull) if q * x >= p)
    xl, xr = hull[k - 1], hull[k]
    det = q * (xl + 1) * (xr + 1) * (xr - xl)
    solution = {xl: (xr + 1) * (q * xr - p), xr: (xl + 1) * (p - q * xl)}
    y1 = us[xr] * (xl + 1) - us[xl] * (xr + 1)
    y0 = us[xl] * (xr + 1) * (xr - xl) - y1 * xl
    return (q * y0, y1, 0), det, solution


def hull_max_tail_decreasing(a: int, mu, N: int) -> OracleResult:
    """The decreasing oracle with its edge taken from a scan of the envelope.

    Same LP and same result fields as ``lp_max_tail_decreasing``: the
    hull edge [xl, xr] with xl < 2mu <= xr carries the optimum, its
    certificate passes ``_check_certificate`` over all N + 1 columns, and
    ``enumerated`` is the N + 1 points the scan visits.
    """
    check_int(a, "threshold a", 1)
    mu = as_rational(mu)
    check_int(N, "support cap N", 2 * a)
    if mu <= 0 or 2 * mu > N:
        raise InfeasibleError(
            f"decreasing pmfs on {{0..{N}}} have mean in (0, {Fraction(N, 2)}]; got mu = {mu}"
        )
    p, q = (2 * mu).numerator, (2 * mu).denominator
    A, us = decreasing_columns(a, q, N)
    y, det, solution = hull_certificate(p, q, us)
    num = _check_certificate(A, us, (1, p, 0), y, det, solution, range(N + 1))
    atoms = {i: Fraction((i + 1) * x, det) for i, x in solution.items()}
    return OracleResult(
        max_tail=Fraction(num, det), argmax=UniformMixture(atoms), enumerated=N + 1
    )


def _sum_of_squares(l: int, r: int) -> int:
    def prefix(n: int) -> int:
        return n * (n + 1) * (2 * n + 1) // 6

    return prefix(r) - prefix(l - 1)


def _cross(u: Sequence[int], v: Sequence[int]) -> tuple[int, int, int]:
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )


def _dot(u: Sequence[int], v: Sequence[int]) -> int:
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def reference_max_two_sided_unimodal(a: int, mu, var, N: int) -> OracleResult:
    """Maximize P(|X - mu| >= a) over unimodal pmfs within N of mu.

    Enumerates all singles, pairs and triples of intervals with a common
    point and solves each basis by Cramer's rule in exact integers.
    """
    check_int(a, "threshold a", 1)
    mu = as_rational(mu)
    var = as_rational(var)
    if var < 0:
        raise ValidationError("variance must be nonnegative")
    check_int(N, "window radius N", 1)
    lo = math.ceil(mu - N)
    hi = math.floor(mu + N)
    if lo > hi:
        raise InfeasibleError("window contains no integers")
    upper_cut = math.ceil(mu + a)
    lower_cut = math.floor(mu - a)
    s2 = var + mu * mu
    b = (1, mu.numerator, s2.numerator)
    d2, d3 = mu.denominator, s2.denominator

    ls: list[int] = []
    rs: list[int] = []
    cols: list[tuple[int, int, int]] = []
    obj: list[int] = []
    for l in range(lo, hi + 1):
        for r in range(l, hi + 1):
            length = r - l + 1
            ls.append(l)
            rs.append(r)
            cols.append(
                (2 * length, d2 * length * (l + r), 2 * d3 * _sum_of_squares(l, r))
            )
            count = max(0, r - max(l, upper_cut) + 1) + max(
                0, min(r, lower_cut) - l + 1
            )
            obj.append(2 * count)

    n_cols = len(cols)
    examined = 0
    best_num, best_den = -1, 1
    best_basis: list[tuple[int, int]] = []

    # Singles: u = 1 / A0 must satisfy the mean and moment rows too.
    for j in range(n_cols):
        examined += 1
        A = cols[j]
        if A[1] == b[1] * A[0] and A[2] == b[2] * A[0]:
            num, den = obj[j], A[0]
            if num * best_den > best_num * den:
                best_num, best_den = num, den
                best_basis = [(j, 1)]
                best_basis_den = A[0]

    # Pairs: solve two rows, check the third exactly.
    for p in range(n_cols):
        Ap = cols[p]
        for q in range(p + 1, n_cols):
            if max(ls[p], ls[q]) > min(rs[p], rs[q]):
                continue
            examined += 1
            Aq = cols[q]
            for r0, r1, r2 in ((0, 1, 2), (0, 2, 1), (1, 2, 0)):
                det = Ap[r0] * Aq[r1] - Ap[r1] * Aq[r0]
                if det:
                    break
            else:
                continue
            up = b[r0] * Aq[r1] - b[r1] * Aq[r0]
            uq = Ap[r0] * b[r1] - Ap[r1] * b[r0]
            if Ap[r2] * up + Aq[r2] * uq != b[r2] * det:
                continue
            if det < 0:
                det, up, uq = -det, -up, -uq
            if up < 0 or uq < 0:
                continue
            num = obj[p] * up + obj[q] * uq
            if num * best_den > best_num * det:
                best_num, best_den = num, det
                best_basis = [(p, up), (q, uq)]
                best_basis_den = det

    # Triples via scalar triple products; cross products involving b are
    # hoisted out of the inner loop.
    b_cross = [_cross(b, A) for A in cols]
    for p in range(n_cols):
        Ap = cols[p]
        cp = obj[p]
        bxp = b_cross[p]
        for q in range(p + 1, n_cols):
            l_pq = max(ls[p], ls[q])
            r_pq = min(rs[p], rs[q])
            if l_pq > r_pq:
                continue
            Aq = cols[q]
            cq = obj[q]
            bxq = b_cross[q]
            cof = _cross(Ap, Aq)
            d1 = _dot(b, cof)
            for o in range(p):
                if ls[o] > r_pq or rs[o] < l_pq:
                    continue
                examined += 1
                Ao = cols[o]
                det = _dot(Ao, cof)
                if det == 0:
                    continue
                if det < 0:
                    det_abs = -det
                    uo = -d1
                    up = -_dot(Ao, bxq)
                    uq = _dot(Ao, bxp)
                else:
                    det_abs = det
                    uo = d1
                    up = _dot(Ao, bxq)
                    uq = -_dot(Ao, bxp)
                if uo < 0 or up < 0 or uq < 0:
                    continue
                num = obj[o] * uo + cp * up + cq * uq
                if num * best_den > best_num * det_abs:
                    best_num, best_den = num, det_abs
                    best_basis = [(o, uo), (p, up), (q, uq)]
                    best_basis_den = det_abs

    if best_num < 0:
        raise InfeasibleError(
            f"no unimodal pmf on [{lo}, {hi}] has mean {mu} and variance {var}"
        )
    atoms: dict[tuple[int, int], Fraction] = {}
    for j, unum in best_basis:
        if unum == 0:
            continue
        length = rs[j] - ls[j] + 1
        w = Fraction(2 * length * unum, best_basis_den)
        atoms[(ls[j], rs[j])] = atoms.get((ls[j], rs[j]), Fraction(0)) + w
    return OracleResult(
        max_tail=Fraction(best_num, best_den),
        argmax=IntervalMixture(atoms),
        enumerated=examined,
    )


def simplex_max_two_sided_unimodal(a: int, mu, var, N: int) -> OracleResult:
    """The two-sided oracle with the simplex run on every c, lowest first.

    Same LP, columns and result fields as ``lp_max_two_sided_unimodal``;
    ``enumerated`` is the pivots summed over every common point.
    """
    check_int(a, "threshold a", 1)
    mu = as_rational(mu)
    var = check_sign(as_rational(var), "variance")
    check_int(N, "window radius N", 1)
    lo = math.ceil(mu - N)
    hi = math.floor(mu + N)
    upper_cut = math.ceil(mu + a)  # k >= mu + a  <=>  k >= upper_cut
    lower_cut = math.floor(mu - a)  # k <= mu - a  <=>  k <= lower_cut
    s2 = var + mu * mu
    d2, d3 = mu.denominator, s2.denominator
    # The mean row is negated when mu < 0, so that b >= 0 as phase 1 needs.
    sign = -1 if mu < 0 else 1
    b = (1, sign * mu.numerator, s2.numerator)

    # One scaled integer column per interval, grouped by left end.
    # Substituting w = 2 * len * u makes every constraint coefficient an
    # integer: mass row 2*len, mean row d2*len*(l+r), second-moment row
    # 2*d3*sum(k^2); the objective coefficient is 2 * (# tail points).
    by_left: list[list[tuple[int, int, tuple[int, int, int], int]]] = []
    for l in range(lo, hi + 1):
        row = []
        for r in range(l, hi + 1):
            length = r - l + 1
            col = (2 * length, sign * d2 * length * (l + r), 2 * d3 * _sum_of_squares(l, r))
            count = max(0, r - max(l, upper_cut) + 1) + max(0, min(r, lower_cut) - l + 1)
            row.append((l, r, col, 2 * count))
        by_left.append(row)

    pivots = 0
    best: Optional[tuple[int, int, list, dict[int, int]]] = None
    for c in range(lo, hi + 1):
        # Intervals [l, r] with l <= c <= r, in (l, r) order.
        members = [iv for row in by_left[: c - lo + 1] for iv in row[c - row[0][0]:]]
        A = [iv[2] for iv in members]
        obj = [iv[3] for iv in members]
        solution, y, det, count = _simplex(A, obj, b)
        pivots += count
        num = _check_certificate(A, obj, b, y, det, solution, [iv[:2] for iv in members])
        if num is None:
            continue
        if best is None or num * best[1] > best[0] * det:
            best = (num, det, members, solution)

    if best is None:
        raise InfeasibleError(
            f"no unimodal pmf on [{lo}, {hi}] has mean {mu} and variance {var}"
        )
    num, det, members, solution = best
    atoms = {}
    for j, x in solution.items():
        l, r, _, _ = members[j]
        atoms[(l, r)] = Fraction(2 * (r - l + 1) * x, det)
    return OracleResult(
        max_tail=Fraction(num, det), argmax=IntervalMixture(atoms), enumerated=pivots
    )


def tangent_farkas_vector(mu, var, c: int) -> Column:
    """The two-sided oracle's Farkas vector for a pruned common point c, in integers.

    With x = mu - c and t = 8x + sgn x, the quadratic
    g(k) = 3(k - c)^2 - t(k - c) + 4x^2 is read off its values at
    k = -1, 0 and 1, and its coefficients of 1, k and k^2 are divided by
    the per-point vector (1, m k, s k^2) of ``lp_max_two_sided_unimodal``:
    m is mu's denominator, negated when mu < 0, and s is that of
    var + mu^2.  Where x^2 + |x| > 3 var its sum over every interval
    holding c is >= 0 and its mean under the moments is < 0.
    """
    mu, var = as_rational(mu), as_rational(var)
    x = mu - c
    t = 8 * x + (1 if x > 0 else -1)

    def g(k: int) -> Fraction:
        return 3 * (k - c) ** 2 - t * (k - c) + 4 * x * x

    m = (-1 if mu < 0 else 1) * mu.denominator
    s = (var + mu * mu).denominator
    y = (g(0), (g(1) - g(-1)) / 2 / m, ((g(1) + g(-1)) / 2 - g(0)) / s)
    scale = math.lcm(*(v.denominator for v in y))
    return tuple(int(v * scale) for v in y)
