"""Worst-case distributions and exact tail-maximization oracles.

Two closed-form constructions (the discrete two-atom mixture and the
continuous epsilon-mixture) sit next to two independent oracles that
maximize tail probability over moment classes by solving the equivalent
linear programs in exact integer arithmetic: the closed-form edge of an
upper concave envelope for decreasing pmfs, and a small two-phase
simplex per common point for unimodal ones.  Both state their LP as
max obj.u, A u = b, u >= 0 with integer columns, and both emit a
(solution, dual, det) triple that the one checker,
:func:`_check_certificate`, verifies before the oracle returns, so a
wrong envelope edge or pivot surfaces as SoundnessViolationError rather
than as a wrong value.  The checker reads every column it is given.
The two-sided oracle gives it every column of its LP; the decreasing
oracle, whose dual slack is a quadratic on each of two pieces, gives it
only the at most eight columns where that slack can be least, so its
work and memory do not grow with N.  A failed dual step names the column
by the oracle's own label for it: a support index, or an interval (l, r).

The decreasing oracle is one certified core, :func:`_decreasing_cell`,
which returns the optimum and its edge as integers only after the check
has passed.  :func:`lp_max_tail_decreasing` wraps that core's integers
as an :class:`OracleResult`, and :func:`verify_tightness_theorem2` runs
it once per cell and compares its optimum with the bound in one integer
cross-multiplication, building no argmax.  The oracles deliberately
share no code with the bound formulas: agreement between the two routes
is the verification.
"""
from __future__ import annotations

import enum
import math
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Union

from ._record import Record
from .decompose import IntervalMixture, UniformMixture, mixture_tail
from .dist_core import (
    RationalLike, _nearest_float, _render_rational, _shown, as_rational, check_int, check_sign,
)
from .errors import InfeasibleError, SoundnessViolationError, ValidationError


class ExtremalKind(enum.Enum):
    DISCRETE_TWO_ATOM = "DiscreteTwoAtom"
    CONTINUOUS_EPSILON_MIXTURE = "ContinuousEpsilonMixture"


class ExtremalSpec(Record):
    """A constructed worst-case distribution and what it achieves."""

    kind: ExtremalKind
    achieved_tail: Union[Fraction, float]
    bound_value: Union[Fraction, float]
    mixture: Optional[UniformMixture] = None  # discrete construction
    epsilon: Optional[float] = None  # continuous construction
    threshold: Optional[float] = None
    mix_weight: Optional[float] = None

    def to_dict(self, exact: bool = True) -> dict:
        out: dict = {"kind": self.kind.value}
        if self.mixture is not None:
            out["atoms"] = self.mixture.to_dict()["atoms"]
        if self.epsilon is not None:
            out.update(epsilon=self.epsilon, a=self.threshold, p=self.mix_weight)
        out["achieved_tail"] = _render_rational(self.achieved_tail, exact)
        out["bound_value"] = _render_rational(self.bound_value, exact)
        return out


class OracleResult(Record):
    """Outcome of an exact tail-maximization: value, witness, work done.

    ``enumerated`` counts the oracle's work and is deterministic: for the
    decreasing oracle the columns its certificate check read (at most
    eight, whatever N), and for the two-sided one the
    simplex pivots summed over the common points the simplex ran on; a
    point certified by a reused Farkas vector adds none.
    """

    max_tail: Fraction
    argmax: Union[UniformMixture, IntervalMixture]
    enumerated: int


class TightnessRow(Record):
    a: int
    mu: Fraction
    oracle: Optional[Fraction]
    bound: Fraction
    equal: Optional[bool]
    note: str = ""


def extremal_markov_discrete(a: int, mu: RationalLike) -> ExtremalSpec:
    """Two-atom mixture achieving tail exactly mu / (2a - 1).

    Mixes a point mass at 0 with the uniform on {0..2a-1}; feasible for
    0 < mu <= (2a - 1)/2.  The alternative maximizer uses {0..2a-2} and
    achieves the same tail.
    """
    check_int(a, "threshold a", 1)
    mu = check_sign(as_rational(mu), "mean", strict=True)
    top = 2 * a - 1
    d_top = 2 * mu / top
    if d_top > 1:
        raise InfeasibleError(
            f"two-atom construction needs mu <= (2a-1)/2 = {_shown(Fraction(top, 2))};"
            f" got mu = {_shown(mu)}"
        )
    mixture = UniformMixture({0: 1 - d_top, top: d_top})
    achieved = mixture_tail(mixture, a)
    bound = mu / top
    if achieved != bound:
        raise SoundnessViolationError(
            f"two-atom construction reaches tail {achieved}, not the bound {bound}"
        )
    return ExtremalSpec(
        kind=ExtremalKind.DISCRETE_TWO_ATOM,
        achieved_tail=achieved,
        bound_value=bound,
        mixture=mixture,
    )


def extremal_markov_continuous(
    a: RationalLike, mu: RationalLike, epsilon: RationalLike
) -> ExtremalSpec:
    """Mixture of Unif[0, epsilon] and Unif[0, 2a] with mean mu.

    Achieves P(X >= a) = (mu - epsilon/2) / (2a - epsilon), which tends
    to the supremum mu / (2a) as epsilon -> 0.  Every field is computed
    exactly and then rounded once to the nearest float.
    """
    a = check_sign(as_rational(a), "threshold a", strict=True)
    epsilon = as_rational(epsilon)
    if not 0 < epsilon < a:
        raise ValidationError("epsilon must lie in (0, a)")
    mu = as_rational(mu)
    if mu < epsilon / 2:
        raise ValidationError("mean must be at least epsilon/2")
    if mu > a:
        raise ValidationError("mean must be at most a: the mix weight would exceed 1")
    p = (mu - epsilon / 2) / (a - epsilon / 2)
    return ExtremalSpec(
        kind=ExtremalKind.CONTINUOUS_EPSILON_MIXTURE,
        threshold=_nearest_float(a, "threshold a"),
        epsilon=_nearest_float(epsilon, "epsilon"),
        mix_weight=_nearest_float(p),
        achieved_tail=_nearest_float(p / 2),
        bound_value=_nearest_float(mu / (2 * a)),
    )


Column = tuple[int, int, int]


def _dot(u: Column, v: Column) -> int:
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def _first_failing(
    A: Sequence[Column], obj: Sequence[int], y: Column, scale: int
) -> Optional[int]:
    """The first column j of ``A`` with y.A_j < scale * obj_j, or None.

    This is the dual step of :func:`_check_certificate`; with ``scale`` 0
    it checks a Farkas vector's columns, as the two-sided oracle does for
    a vector it stored.
    """
    y0, y1, y2 = y
    for j, ((a0, a1, a2), cj) in enumerate(zip(A, obj)):
        if y0 * a0 + y1 * a1 + y2 * a2 < scale * cj:
            return j
    return None


def _check_certificate(
    A: Sequence[Column],
    obj: Sequence[int],
    b: Column,
    y: Column,
    det: int,
    solution: Optional[dict[int, int]],
    labels: Sequence[object],
) -> Optional[int]:
    """Return the certified optimum of max obj.u, A u = b, u >= 0, scaled by ``det``.

    With a ``solution`` (weights scaled by ``det > 0``), it must be
    feasible and ``y / det`` dual feasible, y.A_j >= det * obj_j on every
    column, with y.b equal to the scaled primal value; weak duality then
    bounds every feasible u by that value, which is returned.  With
    ``solution`` None, ``y`` must be a Farkas vector: y.A_j >= 0 on every
    column and y.b < 0, so no u >= 0 solves A u = b, and None is
    returned.  Raises SoundnessViolationError otherwise; a failing dual
    step names column j by ``labels[j]``, the oracle's own name for it.
    It reads every column of ``A``, and certifies the LP over exactly
    those columns.
    """
    scale = 0 if solution is None else det
    j = _first_failing(A, obj, y, scale)
    if j is not None:
        raise SoundnessViolationError(f"dual certificate fails on column {labels[j]}")
    yb = _dot(y, b)
    if solution is None:
        if yb >= 0:
            raise SoundnessViolationError("Farkas vector does not separate b")
        return None
    if det <= 0 or any(x < 0 or not 0 <= j < len(A) for j, x in solution.items()):
        raise SoundnessViolationError("primal solution is not a nonnegative basis")
    basis = [(A[j], obj[j], x) for j, x in solution.items()]
    for i in range(3):
        if sum(col[i] * x for col, _, x in basis) != det * b[i]:
            raise SoundnessViolationError(f"primal solution violates constraint row {i}")
    if sum(cost * x for _, cost, x in basis) != yb:
        raise SoundnessViolationError("dual bound differs from the primal value")
    return yb


def _slack_minima(a: int, q: int, N: int, y: Column, det: int) -> list[int]:
    """Where the decreasing LP's dual slack can be least: sorted column positions.

    Column i of that LP is A_i = (i + 1, q i (i + 1), 0) with objective
    (i - a + 1)^+, so its slack under ``y`` is
    slack(i) = (i + 1)(y0 + q y1 i) - det (i - a + 1)^+.  That is one
    integer quadratic c2 i^2 + c1 i + c0 on [0, a - 2] and another on
    [a - 1, N], both with c2 = q y1.  On each piece the least value at an
    integer lies at an end or, when c2 > 0, at the floor or ceiling of
    the real vertex -c1 / (2 c2).  So the slack is nonnegative on all
    N + 1 columns exactly when it is on these, of which there are at
    most eight: a vertex outside its piece counts as the nearer end.
    """
    c2 = q * y[1]
    found = set()
    for lo, hi, c1 in ((0, a - 2, y[0] + c2), (a - 1, N, y[0] + c2 - det)):
        if lo > hi:
            continue  # a = 1: no column lies below a - 1
        found.update((lo, hi))
        if c2 > 0:
            for i in (-c1 // (2 * c2), -(c1 // (2 * c2))):  # floor, ceiling
                found.add(min(max(i, lo), hi))
    return sorted(found)


def _decreasing_cell(
    a: int, p: int, q: int, N: int
) -> Optional[tuple[int, int, int, int, int, int, int]]:
    """The decreasing oracle's certified cell for 2 mu = p / q, in integers.

    Returns ``(num, det, xl, xr, wl, wr, checked)``: the optimum is
    num / det, reached on the envelope edge [xl, xr] (see
    :func:`lp_max_tail_decreasing`) with u_xl = wl / det and
    u_xr = wr / det, and ``checked`` columns were read.  Returns None when
    2 mu lies outside (0, N], where no decreasing pmf on {0..N} has that
    mean.  ``a >= 1``, ``q >= 1`` and ``N >= 2a`` are the caller's to
    check.

    The certificate is checked on at most eight columns, so time and
    memory do not grow with N.  The dual slack is least, over all N + 1
    columns, at one of the positions :func:`_slack_minima` returns.  The
    LP restricted to those positions and the two basis columns is built
    as plain lists, and :func:`_check_certificate` certifies its optimum
    before anything is returned; no other column's slack is below the
    least of the named ones, so the dual is feasible on all N + 1 and
    that optimum is the whole LP's.  A wrong edge raises
    SoundnessViolationError, never a wrong value.
    """
    if p <= 0 or p > q * N:
        return None
    xr = max(2 * a - 1, -(-p // q))  # ceil(2 mu)
    xl = 0 if xr == 2 * a - 1 else xr - 1
    det = q * (xl + 1) * (xr + 1) * (xr - xl)
    wl, wr = (xr + 1) * (q * xr - p), (xl + 1) * (p - q * xl)
    # The line y0 + y1 x through the edge, scaled by det / q.
    ul, ur = max(0, xl - a + 1), max(0, xr - a + 1)
    y1 = ur * (xl + 1) - ul * (xr + 1)
    y0 = ul * (xr + 1) * (xr - xl) - y1 * xl
    y = (q * y0, y1, 0)
    # A valid edge's xl and xr are among the slack minima; adding them
    # makes a wrong edge fail the check, not the index lookups below.
    named = sorted({xl, xr, *_slack_minima(a, q, N, y, det)})
    A = [(i + 1, q * i * (i + 1), 0) for i in named]
    us = [max(0, i - a + 1) for i in named]
    solution = {named.index(xl): wl, named.index(xr): wr}
    num = _check_certificate(A, us, (1, p, 0), y, det, solution, named)
    return num, det, xl, xr, wl, wr, len(named)


def lp_max_tail_decreasing(a: int, mu: RationalLike, N: int) -> OracleResult:
    """Maximize P(X >= a) over decreasing pmfs on {0..N} with mean mu.

    A decreasing pmf is a mixture of uniforms on {0..i} with weights d_i
    (total mass 1, E[D] = 2 mu), so with u_i = d_i / (i + 1) and
    2 mu = p / q the problem is max sum us_i u_i subject to A u = (1, p, 0),
    u >= 0, where us_i = (i - a + 1)^+ and A_i = (i + 1, q i (i + 1), 0):
    the integer column form of the two-sided oracle.  Its optimum is the
    upper concave envelope of the points (i, us_i / (i + 1)) at x = 2 mu.

    That envelope has a closed form.  The points are 0 up to i = a - 1
    and 1 - a / (i + 1) from there on, which is strictly concave.  The
    chord from (0, 0) to point i has slope (i - a + 1) / (i (i + 1)),
    largest at i = 2a - 2 and i = 2a - 1, where both equal
    1 / (2 (2a - 1)): these are the paper's two tied maximizers, and
    2a - 2, collinear with 0 and 2a - 1, is no vertex.  So the vertices
    are 0, then 2a - 1, then every i up to N, and the edge bracketing
    2 mu is [xl, xr] with xr = max(2a - 1, ceil(2 mu)), xl = 0 when
    xr = 2a - 1 and xl = xr - 1 otherwise; N >= 2a keeps xr <= N.  The
    basis is that edge, and the dual is the line through it.

    The certified integers come from :func:`_decreasing_cell`; this
    function validates its arguments and wraps the cell as an
    :class:`OracleResult`, and ``enumerated`` counts the columns the
    certificate check read.
    """
    check_int(a, "threshold a", 1)
    mu = as_rational(mu)
    check_int(N, "support cap N", 2 * a)
    two_mu = 2 * mu
    cell = _decreasing_cell(a, two_mu.numerator, two_mu.denominator, N)
    if cell is None:
        raise InfeasibleError(
            f"decreasing pmfs on {{0..{_shown(N)}}} have mean in (0, {_shown(Fraction(N, 2))}];"
            f" got mu = {_shown(mu)}"
        )
    num, det, xl, xr, wl, wr, checked = cell
    atoms = {xl: Fraction((xl + 1) * wl, det), xr: Fraction((xr + 1) * wr, det)}
    return OracleResult(
        max_tail=Fraction(num, det), argmax=UniformMixture(atoms), enumerated=checked
    )


def _sum_of_squares(l: int, r: int) -> int:
    def prefix(n: int) -> int:
        return n * (n + 1) * (2 * n + 1) // 6

    return prefix(r) - prefix(l - 1)


_UNIT: tuple[Column, Column, Column] = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def _basis_inverse(A: Sequence[Column], basis: Sequence[int]) -> tuple[list[Column], int]:
    """Integer adjugate rows and positive determinant of the 3x3 basis.

    ``basis[i]`` is a position in ``A``, or ``~k`` for the artificial unit
    column of row k.  The inverse of the basis is ``adj / det``.
    """
    p, q, r = (A[j] if j >= 0 else _UNIT[~j] for j in basis)
    adj = [
        (q[1] * r[2] - q[2] * r[1], q[2] * r[0] - q[0] * r[2], q[0] * r[1] - q[1] * r[0]),
        (r[1] * p[2] - r[2] * p[1], r[2] * p[0] - r[0] * p[2], r[0] * p[1] - r[1] * p[0]),
        (p[1] * q[2] - p[2] * q[1], p[2] * q[0] - p[0] * q[2], p[0] * q[1] - p[1] * q[0]),
    ]
    det = p[0] * adj[0][0] + p[1] * adj[0][1] + p[2] * adj[0][2]
    if det < 0:
        adj = [(-x, -y, -z) for x, y, z in adj]
        det = -det
    return adj, det


def _entering(
    A: Sequence[Column], cost: Sequence[int], det: int, y0: int, y1: int, y2: int
) -> Optional[int]:
    """Bland's entering rule: the lowest column with positive reduced cost, or None."""
    for j, ((a0, a1, a2), cj) in enumerate(zip(A, cost)):
        if det * cj > y0 * a0 + y1 * a1 + y2 * a2:
            return j
    return None


def _run_phase(
    A: Sequence[Column], cost: Sequence[int], artificial_cost: int, b: Column, basis: list[int]
) -> tuple[list[Column], int, Column, int]:
    """Pivot ``basis`` to optimality for max cost.u, A u = b, u >= 0.

    Bland's rule: the lowest column with positive reduced cost enters and,
    among rows tied in the ratio test, the lowest basis index leaves
    (artificials, encoded negative, first).  Artificials never re-enter,
    and one at zero leaves at ratio 0 on any nonzero entry.  Returns the
    adjugate, determinant, dual y = c_B adj (dual solution y / det), pivots.
    Bland's rule visits no basis twice, so more pivots than there are
    bases, C(len(A) + 3, 3), raise SoundnessViolationError, not a hang.
    """
    pivots = 0
    bases = math.comb(len(A) + 3, 3)
    while True:
        adj, det = _basis_inverse(A, basis)
        cb = [cost[j] if j >= 0 else artificial_cost for j in basis]
        y0, y1, y2 = (cb[0] * adj[0][i] + cb[1] * adj[1][i] + cb[2] * adj[2][i] for i in range(3))
        j = _entering(A, cost, det, y0, y1, y2)
        if j is None:
            return adj, det, (y0, y1, y2), pivots
        c0, c1, c2 = A[j]
        d = [r0 * c0 + r1 * c1 + r2 * c2 for r0, r1, r2 in adj]
        x = [_dot(row, b) for row in adj]
        leave = -1
        for i in range(3):
            if d[i] < 0 and basis[i] < 0 and not x[i]:  # a zero artificial: ratio 0
                d[i] = -d[i]
            if d[i] > 0 and (
                leave < 0
                or x[i] * d[leave] < x[leave] * d[i]
                or (x[i] * d[leave] == x[leave] * d[i] and basis[i] < basis[leave])
            ):
                leave = i
        if leave < 0:
            raise SoundnessViolationError("simplex found an unbounded ray in a bounded LP")
        basis[leave] = j
        pivots += 1
        if pivots > bases:
            raise SoundnessViolationError(f"simplex made more pivots than the {bases} bases")


def _simplex(
    A: Sequence[Column], obj: Sequence[int], b: Column
) -> tuple[Optional[dict[int, int]], Column, int, int]:
    """Maximize obj.u subject to A u = b, u >= 0, for three rows and b >= 0.

    Exact two-phase revised simplex; phase 2 starts from phase 1's basis.
    Returns ``(solution, y, det, pivots)``: ``solution`` maps positions in
    ``A`` to weights scaled by ``det``, or None when the LP is infeasible;
    ``y`` is the final dual scaled by ``det``, for :func:`_check_certificate`.
    """
    basis = [~0, ~1, ~2]
    _, det, y, pivots = _run_phase(A, [0] * len(A), -1, b, basis)
    if _dot(y, b) < 0:
        return None, y, det, pivots
    adj, det, y, more = _run_phase(A, obj, 0, b, basis)
    solution = {j: _dot(row, b) for j, row in zip(basis, adj) if j >= 0}
    return solution, y, det, pivots + more


def lp_max_two_sided_unimodal(
    a: int, mu: RationalLike, var: RationalLike, N: int
) -> OracleResult:
    """Maximize P(|X - mu| >= a) over unimodal pmfs near mu with given moments.

    The support window is the integers within distance N of mu.  Any
    unimodal pmf on the window is a convex combination of uniforms on
    intervals sharing a common point c, so the problem is the best over c
    of a linear program over interval weights with three equality
    constraints (mass, mean, second moment).  Each is solved by an exact
    two-phase simplex in integer arithmetic, and its dual (or, when
    infeasible, Farkas) certificate is checked before the maximum over c
    is returned; the lowest c wins ties.

    The common points are visited outward from mu, c <= mu going down and
    c > mu going up, and each side keeps the last Farkas vector its
    simplex found and :func:`_check_certificate` accepted.  b is the same
    for every c, so that vector still has y.b < 0, and when one scan by
    :func:`_first_failing` finds y.A_j >= 0 on every column of the next c,
    that scan is c's certificate check and the simplex is skipped.  Far
    from mu most c are infeasible, and one vector often certifies a run of
    them.  Every other c passes :func:`_check_certificate`.

    Before its loop the oracle builds one column per interval of the window,
    (2N+1)(2N+2)/2 of them at roughly 220 bytes each on 64-bit CPython: memory
    grows as N**2 (about 11.7 MB at N = 160), and time faster.
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
    by_left: list[list[tuple[tuple[int, int], Column, int]]] = []
    for l in range(lo, hi + 1):
        row = []
        for r in range(l, hi + 1):
            length = r - l + 1
            col = (2 * length, sign * d2 * length * (l + r), 2 * d3 * _sum_of_squares(l, r))
            count = max(0, r - max(l, upper_cut) + 1) + max(0, min(r, lower_cut) - l + 1)
            row.append(((l, r), col, 2 * count))
        by_left.append(row)

    pivots = 0
    best: Optional[tuple[int, int, int, tuple[tuple[int, int], ...], dict[int, int]]] = None
    below = range(math.floor(mu), lo - 1, -1)
    above = range(math.floor(mu) + 1, hi + 1)
    for side in (below, above):
        farkas: Optional[Column] = None  # the last Farkas vector found on this side
        for c in side:
            # Intervals [l, r] with l <= c <= r, in (l, r) order.
            members = [iv for l, row in enumerate(by_left[: c - lo + 1], lo) for iv in row[c - l:]]
            labels, A, obj = zip(*members)
            if farkas is not None and _first_failing(A, obj, farkas, 0) is None:
                continue  # that one scan was c's certificate check
            solution, y, det, count = _simplex(A, obj, b)
            pivots += count
            num = _check_certificate(A, obj, b, y, det, solution, labels)
            if num is None:
                farkas = y
                continue
            # The side below mu runs downward, so a tie must go to the lower c.
            if best is None or num * best[1] > best[0] * det or (
                num * best[1] == best[0] * det and c < best[2]
            ):
                best = (num, det, c, labels, solution)

    if best is None:
        raise InfeasibleError(
            f"no unimodal pmf on [{_shown(lo)}, {_shown(hi)}] has mean {_shown(mu)}"
            f" and variance {_shown(var)}"
        )
    num, det, _, labels, solution = best
    atoms = {}
    for j, x in solution.items():
        l, r = labels[j]
        atoms[(l, r)] = Fraction(2 * (r - l + 1) * x, det)
    return OracleResult(
        max_tail=Fraction(num, det), argmax=IntervalMixture(atoms), enumerated=pivots
    )


def verify_tightness_theorem2(
    a_values: Iterable[int], mu_grid: Iterable[RationalLike], N: int
) -> list[TightnessRow]:
    """Cross-check the sharpened Markov bound against the LP oracle.

    For every (a, mu) cell the oracle maximum is compared with
    mu / (2a - 1).  Equality must hold exactly whenever the two-atom
    construction is feasible (mu <= (2a - 1)/2); an oracle value above
    the bound aborts, since that would disprove the bound itself.  A cell
    the oracle finds infeasible (mu outside (0, N/2]) becomes a row with
    no oracle value; invalid a or N raise ValidationError.

    Each cell runs the decreasing oracle's certified core,
    :func:`_decreasing_cell`, once: a feasible cell passes one
    :func:`_check_certificate`, and no argmax is built.  With 2 mu = p / q
    and the optimum num / det, the oracle is above the bound exactly when
    num * 2q(2a - 1) > p * det and at it exactly when the two are equal:
    that one integer comparison gives both the soundness check and the
    ``equal`` flag.
    """
    rows: list[TightnessRow] = []
    cells = []
    for mu in map(as_rational, mu_grid):
        two_mu = 2 * mu
        cells.append((mu, two_mu.numerator, two_mu.denominator))
    for a in a_values:
        check_int(a, "threshold a", 1)
        check_int(N, "support cap N", 2 * a)
        top = 2 * a - 1
        infeasible = f"infeasible: mean must lie in (0, {Fraction(N, 2)}]"
        beyond = f"two-atom construction infeasible: mu > {Fraction(top, 2)}"
        for mu, p, q in cells:
            bound = mu / top
            cell = _decreasing_cell(a, p, q, N)
            if cell is None:
                rows.append(TightnessRow(a, mu, None, bound, None, infeasible))
                continue
            num, det = cell[0], cell[1]
            oracle_scaled, bound_scaled = num * 2 * q * top, p * det
            if oracle_scaled > bound_scaled:
                raise SoundnessViolationError(
                    f"oracle {Fraction(num, det)} exceeds bound {bound} at a={a}, mu={mu}, N={N}"
                )
            rows.append(TightnessRow(
                a, mu, Fraction(num, det), bound, oracle_scaled == bound_scaled,
                beyond if p > q * top else "",
            ))
    return rows


def tightness_rows_to_csv(rows: Iterable[TightnessRow]) -> str:
    lines = ["a,mu,oracle,bound,equal"]
    for row in rows:
        oracle = "" if row.oracle is None else str(row.oracle)
        equal = "" if row.equal is None else str(row.equal).lower()
        lines.append(f"{row.a},{row.mu},{oracle},{row.bound},{equal}")
    return "\n".join(lines) + "\n"


def tightness_rows_to_json(rows: Iterable[TightnessRow]) -> list[dict]:
    return [
        {
            "a": row.a,
            "mu": str(row.mu),
            "oracle": None if row.oracle is None else str(row.oracle),
            "bound": str(row.bound),
            "equal": row.equal,
            "note": row.note,
        }
        for row in rows
    ]
