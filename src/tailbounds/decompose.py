"""Mixture decompositions of shape-constrained pmfs.

A decreasing pmf on {0,1,...} is a convex combination of discrete
uniforms {0..i}; a unimodal pmf is a convex combination of discrete
uniforms on nested intervals (its super-level sets); one sweep over
those sets gives both decompositions.  Both directions are exact.  The
proof transforms that push a decreasing pmf towards its extremal
two-atom form, in closed form, live here as well.
"""
from __future__ import annotations

from fractions import Fraction
from functools import partial
from typing import Callable, Iterator, Mapping, Sequence

from ._record import Record
from .dist_core import Pmf, _shown, as_rational, check_int, make_pmf, read_int, shape
from .errors import ShapeViolationError, SoundnessViolationError, ValidationError


class UniformMixture(Record):
    """Weights d_i over discrete uniforms {0..i}.

    Represents X with P(X = k) = sum_{i >= k} d_i / (i + 1).  Canonical
    form keeps only the strictly positive atoms.
    """

    atoms: Mapping[int, Fraction]

    def __post_init__(self) -> None:
        check_index = partial(check_int, name="mixture atom index", minimum=0)
        object.__setattr__(self, "atoms", _canonical_atoms(self.atoms, check_index, "mixture"))

    def weight(self, i: int) -> Fraction:
        return self.atoms.get(i, Fraction(0))

    def to_dict(self) -> dict:
        return {"atoms": {str(i): str(w) for i, w in self.atoms.items()}}

    @classmethod
    def from_dict(cls, obj: dict) -> "UniformMixture":
        """Read :meth:`to_dict`'s form; :func:`read_int` reads each index, so "01" is atom 1."""
        try:
            pairs = [(read_int(i), w) for i, w in obj["atoms"].items()]
        except (TypeError, KeyError, ValueError, AttributeError) as exc:
            raise ValidationError("uniform mixture JSON must be {'atoms': {i: 'num/den'}}") from exc
        return cls(_unique_atoms(pairs, "mixture"))


class IntervalMixture(Record):
    """Weights over discrete uniforms on intervals {l..r}.

    All intervals share a common point, which makes every represented
    distribution unimodal.
    """

    atoms: Mapping[tuple[int, int], Fraction]

    def __post_init__(self) -> None:
        object.__setattr__(self, "atoms", _canonical_atoms(self.atoms, _check_interval, "interval"))
        if max(l for l, _ in self.atoms) > min(r for _, r in self.atoms):
            raise ValidationError("intervals must share a common point")

    def to_dict(self) -> dict:
        return {
            "atoms": [
                {"l": l, "r": r, "w": str(w)} for (l, r), w in self.atoms.items()
            ]
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "IntervalMixture":
        try:
            atoms = _unique_atoms(
                [((entry["l"], entry["r"]), entry["w"]) for entry in obj["atoms"]], "interval"
            )
        except (TypeError, KeyError) as exc:
            raise ValidationError(
                "interval mixture JSON must be {'atoms': [{'l','r','w'}]}"
            ) from exc
        return cls(atoms)


def _unique_atoms(pairs: list[tuple[object, object]], kind: str) -> dict:
    """``dict(pairs)``, but an atom given twice raises ValidationError."""
    atoms = {}
    for key, w in pairs:
        if key in atoms:
            raise ValidationError(f"{kind} atom {key!r} is given twice")
        atoms[key] = w
    return atoms


def _check_interval(key: object) -> None:
    if not (isinstance(key, tuple) and len(key) == 2):
        raise ValidationError(f"interval key must be a pair (l, r); got {key!r}")
    check_int(key[0], "interval left end")
    check_int(key[1], "interval right end", key[0])


def _canonical_atoms(atoms: Mapping, check_key: Callable[[object], None], kind: str) -> dict:
    """Sorted atoms with ``Fraction`` weights, zero weights dropped.

    Every atom is checked before any is sorted, so a malformed key beside
    a valid one raises ValidationError, not a TypeError from the sort.
    """
    if not isinstance(atoms, Mapping):
        raise ValidationError(f"{kind} atoms must be a mapping; got {type(atoms).__name__}")
    checked = []
    for key, raw in atoms.items():
        check_key(key)
        w = as_rational(raw)
        if w < 0:
            raise ValidationError(
                f"{kind} weight for atom {_shown(key)} is negative: {_shown(w)}"
            )
        checked.append((key, w))
    canonical = {key: w for key, w in sorted(checked) if w != 0}
    if sum(canonical.values()) != 1:
        raise ValidationError(f"{kind} weights must sum to exactly 1")
    return canonical


def mixture_mean(m: UniformMixture) -> Fraction:
    """Mean of the index variable D; the represented pmf has mean E[D]/2."""
    return sum((w * i for i, w in m.atoms.items()), Fraction(0))


def mixture_tail(m: UniformMixture, a: int) -> Fraction:
    """P(X >= a) of the represented pmf, computed atomwise; 1 when a <= 0."""
    check_int(a, "tail threshold")
    a = max(a, 0)
    return sum(
        (w * Fraction(max(0, i - a + 1), i + 1) for i, w in m.atoms.items()),
        Fraction(0),
    )


def to_uniform_mixture(p: Pmf) -> UniformMixture:
    """d_i = (i+1)(p_i - p_{i+1}): the layers of a decreasing pmf's level sets {0..i}."""
    if not shape(p).is_decreasing:
        raise ShapeViolationError("uniform-mixture decomposition needs a decreasing pmf")
    return UniformMixture({r: mass for _, r, mass in _level_sets(p.weights)})


def from_uniform_mixture(m: UniformMixture) -> Pmf:
    """The unique decreasing pmf with P(X = k) = sum_{i >= k} d_i/(i+1).

    Builds max index + 1 weights, so the cost grows with that index, not the atom count.
    """
    n = max(m.atoms)
    acc = Fraction(0)
    weights = [Fraction(0)] * (n + 1)
    for k in range(n, -1, -1):
        d = m.atoms.get(k)
        if d is not None:
            acc += d / (k + 1)
        weights[k] = acc
    return make_pmf(0, weights)


def unimodal_to_interval_mixture(p: Pmf) -> IntervalMixture:
    """Layer decomposition over super-level sets of a unimodal pmf."""
    if not shape(p).is_unimodal:
        raise ShapeViolationError("interval-mixture decomposition needs a unimodal pmf")
    return IntervalMixture(
        {(p.offset + l, p.offset + r): mass for l, r, mass in _level_sets(p.weights)}
    )


def _level_sets(weights: Sequence[Fraction]) -> Iterator[tuple[int, int, Fraction]]:
    """Layers (l, r, (v - u)(r - l + 1)) of unimodal weights' super-level sets.

    Walked from the window ends in O(n), with no sort: the smaller end of a
    unimodal window {l..r} is its next level v (u the one before), and each
    pointer then skips end weights <= v.  So every step moves a pointer,
    and a walk still open after len(weights) steps is a
    SoundnessViolationError.  A gap in [l, r] is counted at every higher
    level, so non-contiguous sets sum past 1: SoundnessViolationError too.
    """
    l, r = 0, len(weights) - 1
    prev = total = Fraction(0)
    for _ in range(len(weights)):
        if l > r:
            break
        level = min(weights[l], weights[r])
        mass = (level - prev) * (r - l + 1)
        total += mass
        prev = level
        yield l, r, mass
        while l <= r and weights[l] <= level:
            l += 1
        while l <= r and weights[r] <= level:
            r -= 1
    if l <= r:
        raise SoundnessViolationError(f"level walk still open after {len(weights)} steps")
    if total != 1:
        raise SoundnessViolationError(f"level sets are not contiguous: layers hold {total}")


def from_interval_mixture(m: IntervalMixture) -> Pmf:
    """Reconstruct the pmf represented by an interval mixture.

    Builds a weight per point from the lowest to the highest interval end and visits
    every point of every interval, so the cost grows with the ends, not the atom count.
    """
    lo = min(l for l, _ in m.atoms)
    hi = max(r for _, r in m.atoms)
    weights = [Fraction(0)] * (hi - lo + 1)
    for (l, r), w in m.atoms.items():
        share = w / (r - l + 1)
        for k in range(l, r + 1):
            weights[k - lo] += share
    return make_pmf(lo, weights)


def flatten_head(p: Pmf, a: int) -> Pmf:
    """End point of the proof's moves that level positions 1..a.

    Each move levels the first jump p_{i+1} < p_i with i < a, keeping the
    mass and first moment on {0..a} and every weight beyond a, and the
    moves stop once 1..a is flat.  So the end point has p_1..p_a equal to
    h = 2 sum_{k=1..a} k p_k / (a(a+1)) and p_0 holding the rest of the
    mass on {0..a}: decreasing, same mean, tail at a not decreased.
    Pads the weights to a + 1, so the cost grows with a, whatever the pmf's length.
    """
    check_int(a, "flatten_head threshold", 1)
    if not shape(p).is_decreasing:
        raise ShapeViolationError("flatten_head needs a decreasing pmf")
    w = list(p.weights)
    w.extend([Fraction(0)] * max(0, a + 1 - len(w)))
    h = Fraction(2 * sum(k * w[k] for k in range(1, a + 1)), a * (a + 1))
    return make_pmf(0, [sum(w[: a + 1]) - a * h] + [h] * a + w[a + 1 :])


def merge_tail_atoms(m: UniformMixture, a: int) -> UniformMixture:
    """End point of the proof's moves that merge the atoms at or beyond a.

    Each move shifts min(d_i, d_j) one step inwards from the outermost
    atoms a <= i, i + 2 <= j, keeping the mean, M = sum_{i>=a} d_i and
    S = sum_{i>=a} i d_i and raising the tail at a; the moves stop on two
    adjacent indices.  So the end point is d_k = (k+1)M - S and
    d_{k+1} = S - kM with k = floor(S/M); atoms below a are unchanged.
    """
    check_int(a, "merge threshold", 1)
    M = sum(w for i, w in m.atoms.items() if i >= a)
    if M == 0:
        return m
    S = sum(i * w for i, w in m.atoms.items() if i >= a)
    k = S // M
    below = {i: w for i, w in m.atoms.items() if i < a}
    return UniformMixture({**below, k: (k + 1) * M - S, k + 1: S - k * M})


def reduce_three_atoms(m: UniformMixture, a: int) -> UniformMixture:
    """Collapse an {0, i, i+1} mixture to at most two positive atoms.

    Moves mass along the mean-preserving line d_0 -> -t/i, d_i ->
    +t(1 + 1/i), d_{i+1} -> -t.  The represented pmf's tail at a changes
    by t(i + 2 - 2a)/(i(i + 2)) per unit, so the move runs forward
    (eliminating d_0 or d_{i+1}) when i >= 2a - 2 and backward
    (eliminating d_i) otherwise; either way the mean is preserved and
    the tail does not decrease.  Inputs that already have a zero among
    the three weights come back unchanged.
    """
    check_int(a, "reduction threshold", 1)
    positive = list(m.atoms)
    nonzero = [i for i in positive if i != 0]
    if not nonzero:
        return m
    i = nonzero[0]
    if i < a or nonzero not in ([i], [i, i + 1]):
        raise ValidationError(
            f"atoms must lie in {{0, i, i+1}} for some i >= {a}; got {positive}"
        )
    d0 = m.weight(0)
    if d0 == 0 or len(nonzero) == 1:
        return m
    di, dnext = m.weight(i), m.weight(i + 1)
    if i >= 2 * a - 2:
        t = min(d0 * i, dnext)
    else:
        t = -di * Fraction(i, i + 1)
    return UniformMixture(
        {0: d0 - Fraction(t, i), i: di + t * (1 + Fraction(1, i)), i + 1: dnext - t}
    )
