"""Mixture decompositions of shape-constrained pmfs.

A decreasing pmf on {0,1,...} is a convex combination of discrete
uniforms {0..i}; a unimodal pmf is a convex combination of discrete
uniforms on nested intervals (its super-level sets).  Both directions
are exact, and the mass-redistribution transforms used to push a
decreasing pmf towards its extremal two-atom form live here as well.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Mapping

from ._record import Record
from .dist_core import Pmf, as_rational, check_int, make_pmf, shape
from .errors import ShapeViolationError, SoundnessViolationError, ValidationError


class UniformMixture(Record):
    """Weights d_i over discrete uniforms {0..i}.

    Represents X with P(X = k) = sum_{i >= k} d_i / (i + 1).  Canonical
    form keeps only the strictly positive atoms.
    """

    atoms: Mapping[int, Fraction]

    def __post_init__(self) -> None:
        for i, w in self.atoms.items():
            check_int(i, "mixture atom index", 0)
            if w < 0:
                raise ValidationError(f"mixture weight for atom {i} is negative: {w}")
        object.__setattr__(
            self, "atoms", {i: w for i, w in sorted(self.atoms.items()) if w != 0}
        )
        if sum(self.atoms.values()) != 1:
            raise ValidationError("mixture weights must sum to exactly 1")

    def weight(self, i: int) -> Fraction:
        return self.atoms.get(i, Fraction(0))

    def to_dict(self) -> dict:
        return {"atoms": {str(i): str(w) for i, w in self.atoms.items()}}

    @classmethod
    def from_dict(cls, obj: dict) -> "UniformMixture":
        try:
            raw = obj["atoms"]
            atoms = {int(i): as_rational(w) for i, w in raw.items()}
        except (TypeError, KeyError, ValueError) as exc:
            raise ValidationError("uniform mixture JSON must be {'atoms': {i: 'num/den'}}") from exc
        return cls(atoms)


class IntervalMixture(Record):
    """Weights over discrete uniforms on intervals {l..r}.

    All intervals share a common point, which makes every represented
    distribution unimodal.
    """

    atoms: Mapping[tuple[int, int], Fraction]

    def __post_init__(self) -> None:
        for (l, r), w in self.atoms.items():
            check_int(l, "interval left end")
            check_int(r, "interval right end", l)
            if w < 0:
                raise ValidationError(f"interval weight for ({l}, {r}) is negative: {w}")
        object.__setattr__(
            self, "atoms", {iv: w for iv, w in sorted(self.atoms.items()) if w != 0}
        )
        if sum(self.atoms.values()) != 1:
            raise ValidationError("interval weights must sum to exactly 1")
        if self.atoms:
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
            atoms = {
                (entry["l"], entry["r"]): as_rational(entry["w"])
                for entry in obj["atoms"]
            }
        except (TypeError, KeyError) as exc:
            raise ValidationError(
                "interval mixture JSON must be {'atoms': [{'l','r','w'}]}"
            ) from exc
        return cls(atoms)


def mixture_mean(m: UniformMixture) -> Fraction:
    """Mean of the index variable D; the represented pmf has mean E[D]/2."""
    return sum((w * i for i, w in m.atoms.items()), Fraction(0))


def mixture_tail(m: UniformMixture, a: int) -> Fraction:
    """P(X >= a) of the represented pmf, computed atomwise."""
    return sum(
        (w * Fraction(max(0, i - a + 1), i + 1) for i, w in m.atoms.items()),
        Fraction(0),
    )


def to_uniform_mixture(p: Pmf) -> UniformMixture:
    """Decompose a decreasing pmf as d_i = (i+1)(p_i - p_{i+1})."""
    if not shape(p).is_decreasing:
        raise ShapeViolationError("uniform-mixture decomposition needs a decreasing pmf")
    w = p.weights
    atoms = {}
    for i in range(len(w)):
        nxt = w[i + 1] if i + 1 < len(w) else Fraction(0)
        d = (i + 1) * (w[i] - nxt)
        if d != 0:
            atoms[i] = d
    return UniformMixture(atoms)


def from_uniform_mixture(m: UniformMixture) -> Pmf:
    """The unique decreasing pmf with P(X = k) = sum_{i >= k} d_i/(i+1)."""
    if not m.atoms:
        raise ValidationError("empty mixture")
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
    w = p.weights
    levels = sorted(set(v for v in w if v > 0))
    atoms = {}
    prev = Fraction(0)
    for level in levels:
        idx = [k for k, v in enumerate(w) if v >= level]
        l, r = idx[0], idx[-1]
        if idx != list(range(l, r + 1)):
            raise SoundnessViolationError(
                f"super-level set {level} of a unimodal pmf is not contiguous"
            )
        atoms[(p.offset + l, p.offset + r)] = (level - prev) * (r - l + 1)
        prev = level
    return IntervalMixture(atoms)


def from_interval_mixture(m: IntervalMixture) -> Pmf:
    """Reconstruct the pmf represented by an interval mixture."""
    if not m.atoms:
        raise ValidationError("empty mixture")
    lo = min(l for l, _ in m.atoms)
    hi = max(r for _, r in m.atoms)
    weights = [Fraction(0)] * (hi - lo + 1)
    for (l, r), w in m.atoms.items():
        share = w / (r - l + 1)
        for k in range(l, r + 1):
            weights[k - lo] += share
    return make_pmf(lo, weights)


def flatten_head(p: Pmf, a: int) -> Pmf:
    """Redistribute mass so the weights at positions 1..a become equal.

    Repeatedly takes the smallest i < a with a jump p_{i+1} < p_i and
    moves the jump's mass towards 0 and towards i+1 in the unique
    mean-preserving way that levels positions i and i+1.  The result is
    still decreasing, has the same mean, and its tail at a has not
    decreased.  A pmf whose head is already flat is a fixed point.
    """
    check_int(a, "flatten_head threshold", 1)
    if not shape(p).is_decreasing:
        raise ShapeViolationError("flatten_head needs a decreasing pmf")
    w = list(p.weights)
    w.extend([Fraction(0)] * max(0, a + 2 - len(w)))
    for _ in range(a + 1):
        i = next((i for i in range(1, a) if w[i + 1] < w[i]), None)
        if i is None:
            break
        g = w[i] - w[i + 1]
        outer = g * Fraction(i, i + 2)
        inner = g * Fraction(2, i + 2)
        w[0] += outer
        for j in range(1, i + 1):
            w[j] -= inner
        w[i + 1] += outer
    else:  # pragma: no cover - each pass removes one jump
        raise SoundnessViolationError("flatten_head failed to terminate")
    return make_pmf(0, w)


def _merge_step(atoms: dict[int, Fraction], a: int) -> bool:
    """One tail-merge move; returns False when no pair qualifies.

    Picks the smallest i and largest j with a <= i, i + 2 <= j and both
    weights positive, then moves min(d_i, d_j) from i to i+1 and from j
    to j-1.  This preserves E[D] and strictly increases the represented
    pmf's tail at a.
    """
    candidates = sorted(i for i, w in atoms.items() if i >= a and w > 0)
    if len(candidates) < 2 or candidates[-1] < candidates[0] + 2:
        return False
    i, j = candidates[0], candidates[-1]
    moved = min(atoms[i], atoms[j])
    for k, delta in ((i, -moved), (i + 1, moved), (j - 1, moved), (j, -moved)):
        atoms[k] = atoms.get(k, Fraction(0)) + delta
        if atoms[k] == 0:
            del atoms[k]
    return True


def merge_tail_atoms(m: UniformMixture, a: int) -> UniformMixture:
    """Merge mixture atoms at or beyond a until at most two adjacent remain.

    Each move preserves the mixture mean and strictly increases the
    represented pmf's tail at a; the loop ends with the atoms >= a
    confined to two adjacent indices.
    """
    check_int(a, "merge threshold", 1)
    if not m.atoms:
        return m
    atoms = dict(m.atoms)
    # The proof guarantees termination; the cap only guards against bugs.
    cap = (max(atoms) + 1) ** 2
    for _ in range(cap):
        if not _merge_step(atoms, a):
            return UniformMixture(atoms)
    raise SoundnessViolationError("merge_tail_atoms exceeded its iteration cap")


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
    positive = sorted(i for i, w in m.atoms.items() if w > 0)
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
