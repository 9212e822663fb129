"""Step-by-step reference versions of the library's proof transforms.

``tailbounds.flatten_head`` and ``tailbounds.merge_tail_atoms`` return
the end points of the proof's moves in closed form.  The functions here
replay the moves one at a time instead, as the proof states them, so
exact agreement between the two checks the closed forms, and
``_merge_step`` keeps the proof's per-move lemma under test.
"""
from __future__ import annotations

from fractions import Fraction

from tailbounds import (
    Pmf,
    ShapeViolationError,
    SoundnessViolationError,
    UniformMixture,
    make_pmf,
    shape,
)
from tailbounds.dist_core import check_int


def reference_flatten_head(p: Pmf, a: int) -> Pmf:
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


def reference_merge_tail_atoms(m: UniformMixture, a: int) -> UniformMixture:
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
