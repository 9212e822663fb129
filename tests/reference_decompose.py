"""Reference versions of the library's two mixture decompositions.

``tailbounds.decompose`` builds both decompositions from one sweep over
the super-level sets of the weights.  The functions here compute them
the two ways the library once did: the atom formula
d_i = (i+1)(p_i - p_{i+1}) for a decreasing pmf, and a scan that
rebuilds the whole super-level set at every distinct level for a
unimodal pmf.  Exact agreement between the two checks the sweep.
"""
from __future__ import annotations

from fractions import Fraction

from tailbounds import (
    IntervalMixture,
    Pmf,
    ShapeViolationError,
    SoundnessViolationError,
    UniformMixture,
    shape,
)


def reference_to_uniform_mixture(p: Pmf) -> UniformMixture:
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


def reference_unimodal_to_interval_mixture(p: Pmf) -> IntervalMixture:
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
