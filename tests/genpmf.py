"""Seeded random generators for shape-constrained pmfs and mixtures.

Integer raw weights keep Fraction denominators small, which matters for
the 10^4-instance sweeps in the acceptance tests.
"""
from __future__ import annotations

import random
from fractions import Fraction

from tailbounds import Pmf, UniformMixture, make_pmf


def random_decreasing_pmf(rng: random.Random, max_support: int = 60, max_weight: int = 9) -> Pmf:
    n = rng.randint(1, max_support)
    ws = sorted((rng.randint(0, max_weight) for _ in range(n)), reverse=True)
    if ws[0] == 0:
        ws[0] = 1
    return make_pmf(0, ws)


def random_unimodal_pmf(
    rng: random.Random,
    max_span: int = 40,
    max_weight: int = 9,
    offset_range: tuple[int, int] = (-20, 20),
) -> Pmf:
    n = rng.randint(1, max_span)
    peak = rng.randint(1, max_weight)
    mode = rng.randint(0, n - 1)
    left = sorted(rng.randint(0, peak) for _ in range(mode))
    right = sorted((rng.randint(0, peak) for _ in range(n - 1 - mode)), reverse=True)
    ws = left + [peak] + right
    return make_pmf(rng.randint(*offset_range), ws)


PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23)


def coprime_weights(rng: random.Random, decreasing: bool = False) -> list[Fraction]:
    """Weights summing to 1 over distinct prime denominators and their product.

    1/q for distinct primes q in a random order, each kept if the sum
    then stays below 1, and the rest of the mass, whose denominator is
    the product of the kept q: so the weights' lcm is that product, and
    no two of the 1/q share a factor.  Sorted from largest to smallest when
    ``decreasing``; otherwise up to three zeros go between the ends.
    """
    ws: list[Fraction] = []
    for q in rng.sample(PRIMES, rng.randint(1, len(PRIMES))):
        if sum(ws) + Fraction(1, q) < 1:
            ws.append(Fraction(1, q))
    ws.insert(rng.randint(0, len(ws)), 1 - sum(ws))
    if decreasing:
        return sorted(ws, reverse=True)
    for _ in range(rng.randint(0, 3)):
        ws.insert(rng.randint(1, len(ws) - 1), Fraction(0))
    return ws


def random_uniform_mixture(rng: random.Random, max_atom: int = 30, max_atoms: int = 6) -> UniformMixture:
    k = rng.randint(1, max_atoms)
    indices = rng.sample(range(max_atom + 1), min(k, max_atom + 1))
    raw = [rng.randint(1, 9) for _ in indices]
    total = sum(raw)
    return UniformMixture({i: Fraction(w, total) for i, w in zip(indices, raw)})


def random_three_atom_mixture(rng: random.Random, a: int, max_atom: int = 40) -> UniformMixture:
    i = rng.randint(a, max_atom)
    raw = [rng.randint(0, 9) for _ in range(3)]
    if sum(raw) == 0:
        raw[rng.randrange(3)] = 1
    total = sum(raw)
    return UniformMixture(
        {0: Fraction(raw[0], total), i: Fraction(raw[1], total), i + 1: Fraction(raw[2], total)}
    )
