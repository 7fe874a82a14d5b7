"""Reproducible randomness for property sweeps.

A splitmix64 generator keeps runs identical across platforms and
implementations; all derived quantities are exact rationals.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .graph import Divisor, MetricGraph, Point
from .plfunc import PLFunction, min_combination
from .reduce import v_reduce

MASK = (1 << 64) - 1


class SplitMix64:
    """The standard splitmix64 sequence over a 64-bit state."""

    def __init__(self, seed: int):
        self.state = seed & MASK

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        """Uniform integer in [0, n) by rejection sampling."""
        if n <= 0:
            raise ValueError("need a positive bound")
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            x = self.next_u64()
            if x < limit:
                return x % n

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi], inclusive."""
        return lo + self.below(hi - lo + 1)

    def choice(self, seq: Sequence):
        return seq[self.below(len(seq))]


def random_point(graph: MetricGraph, rng: SplitMix64, denominator: int = 16) -> Point:
    """A point at a small-denominator fraction of a random edge (vertices
    included via the endpoints)."""
    ei = rng.below(len(graph.edges))
    k = rng.randint(0, denominator)
    return graph.point(ei, graph.edge_length(ei) * Fraction(k, denominator))


def random_effective_divisor(graph: MetricGraph, rng: SplitMix64,
                             degree: int) -> Divisor:
    if degree < 0:
        raise ValueError("effective divisors have nonnegative degree")
    return Divisor([(random_point(graph, rng), 1) for _ in range(degree)])


def random_divisor(graph: MetricGraph, rng: SplitMix64, degree: int) -> Divisor:
    """A divisor of the exact given degree with a few negative chips mixed in."""
    neg = rng.randint(0, 2) + max(0, -degree)
    D = Divisor([(random_point(graph, rng), -1) for _ in range(neg)])
    return D + random_effective_divisor(graph, rng, degree + neg)


def random_R_member(graph: MetricGraph, D: Divisor, rng: SplitMix64,
                    moves: int = 3) -> PLFunction:
    """A random element of R(D) (assumes the class of D is effective).

    Reduction witnesses at random base points all lie in R(D); the tropical
    module operations (shifted pointwise minima) then mix them.
    """
    funcs = [PLFunction.constant(graph, 0)]
    for _ in range(moves):
        base = random_point(graph, rng)
        funcs.append(v_reduce(graph, D, base).witness)
    offsets = [Fraction(rng.randint(-3, 3)) for _ in funcs]
    return min_combination(funcs, offsets)
