"""Reproducible randomness for property sweeps.

A splitmix64 generator keeps runs identical across platforms and
implementations; all derived quantities are exact rationals.  Points are
drawn on the graph's integer lengths (``MetricGraph.int_lengths`` in
units of 1/``scale``) and placed by its integer point constructor, so a
draw builds no ``Fraction`` for a point the graph already holds.
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
        """Uniform integer in [0, n) by rejection sampling on one 64-bit
        draw; ``ValueError`` unless n is an int (a bool or a float is
        none) with 1 <= n <= 2**64, as past 2**64 no draw would be
        accepted."""
        if type(n) is not int:
            raise ValueError(f"need an int bound, got {type(n).__name__}")
        if n <= 0:
            raise ValueError("need a positive bound")
        if n > 1 << 64:
            raise ValueError(f"bound {n} is past 2**64, the range of one draw")
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
    """A point at a small-denominator fraction k/``denominator`` of a
    random edge (vertices included via the endpoints), placed from the
    graph's integer lengths; ``ValueError`` unless ``denominator`` is a
    positive int."""
    if type(denominator) is not int or denominator <= 0:
        raise ValueError(f"denominator must be a positive int, got {denominator!r}")
    ei = rng.below(len(graph.edges))
    k = rng.randint(0, denominator)
    return graph._point_at(ei, graph.int_lengths[ei] * k, graph.scale * denominator)


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
