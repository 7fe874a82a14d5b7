"""Tests for the reproducible random inputs."""
from fractions import Fraction

import pytest

from tropdiv import default_generic_chain
from tropdiv.sampling import SplitMix64, random_effective_divisor, random_point

from .conftest import random_connected_graph, theta_graph


@pytest.mark.parametrize("n", [0, -1])
def test_below_needs_a_positive_bound(n):
    with pytest.raises(ValueError, match="positive bound"):
        SplitMix64(1).below(n)


@pytest.mark.parametrize("n", [1, 3, 16, 2**63 + 5, 2**64 - 1, 2**64])
def test_below_draws_one_word_up_to_two_to_the_64(n):
    # the classic single-word rejection, unchanged
    ref, rng = SplitMix64(9), SplitMix64(9)
    limit = 2**64 - 2**64 % n
    for _ in range(20):
        x = ref.next_u64()
        while x >= limit:
            x = ref.next_u64()
        assert rng.below(n) == x % n
    assert rng.state == ref.state


@pytest.mark.parametrize("n", [2**64 + 1, 3 * 2**64, 2**128])
def test_below_rejects_bounds_past_two_to_the_64(n):
    # one draw is below 2**64, so no draw would be accepted
    with pytest.raises(ValueError, match="past 2\\*\\*64"):
        SplitMix64(1).below(n)


@pytest.mark.parametrize("call", [lambda rng: rng.below(True), lambda rng: rng.below(3.0),
                                  lambda rng: rng.below(2.5), lambda rng: rng.randint(0, 1.5),
                                  lambda rng: rng.randint(0, Fraction(3))],
                         ids=["below-True", "below-3.0", "below-2.5", "randint-0-1.5",
                              "randint-0-Fraction3"])
def test_bounds_must_be_ints(call):
    with pytest.raises(ValueError, match="int bound"):
        call(SplitMix64(1))


@pytest.mark.parametrize("denominator", [0, -2, 2.0, True, Fraction(2), "16"])
def test_random_point_needs_a_positive_int_denominator(denominator):
    with pytest.raises(ValueError, match="denominator must be a positive int"):
        random_point(theta_graph(), SplitMix64(1), denominator)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("denominator", [1, 2, 16])
def test_random_point_is_the_fraction_formula(seed, denominator):
    # the integer placement draws the same points as the rational formula
    chain = default_generic_chain(3).graph
    assert chain.scale == 4
    graphs = [chain, random_connected_graph(SplitMix64(100 + seed))]
    for G in graphs:
        rng, ref = SplitMix64(seed), SplitMix64(seed)
        for _ in range(60):
            ei = ref.below(len(G.edges))
            k = ref.randint(0, denominator)
            want = G.point(ei, G.edge_length(ei) * Fraction(k, denominator))
            assert random_point(G, rng, denominator) is want
        assert rng.state == ref.state


def test_effective_divisor_needs_nonnegative_degree():
    with pytest.raises(ValueError, match="nonnegative degree"):
        random_effective_divisor(theta_graph(), SplitMix64(1), -1)
