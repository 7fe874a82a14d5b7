"""Tests for the reproducible random inputs."""
import pytest

from tropdiv.sampling import SplitMix64, random_effective_divisor

from .conftest import theta_graph


@pytest.mark.parametrize("n", [0, -1])
def test_below_needs_a_positive_bound(n):
    with pytest.raises(ValueError, match="positive bound"):
        SplitMix64(1).below(n)


def test_effective_divisor_needs_nonnegative_degree():
    with pytest.raises(ValueError, match="nonnegative degree"):
        random_effective_divisor(theta_graph(), SplitMix64(1), -1)
