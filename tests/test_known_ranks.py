"""Ranks known without an oracle: rank(K) = g - 1 on every metric graph,
by Riemann-Roch with D = 0, checked on chains and on graphs that are not
chains; and rank(K - D) against ``reference_core.rank_dfs`` there."""
from fractions import Fraction
from itertools import combinations

import pytest

from tropdiv import MetricGraph, canonical_divisor, default_generic_chain
from tropdiv.reduce import rank
from tropdiv.sampling import SplitMix64, random_effective_divisor

from . import reference_core
from .conftest import theta_graph


def k4_graph() -> MetricGraph:
    """The complete graph on four vertices (genus 3), its six edges of
    lengths 1/2, 2/3, 3/4, 4/5, 5/6 and 6/7."""
    names = ["a", "b", "c", "d"]
    return MetricGraph(names, [(u, v, Fraction(i, i + 1))
                               for i, (u, v) in enumerate(combinations(names, 2), 1)])


def k33_graph() -> MetricGraph:
    """The complete bipartite graph K3,3 (genus 4), its nine edges of
    lengths 1/3, 2/3, ..., 9/3."""
    return MetricGraph(["a1", "a2", "a3", "b1", "b2", "b3"],
                       [(f"a{i}", f"b{j}", Fraction(3 * (i - 1) + j, 3))
                        for i in (1, 2, 3) for j in (1, 2, 3)])


GRAPHS = {"K4": k4_graph, "K33": k33_graph, "theta": theta_graph}


@pytest.mark.parametrize("g", range(2, 8))
def test_canonical_rank_on_chains(g):
    G = default_generic_chain(g).graph
    assert rank(G, canonical_divisor(G)) == g - 1


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_canonical_rank_off_chains(name):
    G = GRAPHS[name]()
    assert rank(G, canonical_divisor(G)) == G.betti() - 1


@pytest.mark.parametrize("name", sorted(GRAPHS) + ["chain3", "chain4"])
def test_rank_of_canonical_minus_effective_matches_rank_dfs(name):
    G = (default_generic_chain(int(name[-1])).graph if name.startswith("chain")
         else GRAPHS[name]())
    K = canonical_divisor(G)
    rng = SplitMix64(4242)
    for degree in (1, 2, 3):
        for _ in range(5):
            D = random_effective_divisor(G, rng, degree)
            assert rank(G, K - D) == reference_core.rank_dfs(G, K - D), dict(D.items())
