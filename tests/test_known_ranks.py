"""Ranks known without an oracle, and rank(K - D) against
``reference_core.rank_dfs``.

- rank(K) = g - 1 on every metric graph, by Riemann-Roch with D = 0:
  on chains, on K4, K3,3, the theta graph and the Petersen graph, and on
  graphs with self-loops, where rank(D) = deg(D) - g for D of degree
  above 2g - 2 is checked too.
- On graphs with self-loops, rank(d*v) for every vertex v and d below
  2g against ``rank_dfs``, which takes its rank points from the public
  API rather than from ``reduce.default_rank_points``.
- On the default chain of genus rows * cols, the divisor of an a x b
  tableau has rank b - 1, and its adjoint, the divisor of the transposed
  tableau, rank a - 1, as has K - D, equivalent to it.  K - D holds debt
  at the base v_1 and at up to g other points, so its ranks check the
  reduction's debt pass at genus 4 to 9 against answers known in
  advance.
"""
from fractions import Fraction

import pytest

from tropdiv import Divisor, MetricGraph, canonical_divisor, default_generic_chain
from tropdiv.chainbn import adjoint_divisor, enumerate_tableaux, tableau_to_divisor
from tropdiv.reduce import rank
from tropdiv.sampling import SplitMix64, random_effective_divisor

from . import reference_core
from .conftest import k4_graph, petersen_graph, theta_graph


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


def test_canonical_rank_on_the_petersen_graph():
    G = petersen_graph()
    assert G.betti() == 6
    assert rank(G, canonical_divisor(G)) == 5


# a self-loop's vertex alone does not determine rank, so the rank points
# hold a point on each loop; and on all but the theta graph with a loop,
# K's reduction at each rank point holds at least g chips there, so the
# pre-pass bounds rank(K) only by g, and the search finds the failures
# that fix it
LOOPED = {
    "dumbbell": lambda: MetricGraph(["a", "b"], [("a", "a", Fraction(2)), ("a", "b", Fraction(1)),
                                                 ("b", "b", Fraction(3))]),
    "bouquet": lambda: MetricGraph(["a"], [("a", "a", Fraction(2)), ("a", "a", Fraction(5, 2))]),
    "theta-with-a-loop": lambda: MetricGraph(["a", "b"], [
        ("a", "b", Fraction(2)), ("a", "b", Fraction(3)), ("a", "b", Fraction(5)),
        ("b", "b", Fraction(7, 2))]),
    "loop-chain": lambda: MetricGraph(["a", "b", "c"], [
        ("a", "a", Fraction(1)), ("a", "b", Fraction(2)), ("b", "b", Fraction(3, 2)),
        ("b", "c", Fraction(1)), ("c", "c", Fraction(5, 3))]),
}


@pytest.mark.parametrize("name", sorted(LOOPED))
def test_ranks_on_graphs_with_self_loops(name):
    G = LOOPED[name]()
    g = G.betti()
    assert rank(G, canonical_divisor(G)) == g - 1
    # K - D has negative degree, so by Riemann-Roch rank(D) = deg(D) - g
    for v in G.vertex_points:
        for d in range(2 * g - 1, 2 * g + 2):
            assert rank(G, Divisor({v: d})) == d - g, (v, d)


@pytest.mark.parametrize("name", sorted(LOOPED))
def test_ranks_on_graphs_with_self_loops_match_rank_dfs(name):
    # rank_dfs breaks each loop at a third of its length with points of its
    # own, so a fault in reduce.default_rank_points does not hide in both;
    # on the dumbbell rank(3a) = 1, and the vertices alone give 2
    G = LOOPED[name]()
    if name == "dumbbell":
        assert reference_core.rank_dfs(G, Divisor({G.vertex_point("a"): 3})) == 1
    for v in G.vertex_points:
        for d in range(2 * G.betti()):
            D = Divisor({v: d})
            assert rank(G, D) == reference_core.rank_dfs(G, D), (v, d)


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


# every shape up to 3 x 3 and the 1 x 4 and 4 x 1 lines: 86 tableaux of
# genus 4 to 9; longer lines cost seconds each (rank 8 at g = 9 for 1 x 9)
SHAPES = [(2, 2), (1, 3), (3, 1), (2, 3), (3, 2), (1, 4), (4, 1), (2, 4), (4, 2), (3, 3)]


@pytest.mark.parametrize("rows,cols", SHAPES)
def test_tableau_divisor_ranks(rows, cols):
    chain = default_generic_chain(rows * cols)
    G = chain.graph
    K = canonical_divisor(G)
    for T in enumerate_tableaux(rows, cols):
        D = tableau_to_divisor(T, chain)
        assert rank(G, D) == cols - 1, T.entries
        assert rank(G, adjoint_divisor(T, chain)) == rows - 1, T.entries
        assert rank(G, K - D) == rows - 1, T.entries
