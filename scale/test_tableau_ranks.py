"""The ranks of tableau divisors at genus 12-16 (Cools, Draisma, Payne and
Robeva, "A tropical proof of the Brill-Noether Theorem"): on the default
chain of genus rows * cols, the divisor of a rows x cols tableau has rank
cols - 1, and its adjoint, the divisor of the transposed tableau, rank
rows - 1.  Three tableaux of each shape are drawn; Tier-1 checks every
tableau up to 3x3."""
import pytest

from tropdiv import default_generic_chain
from tropdiv.chainbn import adjoint_divisor, enumerate_tableaux, tableau_to_divisor
from tropdiv.reduce import rank
from tropdiv.sampling import SplitMix64


@pytest.mark.parametrize("rows,cols", [(3, 4), (4, 3), (2, 6), (3, 5), (5, 3), (4, 4)])
def test_sampled_tableau_ranks(rows, cols):
    chain = default_generic_chain(rows * cols)
    tableaux = list(enumerate_tableaux(rows, cols))
    rng = SplitMix64(10 * rows + cols)
    for T in (rng.choice(tableaux) for _ in range(3)):
        assert rank(chain.graph, tableau_to_divisor(T, chain)) == cols - 1, T.entries
        assert rank(chain.graph, adjoint_divisor(T, chain)) == rows - 1, T.entries
