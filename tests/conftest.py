"""Shared fixtures and helpers for the test suite."""
from fractions import Fraction
from itertools import combinations

import pytest

from tropdiv import Interval, MetricGraph, Region, default_generic_chain
from tropdiv.chainbn import build_Dj, build_Ek
from tropdiv.independence import IndependenceCertificate, strict_offsets
from tropdiv.plfunc import PLFunction
from tropdiv.reduce import _Lattice, _potential
from tropdiv.sampling import SplitMix64


@pytest.fixture(scope="session")
def chain2():
    return default_generic_chain(2)


@pytest.fixture(scope="session")
def chain3():
    return default_generic_chain(3)


@pytest.fixture(scope="session")
def chain4():
    return default_generic_chain(4)


@pytest.fixture()
def rng():
    return SplitMix64(0xC0FFEE)


def cell_regions(chain) -> list[Region]:
    """The core decomposition gamma_1, br_1, ..., gamma_g, {w_g} of a chain
    as half-open ``Region``s, the reference for ``ChainOfLoops.piece``:
    gamma_i is loop i minus w_i, and br_i is the bridge [w_i, v_{i+1})."""
    G = chain.graph

    def half_open(*edges):
        return Region(G, [Interval(ei, Fraction(0), G.edge_length(ei), True, False)
                          for ei in edges])

    out = []
    for i in range(1, chain.g + 1):
        out.append(half_open(chain.top_edge(i), chain.bottom_edge(i)))
        if i < chain.g:
            out.append(half_open(chain.bridge_edge(i)))
    out.append(Region(G, points=[chain.w(chain.g)]))
    return out


def circle_graph(circumference=4) -> MetricGraph:
    """A single loop: two parallel edges between two vertices."""
    half = Fraction(circumference, 2)
    return MetricGraph(["a", "b"], [("a", "b", half), ("a", "b", half)])


def theta_graph() -> MetricGraph:
    """Two vertices joined by three edges of different lengths (genus 2)."""
    return MetricGraph(["a", "b"], [
        ("a", "b", Fraction(2)),
        ("a", "b", Fraction(3)),
        ("a", "b", Fraction(5)),
    ])


def coprime_graph() -> MetricGraph:
    """Three parallel edges whose lengths have coprime denominators 3, 7
    and 11, one of them oriented the other way."""
    return MetricGraph(["a", "b"], [("a", "b", Fraction(1, 3)), ("a", "b", Fraction(2, 7)),
                                    ("b", "a", Fraction(5, 11))])


def k4_graph() -> MetricGraph:
    """The complete graph on four vertices (genus 3), its six edges of
    lengths 1/2, 2/3, 3/4, 4/5, 5/6 and 6/7."""
    names = ["a", "b", "c", "d"]
    return MetricGraph(names, [(u, v, Fraction(i, i + 1))
                               for i, (u, v) in enumerate(combinations(names, 2), 1)])


def petersen_graph() -> MetricGraph:
    """The Petersen graph (genus 6): an outer 5-cycle o0..o4, spokes
    o_i - i_i and an inner pentagram i_i - i_{i+2}, its fifteen edges of
    lengths 1/3, 2/4, ..., 15/17 in that order."""
    pairs = ([(f"o{i}", f"o{(i + 1) % 5}") for i in range(5)]
             + [(f"o{i}", f"i{i}") for i in range(5)]
             + [(f"i{i}", f"i{(i + 2) % 5}") for i in range(5)])
    return MetricGraph([f"o{i}" for i in range(5)] + [f"i{i}" for i in range(5)],
                       [(u, v, Fraction(k, k + 2)) for k, (u, v) in enumerate(pairs, 1)])


def solve_potential(G: MetricGraph, E, base) -> PLFunction:
    """``reduce._potential`` on the chips of E on the lattice of E and
    the base, as ``is_equivalent`` builds it."""
    lat = _Lattice(G, [base, *E.support()])
    return _potential(lat, lat.chips(E), lat.key(base))


def random_connected_graph(rng: SplitMix64) -> MetricGraph:
    """A small random connected metric graph with rational edge lengths."""
    n = rng.randint(2, 4)
    names = [f"n{i}" for i in range(n)]
    edges = []
    for i in range(1, n):
        j = rng.randint(0, i - 1)
        edges.append((names[j], names[i],
                      Fraction(rng.randint(1, 12), rng.randint(1, 4))))
    for _ in range(rng.randint(0, 3)):
        i, j = rng.randint(0, n - 1), rng.randint(0, n - 1)
        if i == j:
            continue
        edges.append((names[i], names[j],
                      Fraction(rng.randint(1, 12), rng.randint(1, 4))))
    return MetricGraph(names, edges)


def rho_zero_family(T, chain) -> list:
    """The family {phi_j + psi_k} of the rho = 0 experiment, in the order
    gp_rho_zero_experiment uses (index j * rows + k)."""
    phis = [build_Dj(T, chain, j)[1] for j in range(T.cols)]
    psis = [build_Ek(T, chain, k)[1] for k in range(T.rows)]
    return [phi + psi for phi in phis for psi in psis]


def rho_zero_matrix(T, chain) -> list[list]:
    """The certificate matrix M[i][j * rows + k] = phi_j(v_i) + psi_k(v_i)
    of the rho = 0 experiment, in units of 1/L, from the vertex values
    that ``chainbn._twist`` returns (as patched, if it is)."""
    import tropdiv.chainbn as cb
    r, rows = T.cols - 1, T.rows
    _L, ell, m, beta = chain.integer_lengths
    D, E = cb._tableau_chips(T, ell, m), cb._tableau_chips(T.transpose(), ell, m)
    phis = [cb._twist(D, ell, m, beta, j, r)[2] for j in range(r + 1)]
    psis = [cb._twist(E, ell, m, beta, k, rows - 1)[2] for k in range(rows)]
    return [[a[i] + b[i] for a in phis for b in psis] for i in range(chain.g)]


def tie_psi_columns(monkeypatch, T, chain):
    """Doctor the rho = 0 family of T by patching ``chainbn._twist`` so
    that psi_1's vertex values are psi_0's + 3 (3*L in units of 1/L).
    E_1 is kept, so the empty-cell table still checks, but each column
    phi_j + psi_1 of the certificate's matrix is then the column
    phi_j + psi_0 plus a constant, and the empty-cell matching ties with
    the one that swaps their rows."""
    import tropdiv.chainbn as cb
    twist = cb._twist
    # the chips of the adjoint divisor of T, from which the experiment
    # builds every (E_k, psi_k)
    L, ell, m, _beta = chain.integer_lengths
    E = cb._tableau_chips(T.transpose(), ell, m)

    def shifted_twist(loops, ell, m, beta, k, r):
        cells, pile, values = twist(loops, ell, m, beta, k, r)
        if loops == E and k == 1:
            values = [v + 3 * L for v in twist(loops, ell, m, beta, 0, r)[2]]
        return cells, pile, values

    monkeypatch.setattr(cb, "_twist", shifted_twist)


def table_matching(T, chain) -> tuple[tuple, tuple[int, ...]]:
    """The points and the permutation the empty-cell table gives for
    rho_zero_family(T, chain), read off the tableau: the vertex v_i is
    matched to phi_j + psi_k when entry i sits in row k and column j."""
    perm = []
    for i in range(1, T.size + 1):
        k, j = T.position(i)
        perm.append(j * T.rows + k)
    return tuple(chain.v(i) for i in range(1, T.size + 1)), tuple(perm)


def table_certificate(T, chain) -> IndependenceCertificate:
    """The certificate of table_matching(T, chain), with the offsets
    ``strict_offsets`` finds for it on rho_zero_matrix(T, chain), taken
    from units of 1/L to units of 1."""
    points, perm = table_matching(T, chain)
    offsets, tau = strict_offsets(rho_zero_matrix(T, chain), perm)
    assert tau is None, (T.entries, tau)
    L = chain.integer_lengths[0]
    return IndependenceCertificate(points, perm, tuple(b / L for b in offsets))


def point_contact_family() -> list:
    """Four functions on one edge of length 2, dependent with all offsets
    0, although the two coincident pairs meet only at a point; the
    dependence search misses this dependence."""
    G = MetricGraph(["a", "b"], [("a", "b", 2)])
    pieces = ([(0, 0), (1, 0), (2, 1)], [(0, 0), (1, 0), (2, 2)],
              [(0, 1), (1, 0), (2, 0)], [(0, 2), (1, 0), (2, 0)])
    return [PLFunction(G, {0: p}) for p in pieces]
