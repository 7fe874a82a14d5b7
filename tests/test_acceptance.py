"""Acceptance suite: the eight headline checks.

Each criterion is one test that prints a single pass line on the real
terminal (capsys.disabled) when it succeeds.  These tests are slower than
the unit suite; the whole file takes a few minutes, most of it in the
subdivision-oracle cross-check of criterion 8.
"""
import time
from fractions import Fraction

import pytest

from tropdiv import ChainOfLoops, Divisor, default_generic_chain
from tropdiv.chainbn import (BNParams, build_Dj, build_Ek,
                             canonical_shape_check, chips_on_each_loop_check,
                             enumerate_tableaux, gp_rho_zero_experiment,
                             is_wg_reduced_shape, shape_profile,
                             tableau_to_divisor)
from tropdiv.graph import Interval, Region, canonical_divisor
from tropdiv.independence import verify_independence
from tropdiv.plfunc import PLFunction, minchips_holds, obstruction_holds
from tropdiv.reduce import (rank, rank_subdivision_oracle,
                            riemann_roch_check, v_reduce)
from tropdiv.sampling import (SplitMix64, random_divisor,
                              random_effective_divisor, random_point,
                              random_R_member)

from .conftest import random_connected_graph, rho_zero_family, table_certificate


def test_criterion_1_riemann_roch(capsys):
    """Tropical Riemann-Roch on chains of genus 2, 3, 4: 150 exact trials."""
    rng = SplitMix64(101)
    total = 0
    for g in (2, 3, 4):
        G = default_generic_chain(g).graph
        for _ in range(50):
            D = random_divisor(G, rng, rng.randint(-2, 2 * g))
            ok, r, r_adj = riemann_roch_check(G, D)
            assert ok, (g, dict(D.items()), r, r_adj)
            total += 1
    assert total == 150
    with capsys.disabled():
        print("criterion 1: PASS — Riemann-Roch identity exact on "
              "150/150 random divisors, genus 2-4")


def _random_reduced_shape(chain, rng):
    """A random effective divisor with no bridge chips and at most one chip
    per cell, remainder at w_g."""
    G = chain.graph
    g = chain.g
    coeffs = {}
    deg = 0
    for i in range(1, g + 1):
        if deg < 2 * g - 2 and rng.randint(0, 1):
            ei = chain.top_edge(i) if rng.randint(0, 1) else chain.bottom_edge(i)
            L = G.edge_length(ei)
            p = G.point(ei, L * rng.randint(0, 15) / 16)
            if p == chain.w(i):
                continue
            coeffs[p] = coeffs.get(p, 0) + 1
            deg += 1
    extra = rng.randint(0, 2 * g - 2 - deg)
    if extra:
        wg = chain.w(g)
        coeffs[wg] = coeffs.get(wg, 0) + extra
    return Divisor(coeffs)


def test_criterion_2_reduced_classification(capsys):
    """w_g-reduced divisors have the no-bridge, one-chip-per-cell shape and
    divisors of that shape are reduction fixpoints."""
    rng = SplitMix64(202)
    for g in (2, 3, 4):
        chain = default_generic_chain(g)
        G = chain.graph
        wg = chain.w(g)
        for _ in range(100):
            D = random_effective_divisor(G, rng, rng.randint(0, 2 * g - 2))
            red = v_reduce(G, D, wg).reduced
            assert is_wg_reduced_shape(red, chain), (g, dict(D.items()))

            F = _random_reduced_shape(chain, rng)
            assert is_wg_reduced_shape(F, chain)
            assert v_reduce(G, F, wg).reduced == F, (g, dict(F.items()))
    with capsys.disabled():
        print("criterion 2: PASS — 300/300 reductions at w_g have the "
              "classified shape; 300/300 shaped divisors are fixpoints")


def test_criterion_3_canonical_shape(capsys):
    """Every effective representative of the canonical class leaves some
    cell empty."""
    rng = SplitMix64(303)
    for g in (2, 3, 4):
        chain = default_generic_chain(g)
        G = chain.graph
        K = canonical_divisor(G)
        for _ in range(100):
            f = random_R_member(G, K, rng)
            D = K + f.divisor()
            assert D.is_effective
            i = canonical_shape_check(D, chain)
            assert 1 <= i <= g
    with capsys.disabled():
        print("criterion 3: PASS — 300/300 effective canonical "
              "representatives have an empty cell, genus 2-4")


def _verify_gp_structure(g: int, r: int, d: int) -> int:
    """Build every D_j and E_k for every standard tableau of the (g, r, d)
    family, verify the witnesses, and check the empty-cell bijection.
    Returns the number of tableaux checked."""
    rows, cols = g - d + r, r + 1
    assert BNParams(g, r, d).rho == 0
    chain = default_generic_chain(g)
    wg = chain.w(g)
    tableaux = list(enumerate_tableaux(rows, cols))
    for T in tableaux:
        D = tableau_to_divisor(T, chain)
        E = tableau_to_divisor(T.transpose(), chain)
        Ds, Es = [], []
        for j in range(cols):
            Dj, phi = build_Dj(T, chain, j)
            assert D + phi.divisor() == Dj
            assert phi(wg) == 0
            Ds.append(Dj)
        for k in range(rows):
            Ek, psi = build_Ek(T, chain, k)
            assert E + psi.divisor() == Ek
            assert psi(wg) == 0
            Es.append(Ek)
        table = {}
        for j, Dj in enumerate(Ds):
            for k, Ek in enumerate(Es):
                empty = shape_profile(Dj + Ek, chain).empty_cells()
                assert len(empty) == 1, (T.entries, j, k, empty)
                assert T.position(empty[0]) == (k, j)
                table[(j, k)] = empty[0]
        assert sorted(table.values()) == list(range(1, g + 1))
    return len(tableaux)


def test_criterion_4_rho_zero_structure(capsys):
    """Witnessed pair divisors and the empty-cell bijection for the
    zero-defect families."""
    n1 = _verify_gp_structure(4, 1, 3)
    n2 = _verify_gp_structure(6, 1, 4)
    n3 = _verify_gp_structure(6, 2, 6)
    assert (n1, n2, n3) == (2, 5, 5)
    with capsys.disabled():
        print("criterion 4: PASS — empty-cell bijection verified for all "
              "tableaux of (4,1,3), (6,1,4) and substitute (6,2,6)")


@pytest.mark.xfail(strict=True,
                   reason="(6,3,5) is not a zero-defect family: g - (r+1)(g-d+r) "
                          "= 6 - 4*4 = -10, so no rectangular tableau shape "
                          "exists and the pair construction is undefined")
def test_criterion_4_defective_family():
    assert BNParams(6, 3, 5).rho == 0


def test_criterion_6_chips_on_each_loop(capsys):
    """At most one function of a slope-separated family misses any given
    cell on a generic chain, and the genericity hypothesis is load-bearing."""
    rng = SplitMix64(606)
    chains = {g: default_generic_chain(g, extended=True) for g in (2, 3, 4)}
    done = 0
    while done < 100:
        g = rng.randint(2, 4)
        chain = chains[g]
        G = chain.graph
        D = random_effective_divisor(G, rng, rng.randint(1, 2 * g - 2))
        i = rng.randint(1, g)
        vi = chain.v(i)
        br = chain.bridge_edge(i - 1)
        pool = [PLFunction.constant(G, 0),
                v_reduce(G, D, chain.w(0)).witness,
                v_reduce(G, D, chain.w(g)).witness,
                v_reduce(G, D, vi).witness,
                random_R_member(G, D, rng)]
        funcs, slopes = [], set()
        for f in pool:
            s = f.incoming_slope(vi, br, -1)
            if s not in slopes:
                slopes.add(s)
                funcs.append(f)
            if len(funcs) == 3:
                break
        if len(funcs) < 2:
            continue  # resample: the family must have distinct slopes
        assert chips_on_each_loop_check(chain, D, funcs, i), (g, i)
        done += 1

    # On a non-generic chain (all loop ratios 1) the conclusion fails: both
    # functions below place every chip outside cell gamma_2.
    ch = ChainOfLoops(2, [Fraction(1)] * 2, [Fraction(1)] * 2, [Fraction(1)])
    G = ch.graph
    a = G.point(2, Fraction(1, 2))
    D = Divisor({a: 2})
    psi0 = PLFunction.constant(G, 0)
    psi1 = PLFunction(G, {
        0: [(0, 0), (1, 0)],
        1: [(0, 0), (1, 0)],
        2: [(0, 0), (Fraction(1, 2), 0), (1, 1)],
        3: [(0, 1), (1, 2)],
        4: [(0, 1), (1, 2)],
    })
    assert (D + psi1.divisor()) == Divisor({ch.w(2): 2})
    assert not chips_on_each_loop_check(ch, D, [psi0, psi1], 2)
    with capsys.disabled():
        print("criterion 6: PASS — 100/100 generic trials; non-generic "
              "counterexample confirms the genericity hypothesis")


def test_criterion_7_minchips_and_obstruction(capsys):
    """Chip-location and obstruction properties on random small graphs."""
    rng = SplitMix64(707)
    for t in range(200):
        G = random_connected_graph(rng)
        D = random_effective_divisor(G, rng, rng.randint(0, 4))
        funcs = [PLFunction.constant(G, 0)]
        for _ in range(rng.randint(1, 2)):
            funcs.append(random_R_member(G, D, rng))
        b = random_point(G, rng)
        assert minchips_holds(D, funcs), t
        assert minchips_holds(D, funcs, test_points=[b]), t
        ei = rng.randint(0, len(G.edges) - 1)
        region = Region(G, [Interval(ei, Fraction(0), G.edge_length(ei))])
        obstruction_holds(D, funcs, region)  # raises on failure
    with capsys.disabled():
        print("criterion 7: PASS — chip-location and obstruction "
              "properties hold on 200/200 random instances")


def test_criterion_5_main_independence(capsys):
    """The full independence experiments: every tableau of (4,1,3) and
    (6,1,4) yields an independent family, with the certificate of its
    empty-cell table, which re-verifies."""
    for (g, r, d), shape in (((4, 1, 3), (2, 2)), ((6, 1, 4), (3, 2))):
        chain = default_generic_chain(g)
        tableaux = enumerate_tableaux(*shape)
        for T in tableaux:
            t0 = time.monotonic()
            rep = gp_rho_zero_experiment(T, chain)
            elapsed = time.monotonic() - t0
            assert rep.verdict == "independent", (g, r, d, T.entries)
            assert elapsed < 600, (g, T.entries, elapsed)
            assert verify_independence(rho_zero_family(T, chain),
                                       rep.independence_certificate)
            assert rep.independence_certificate == table_certificate(T, chain)
    with capsys.disabled():
        print("criterion 5: PASS — all 2 + 5 tableaux give independent "
              "families for (4,1,3) and (6,1,4)")


def test_criterion_8_oracle_agreement(capsys):
    """Rank over the default point set agrees with the 8-fold subdivision
    brute force on 50 random instances."""
    rng = SplitMix64(808)
    chains = {2: default_generic_chain(2), 3: default_generic_chain(3)}
    for t in range(50):
        g = 2 + (t % 2)
        G = chains[g].graph
        D = random_divisor(G, rng, rng.randint(-2, 6))
        r_fast = rank(G, D)
        r_oracle = rank_subdivision_oracle(G, D, n=8)
        assert r_fast == r_oracle, (t, g, dict(D.items()), r_fast, r_oracle)
    with capsys.disabled():
        print("criterion 8: PASS — rank agrees with the 8-fold subdivision "
              "oracle on 50/50 instances, genus 2-3")
