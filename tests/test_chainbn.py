"""Tests for tableaux, chain divisor construction, and shape checks."""
import ast
import re
from fractions import Fraction
from math import gcd

import pytest

from tropdiv import (BNParams, ChainOfLoops, Divisor, Point, canonical_divisor,
                     chainbn, default_generic_chain)
from tropdiv.chainbn import (ShapeProfile, Tableau, adjoint_divisor, build_Dj,
                             build_Ek, canonical_shape_check,
                             chips_on_each_loop_check, enumerate_tableaux,
                             gp_rho_zero_experiment, hook_length_count,
                             is_wg_reduced_shape, shape_profile,
                             tableau_to_divisor, tableau_to_dyck)
from tropdiv.errors import (GenericityError, GraphError, PreconditionError,
                            TheoremViolation)
from tropdiv.graph import contains_point_in
from tropdiv.independence import verify_independence
from tropdiv.plfunc import PLFunction, in_R
from tropdiv.reduce import is_equivalent, rank, v_reduce
from tropdiv.sampling import SplitMix64, random_point

from . import reference_core
from .conftest import (cell_regions, rho_zero_matrix, table_matching,
                       tie_psi_columns)


class TestTableau:
    def test_validation(self):
        Tableau(((1, 2), (3, 4)))
        with pytest.raises(PreconditionError):
            Tableau(((1, 3), (2, 2)))      # repeated entry
        with pytest.raises(PreconditionError):
            Tableau(((2, 1), (3, 4)))      # row not increasing
        with pytest.raises(PreconditionError):
            Tableau(((1, 4), (2, 3)))      # column not increasing
        with pytest.raises(PreconditionError, match="ragged"):
            Tableau(((1, 2), (3,)))

    @pytest.mark.parametrize("entries", [((True, 2),), ((1.0, 2),), ((1, 2), (3, 4.0)),
                                         ((1, 2), (3, Fraction(4))), ((1.5, 10**5000),)])
    def test_entries_must_be_ints(self, entries):
        # the first four each equal an int, so each would pass the
        # bijection test; the last has an int past the 4,300 digits that
        # str() writes, so the message must not format it
        with pytest.raises(PreconditionError, match="must be ints"):
            Tableau(entries)

    @pytest.mark.parametrize("entries", [(), ((),), ((), ())])
    def test_empty_shape_rejected(self, entries):
        with pytest.raises(PreconditionError, match="a row and a column"):
            Tableau(entries)

    def test_lists_stored_as_tuples(self):
        T = Tableau([[1, 2], [3, 4]])
        assert T.entries == ((1, 2), (3, 4))
        assert T == Tableau(((1, 2), (3, 4)))
        assert hash(T) == hash(Tableau(((1, 2), (3, 4))))
        assert T.transpose().transpose() == T

    def test_transpose_involution(self):
        T = Tableau(((1, 3), (2, 5), (4, 6)))
        assert T.transpose().transpose() == T
        assert T.transpose().rows == T.cols

    def test_position(self):
        T = Tableau(((1, 3), (2, 5), (4, 6)))
        assert T.position(1) == (0, 0)
        assert T.position(5) == (1, 1)
        # 10**5000 is past the 4,300 digits that str() writes
        for i, shown in ((0, "0"), (7, "7"), (10**5000, "of 16610 bits"), ([1], r"\[1\]")):
            with pytest.raises(PreconditionError, match=f"no entry {shown}"):
                T.position(i)

    @pytest.mark.parametrize("i", [True, 2.0, Fraction(3), 2.5])
    def test_position_of_a_non_int_is_no_entry(self, i):
        # the table is keyed by 1..4, which True, 2.0 and Fraction(3) hash as
        with pytest.raises(PreconditionError, match="no entry"):
            Tableau(((1, 2), (3, 4))).position(i)

    @pytest.mark.parametrize("g,r,d", [(4, True, 3), (4, 1.0, 3), (4, 1, 2.5),
                                       (Fraction(4), 1, 3)])
    def test_bn_params_need_ints(self, g, r, d):
        with pytest.raises(PreconditionError, match="nonnegative ints"):
            BNParams(g, r, d)

    def test_params_rho(self):
        # 2x2 at g=4 is the rho = 0 case (g,r,d) = (4,1,3)
        p = Tableau(((1, 2), (3, 4))).params()
        assert (p.g, p.r, p.d) == (4, 1, 3)
        assert p.rho == 0
        assert BNParams(6, 3, 5).rho == -10

    @pytest.mark.parametrize("rows,cols", [(2, 2), (2, 3), (3, 2), (2, 4)])
    def test_enumeration_matches_hook_length(self, rows, cols):
        ts = list(enumerate_tableaux(rows, cols))
        assert len(ts) == hook_length_count(rows, cols)
        assert len(set(ts)) == len(ts)

    @pytest.mark.parametrize("rows,cols", [(0, 3), (3, 0), (-1, 2), (2, 1.5)])
    def test_no_shape_rejected_by_enumeration_and_count(self, rows, cols):
        # enumerate_tableaux once yielded Tableau(()) for (0, 3) and
        # ((), (), ()) for (3, 0), and hook_length_count(-1, 2) raised a
        # bare ValueError; the enumeration raises before it yields
        with pytest.raises(PreconditionError, match="shape is empty"):
            enumerate_tableaux(rows, cols)
        with pytest.raises(PreconditionError, match="shape is empty"):
            hook_length_count(rows, cols)

    @pytest.mark.parametrize("shape", [(rows, cols) for rows in range(1, 13)
                                       for cols in range(1, 12 // rows + 1)],
                             ids=lambda shape: "x".join(map(str, shape)))
    def test_enumerated_and_transposed_tableaux_match_their_checked_twins(self, shape):
        # enumerate_tableaux and transpose build through the unchecked
        # Tableau._of; the checked constructor must accept each tableau
        # and give it the same value, hash and position table
        rows, cols = shape
        count = 0
        for T in enumerate_tableaux(rows, cols):
            count += 1
            for U, entries in ((T, T.entries), (T.transpose(), tuple(zip(*T.entries)))):
                checked = Tableau(entries)
                assert U == checked and hash(U) == hash(checked)
                assert all(type(row) is tuple for row in U.entries)
                assert U._position == checked._position
        assert count == hook_length_count(rows, cols)

    @pytest.mark.parametrize("g", range(1, 13))
    def test_enumeration_order_against_the_sorted_list(self, g):
        # the stream is the old sorted list re-sorted by Yamanouchi word,
        # and agrees with it at both ends, and everywhere on <= 2 rows
        for rows in (rows for rows in range(1, g + 1) if g % rows == 0):
            cols = g // rows
            stream = list(enumerate_tableaux(rows, cols))
            old = reference_core.sorted_tableaux(rows, cols)
            assert stream == sorted(old, key=lambda t: tuple(
                t.position(i)[0] for i in range(1, g + 1)))
            assert len(set(stream)) == len(stream) == hook_length_count(rows, cols)
            assert (stream[0], stream[-1]) == (old[0], old[-1])
            if rows <= 2:
                assert stream == old

    def test_dyck_path_endpoints(self):
        T = Tableau(((1, 2), (3, 4)))
        path = tableau_to_dyck(T)
        r = T.cols - 1
        # the path starts and ends at the top chamber point
        for j in range(r):
            assert path[0][j] == r - j
            assert path[T.size][j] == r - j

    @pytest.mark.parametrize("g", range(1, 13))
    def test_dyck_paths_stay_in_the_open_chamber(self, g):
        # on every tableau of every rectangular shape of size g, the path
        # starts and ends at (r, ..., 1), steps by +e_j or -(1, ..., 1),
        # and keeps p(0) > ... > p(r-1) > 0
        for rows in (rows for rows in range(1, g + 1) if g % rows == 0):
            r = g // rows - 1
            start = tuple(range(r, 0, -1))
            steps = {tuple(int(a == j) for a in range(r)) for j in range(r)}
            steps.add((-1,) * r)
            for T in enumerate_tableaux(rows, r + 1):
                path = tableau_to_dyck(T)
                assert len(path) == g + 1 and path[0] == path[-1] == start, T
                for p, q in zip(path, path[1:]):
                    assert tuple(b - a for a, b in zip(p, q)) in steps, (T, p, q)
                for p in path:
                    assert all(a > b for a, b in zip(p, p[1:])) and (not r or p[-1] > 0), (T, p)


class TestTableauDivisors:
    def test_requires_matching_genus(self, chain3):
        with pytest.raises(PreconditionError):
            tableau_to_divisor(Tableau(((1, 2), (3, 4))), chain3)

    def test_requires_generic_chain(self):
        bad = ChainOfLoops(4, [1] * 4, [1] * 4, [1] * 3)
        with pytest.raises(GenericityError):
            tableau_to_divisor(Tableau(((1, 2), (3, 4))), bad)

    @pytest.mark.parametrize("idx", [0, 1])
    def test_g4_divisors_have_expected_rank(self, chain4, idx):
        T = list(enumerate_tableaux(2, 2))[idx]
        D = tableau_to_divisor(T, chain4)
        assert D.degree == 3
        assert D.is_effective
        assert rank(chain4.graph, D) == 1

    def test_adjunction(self, chain4):
        T = next(enumerate_tableaux(2, 2))
        D = tableau_to_divisor(T, chain4)
        E = adjoint_divisor(T, chain4)
        K = canonical_divisor(chain4.graph)
        assert (D + E).degree == K.degree
        assert is_equivalent(chain4.graph, D + E, K) is not None

    def test_v1_reduced_fixpoint(self, chain4):
        # the tableau divisor is already reduced at v_1
        T = next(enumerate_tableaux(2, 2))
        D = tableau_to_divisor(T, chain4)
        assert v_reduce(chain4.graph, D, chain4.v(1)).reduced == D


class TestBuildDj:
    @pytest.mark.parametrize("j", [0, 1])
    def test_witness_and_twist(self, chain4, j):
        T = next(enumerate_tableaux(2, 2))
        D = tableau_to_divisor(T, chain4)
        Dj, phi = build_Dj(T, chain4, j)
        r = T.cols - 1
        wg = chain4.w(4)
        assert D + phi.divisor() == Dj
        assert phi(wg) == 0
        shift = Divisor({chain4.v(1): j, wg: r - j})
        assert (Dj - shift).is_effective

    def test_out_of_range(self, chain4):
        T = next(enumerate_tableaux(2, 2))
        with pytest.raises(PreconditionError):
            build_Dj(T, chain4, 5)

    def test_negative_column_index(self, chain4):
        # the 0 <= j half of the range test
        with pytest.raises(PreconditionError, match="column index -1"):
            build_Dj(next(enumerate_tableaux(2, 2)), chain4, -1)

    @pytest.mark.parametrize("j", [True, 1.0, 0.5])
    def test_column_index_must_be_an_int(self, chain4, j):
        with pytest.raises(PreconditionError, match="column index"):
            build_Dj(next(enumerate_tableaux(2, 2)), chain4, j)

    def test_Ek_is_adjoint_build(self, chain4):
        T = next(enumerate_tableaux(2, 2))
        Ek, psi = build_Ek(T, chain4, 0)
        E = adjoint_divisor(T, chain4)
        assert E + psi.divisor() == Ek

    def test_reduction_short_of_chips_at_wg_raises(self, chain4, monkeypatch):
        # D_0 needs r = 1 chip at w_g; a reduction that moved that chip to
        # v_1 is not the twisted representative
        T = next(enumerate_tableaux(2, 2))
        reduce_ = chainbn.v_reduce
        wg, v1 = chain4.w(4), chain4.v(1)

        def doctored(graph, D, base):
            res = reduce_(graph, D, base)
            assert res.reduced.coeff(wg) == 1
            res.reduced = res.reduced - Divisor({wg: 1}) + Divisor({v1: 1})
            return res

        monkeypatch.setattr(chainbn, "v_reduce", doctored)
        with pytest.raises(TheoremViolation, match="failed to be effective"):
            build_Dj(T, chain4, 0)


def _twist_every_column(T, chain):
    """For every column j, ``build_Dj``'s D_j and the D_j of
    ``chainbn._twist`` equal the D_j that the reference firing loop
    reaches; _twist's D_j is its cell chips, placed by ``ccw_point``, its
    pile at w_g and j*v_1.  ``build_Dj``'s phi_j has D + div(phi_j) = D_j
    and phi_j(w_g) = 0, which fix it, and _twist's L * phi_j(v_1..v_g)
    are its values.  So for ``build_Ek``'s E_k and psi_k for every row
    k."""
    D = tableau_to_divisor(T, chain)
    L, ell, m, beta = chain.integer_lengths
    chips = chainbn._tableau_chips(T, ell, m)
    r, wg = T.cols - 1, chain.w(chain.g)
    for j in range(T.cols):
        ref = reference_core.twist(D, chain, j, r)
        Dj, phi = build_Dj(T, chain, j)
        assert Dj == ref and D + phi.divisor() == ref and phi(wg) == 0
        cells, pile, values = chainbn._twist(chips, ell, m, beta, j, r)
        assert Divisor([(chain.ccw_point(i, Fraction(t, L)), 1)
                        for i, t in enumerate(cells, 1) if t is not None]
                       + [(chain.v(1), j), (wg, pile)]) == ref
        assert [Fraction(v, L) for v in values] == [phi(chain.v(i))
                                                    for i in range(1, chain.g + 1)]
    E = adjoint_divisor(T, chain)
    for k in range(T.rows):
        Ek, psi = build_Ek(T, chain, k)
        assert Ek == reference_core.twist(E, chain, k, T.rows - 1)
        assert E + psi.divisor() == Ek and psi(wg) == 0
    return T.cols


def _random_chain(rng, g, ratio=None):
    """A generic chain with random rational lengths; with ``ratio`` a
    function of the loop index, each ell_i / m_i is that ratio."""
    def length():
        return Fraction(rng.randint(1, 40), rng.randint(1, 7))

    while True:
        m = [length() for _ in range(g)]
        ell = [x * ratio(i) if ratio else length() for i, x in enumerate(m)]
        chain = ChainOfLoops(g, ell, m, [length() for _ in range(g - 1)])
        if chain.generic:
            return chain


class TestTwistOracle:
    """``chainbn._twist``, ``build_Dj`` and ``build_Ek`` against the
    ``twist`` kept in ``tests/reference_core.py``, which fires
    D - j*v_1 - (r-j)*w_g toward w_g by the reference firing loop, not
    by ``v_reduce``, and their witnesses by their divisors."""

    def test_every_tableau_up_to_genus_10(self):
        twists = 0
        for g in range(2, 11):
            chain = default_generic_chain(g)
            for rows in (rows for rows in range(1, g + 1) if g % rows == 0):
                for T in enumerate_tableaux(rows, g // rows):
                    twists += _twist_every_column(T, chain)
        assert twists == 596

    @pytest.mark.parametrize("rows,cols", [(3, 4), (4, 3)])
    def test_sample_of_genus_12(self, rows, cols):
        chain = default_generic_chain(12)
        tableaux = sorted(enumerate_tableaux(rows, cols), key=lambda t: t.entries)
        rng = SplitMix64(rows)
        for _ in range(12):
            _twist_every_column(tableaux[rng.below(len(tableaux))], chain)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_generic_chains(self, seed):
        rng = SplitMix64(seed)
        for rows, cols in [(2, 2), (2, 3), (3, 2), (3, 3), (2, 4)]:
            chain = _random_chain(rng, rows * cols)
            tableaux = sorted(enumerate_tableaux(rows, cols), key=lambda t: t.entries)
            for _ in range(3):
                _twist_every_column(tableaux[rng.below(len(tableaux))], chain)

    @pytest.mark.parametrize("rows,cols", [(2, 2), (2, 3), (3, 2), (3, 3), (2, 4)])
    def test_chains_on_the_genericity_boundary(self, rows, cols):
        # every ell_i / m_i is p/q in lowest terms with p + q = 2g - 1
        g = rows * cols
        ratios = [Fraction(p, 2 * g - 1 - p) for p in range(1, 2 * g - 1)
                  if gcd(p, 2 * g - 1) == 1]
        rng = SplitMix64(g + rows)
        chain = _random_chain(rng, g, lambda i: rng.choice(ratios))
        assert all((x / y).numerator + (x / y).denominator == 2 * g - 1
                   for x, y in zip(chain.ell, chain.m))
        for T in enumerate_tableaux(rows, cols):
            _twist_every_column(T, chain)

    @pytest.mark.parametrize("rows,cols", [(2, 2), (2, 3), (3, 2)])
    def test_extended_chain(self, rows, cols):
        chain = default_generic_chain(rows * cols, extended=True)
        for T in enumerate_tableaux(rows, cols):
            _twist_every_column(T, chain)

    def test_debt_that_reduces_to_no_effective_class_raises(self, chain4):
        # D_1 of the zero divisor would need -1 chips on loop 1
        _L, ell, m, beta = chain4.integer_lengths
        with pytest.raises(PreconditionError, match="debt on loop 1"):
            chainbn._twist([[] for _ in ell], ell, m, beta, 1, 1)

    def test_doctored_loop_chip_raises(self, chain4, monkeypatch):
        # moving the reduced chip of a loop by 1/L leaves D_j - D with a
        # non-integral loop slope: not principal, so no values come back
        T = next(enumerate_tableaux(2, 2))
        _L, ell, m, beta = chain4.integer_lengths
        chips = chainbn._tableau_chips(T, ell, m)
        reduce_loop = chainbn._reduce_loop
        calls = []

        def counted(carry, on_loop, ell_i, m_i):
            calls.append(len(calls) + 1)
            return reduce_loop(carry, on_loop, ell_i, m_i)

        # _twist scans loops 1..g in order, one step each, so the calls
        # number the loops
        monkeypatch.setattr(chainbn, "_reduce_loop", counted)
        chainbn._twist(chips, ell, m, beta, 0, 1)
        assert calls == list(range(1, chain4.g + 1))
        calls.clear()
        moved = []

        def doctored(carry, on_loop, ell_i, m_i):
            cell, carry = counted(carry, on_loop, ell_i, m_i)
            if cell is not None and not moved:
                moved.append(calls[-1])
                cell += 1
            return cell, carry

        monkeypatch.setattr(chainbn, "_reduce_loop", doctored)
        with pytest.raises(TheoremViolation, match="not principal on loop") as err:
            chainbn._twist(chips, ell, m, beta, 0, 1)
        assert str(err.value).endswith(f"loop {moved[0]}")


def _experiment_agrees_with_divisors(T, chain):
    """The experiment's empty-cell table is the one ``shape_profile``
    gives on ``build_Dj`` / ``build_Ek``'s D_j + E_k, and
    ``verify_independence`` accepts its certificate on the family
    {phi_j + psi_k}."""
    rep = gp_rho_zero_experiment(T, chain)
    twists = [[build(T, chain, j) for j in range(n)]
              for build, n in ((build_Dj, T.cols), (build_Ek, T.rows))]
    assert {jk: (i,) for jk, i in rep.empty_cell_table.items()} == {
        (j, k): shape_profile(Dj + Ek, chain).empty_cells()
        for j, (Dj, _phi) in enumerate(twists[0])
        for k, (Ek, _psi) in enumerate(twists[1])}
    family = [phi + psi for (_D, phi) in twists[0] for (_E, psi) in twists[1]]
    assert verify_independence(family, rep.independence_certificate)


class TestIntegerChips:
    """The integer chips of the experiment against the ``Divisor``s of
    the public functions."""

    @pytest.mark.parametrize("extended", [False, True])
    def test_every_tableau_up_to_genus_8(self, extended):
        experiments = 0
        for g in range(2, 9):
            chain = default_generic_chain(g, extended=extended)
            for rows in (rows for rows in range(1, g + 1) if g % rows == 0):
                for T in enumerate_tableaux(rows, g // rows):
                    _experiment_agrees_with_divisors(T, chain)
                    experiments += 1
        assert experiments == 54

    @pytest.mark.parametrize("seed", range(3))
    def test_random_generic_chains(self, seed):
        rng = SplitMix64(200 + seed)
        for rows, cols in [(2, 2), (2, 3), (3, 2), (3, 3), (2, 4)]:
            chain = _random_chain(rng, rows * cols)
            tableaux = sorted(enumerate_tableaux(rows, cols), key=lambda t: t.entries)
            for _ in range(2):
                _experiment_agrees_with_divisors(tableaux[rng.below(len(tableaux))], chain)

    def test_tableau_divisors_match_the_fraction_placement(self):
        # on random chains p_{i-1}(j) * m_i often exceeds ell_i + m_i, so
        # the chip wraps around the loop
        rng = SplitMix64(0x7AB)
        wraps = 0
        for _ in range(8):
            for rows, cols in [(2, 2), (2, 3), (3, 2), (3, 3), (2, 4), (4, 2)]:
                chain = _random_chain(rng, rows * cols)
                for T in enumerate_tableaux(rows, cols):
                    for S in (T, T.transpose()):
                        assert tableau_to_divisor(S, chain) == \
                            reference_core.tableau_divisor(S, chain)
                        path = tableau_to_dyck(S)
                        wraps += any(
                            path[i - 1][S.position(i)[1]] * chain.m[i - 1]
                            >= chain.ell[i - 1] + chain.m[i - 1]
                            for i in range(1, S.size + 1) if S.position(i)[1] < S.cols - 1)
        # of the 1,312 divisors
        assert wraps == 1146


class TestShapes:
    def test_wg_reduced_shape_of_reduction(self, chain3, rng):
        from tropdiv.sampling import random_effective_divisor
        G = chain3.graph
        wg = chain3.w(3)
        for _ in range(10):
            D = random_effective_divisor(G, rng, rng.randint(0, 4))
            red = v_reduce(G, D, wg, track_witness=False).reduced
            assert is_wg_reduced_shape(red, chain3)
            prof = shape_profile(red, chain3)
            assert not any(prof.bridges)

    @pytest.mark.parametrize("point", [Point("a", -1, Fraction(0))] + [
        Point(None, edge, Fraction(1, 2)) for edge in (99, -1, 1.0)])
    def test_point_off_the_chain_rejected(self, chain3, point):
        # none is a point of the chain, to be skipped or counted on a piece
        D = Divisor({chain3.w(3): 4, point: 1})
        for check in (shape_profile, is_wg_reduced_shape):
            with pytest.raises(GraphError):
                check(D, chain3)

    @pytest.mark.parametrize("extended", [False, True])
    def test_shapes_match_the_cell_regions(self, extended):
        rng = SplitMix64(0x5EA9 + extended)
        outcomes = set()
        for g in (2, 3, 4, 5):
            chain = default_generic_chain(g, extended=extended)
            G = chain.graph
            regions = cell_regions(chain)
            # vertices (v_i, w_i, w_g and the pendant ends) and the pendant
            # bridges' midpoints, next to random points of every edge
            special = [G.vertex_point(v) for v in G.vertices]
            if extended:
                special += [G.point(ei, G.edge_length(ei) / 2)
                            for ei in (chain.bridge_edge(0), chain.bridge_edge(g))]
            for _ in range(40):
                D = Divisor([(rng.choice(special) if rng.below(2) else random_point(G, rng),
                              rng.randint(1, 2))
                             for _ in range(rng.randint(0, g + 2))])
                occupied = [contains_point_in(D, reg) for reg in regions]
                want = ShapeProfile(tuple(occupied[0::2]), tuple(occupied[1:-1:2]),
                                    D.coeff(chain.w(g)))
                assert shape_profile(D, chain) == want, D
                reduced = (not any(occupied[1:-1:2]) and
                           all(sum(c for p, c in D.items() if reg.contains(p)) <= 1
                               for reg in regions[0::2]))
                assert is_wg_reduced_shape(D, chain) == reduced, D
                outcomes.add(reduced)
        assert outcomes == {False, True}

    def test_canonical_shape_check_finds_empty_cell(self, chain3):
        K = canonical_divisor(chain3.graph)
        i = canonical_shape_check(K, chain3)
        assert 1 <= i <= 3

    def test_non_effective_divisor(self, chain3):
        D = Divisor({chain3.v(1): 2, chain3.w(2): -1})
        assert not is_wg_reduced_shape(D, chain3)
        with pytest.raises(PreconditionError, match="effective"):
            shape_profile(D, chain3)
        with pytest.raises(PreconditionError, match="must be effective"):
            canonical_shape_check(D, chain3)

    def test_canonical_shape_check_requires_canonical(self, chain3):
        with pytest.raises(PreconditionError):
            canonical_shape_check(Divisor({chain3.v(1): 1}), chain3)


class TestChipsOnEachLoop:
    @pytest.mark.parametrize("i", [True, 2.0, 1.5])
    def test_loop_index_must_be_an_int(self, i):
        chain = default_generic_chain(3, extended=True)
        with pytest.raises(PreconditionError, match="loop index"):
            chips_on_each_loop_check(chain, Divisor(), [], i)

    def test_constant_family_passes(self, chain2):
        G = chain2.graph
        D = Divisor({chain2.v(2): 1})
        f0 = PLFunction.constant(G, 0)
        from tropdiv.plfunc import distance_function
        f1 = distance_function(G, chain2.v(2), cap=Fraction(1, 4))
        assert chips_on_each_loop_check(chain2, D, [f0], 2)

    def test_distinct_slopes_required(self, chain2):
        G = chain2.graph
        D = Divisor({chain2.v(2): 1})
        f0 = PLFunction.constant(G, 0)
        with pytest.raises(PreconditionError):
            chips_on_each_loop_check(chain2, D, [f0, f0], 2)

    def test_loop_one_needs_extended_chain(self, chain2):
        with pytest.raises(PreconditionError):
            chips_on_each_loop_check(chain2, Divisor(), [], 1)

    @pytest.mark.parametrize("extended", [False, True])
    def test_loop_index_out_of_range(self, extended):
        chain = default_generic_chain(3, extended=extended)
        for i in (0, 4):
            with pytest.raises(PreconditionError, match="out of range"):
                chips_on_each_loop_check(chain, Divisor(), [], i)

    def test_function_outside_R_of_D_rejected(self, chain2):
        # firing v_2 by 1 needs a chip per downhill germ, three of them
        from tropdiv.plfunc import distance_function
        D = Divisor({chain2.v(2): 1})
        f = distance_function(chain2.graph, chain2.v(2), cap=Fraction(1, 4))
        with pytest.raises(PreconditionError, match="R\\(D\\)"):
            chips_on_each_loop_check(chain2, D, [f], 2)

    def test_degree_bound(self, chain2):
        D = Divisor({chain2.v(2): 5})
        with pytest.raises(PreconditionError):
            chips_on_each_loop_check(chain2, D, [], 2)


class TestGPExperiment:
    def test_g4_both_tableaux_independent(self, chain4):
        for T in enumerate_tableaux(2, 2):
            rep = gp_rho_zero_experiment(T, chain4)
            assert rep.verdict == "independent"
            # the empty-cell table is a bijection onto the loops
            assert sorted(rep.empty_cell_table.values()) == [1, 2, 3, 4]

    def test_failed_certificate_raises_with_a_competing_permutation(
            self, chain4, monkeypatch):
        T = next(enumerate_tableaux(2, 2))
        tie_psi_columns(monkeypatch, T, chain4)
        with pytest.raises(TheoremViolation) as err:
            gp_rho_zero_experiment(T, chain4)
        msg = str(err.value)
        assert msg.startswith(f"tableau {T.entries}: ")
        sigma = table_matching(T, chain4)[1]
        tau = ast.literal_eval(re.search(r"tau = (\(.*?\))", msg).group(1))
        assert f"sigma = {sigma}" in msg
        assert sorted(tau) == list(range(4)) and tau != sigma
        # recomputed from the doctored values, tau costs no more than sigma
        M = rho_zero_matrix(T, chain4)

        def cost(perm):
            return sum(row[j] for row, j in zip(M, perm))

        assert cost(tau) <= cost(sigma)

    def test_doctored_empty_cell_raises(self, chain4, monkeypatch):
        # emptying the last occupied cell of D_0 leaves it missing a cell
        # that column 0 of T does not hold
        T = next(enumerate_tableaux(2, 2))
        twist = chainbn._twist
        calls = []

        def doctored(*args):
            cells, pile, values = twist(*args)
            calls.append(args[4])
            if len(calls) == 1:
                i = max(i for i, t in enumerate(cells) if t is not None)
                cells = cells[:i] + [None] + cells[i + 1:]
            return cells, pile, values

        monkeypatch.setattr(chainbn, "_twist", doctored)
        with pytest.raises(TheoremViolation,
                           match=r"D_0 misses cells \(.*\), expected \(1, 3\)"):
            gp_rho_zero_experiment(T, chain4)
        assert calls[0] == 0

    def test_rho_nonzero_rejected(self, chain4):
        # 2x2 tableau against a genus-3 chain
        ch3 = default_generic_chain(3)
        with pytest.raises(PreconditionError):
            gp_rho_zero_experiment(Tableau(((1, 2), (3, 4))), ch3)

    def test_non_generic_chain_rejected(self):
        bad = ChainOfLoops(4, [1] * 4, [1] * 4, [1] * 3)
        with pytest.raises(GenericityError):
            gp_rho_zero_experiment(Tableau(((1, 2), (3, 4))), bad)
