"""Tests for tropical dependence and independence certificates and the
searches for them."""
from fractions import Fraction
from itertools import combinations, permutations

import pytest

from tropdiv import MetricGraph, PLFunction, default_generic_chain
from tropdiv.chainbn import enumerate_tableaux, gp_rho_zero_experiment
from tropdiv.errors import PreconditionError, SearchCapError
from tropdiv.independence import (MAX_FAMILY, IndependenceCertificate,
                                  IndependenceReport, _grow, _pair_tables,
                                  find_dependence, strict_offsets,
                                  unique_min_locus, verify_dependence,
                                  verify_independence)
from tropdiv.plfunc import distance_function, min_combination
from tropdiv.sampling import (SplitMix64, random_effective_divisor,
                              random_R_member)

from . import reference_search
from .conftest import (circle_graph, point_contact_family, rho_zero_family,
                       rho_zero_matrix, table_certificate, table_matching,
                       theta_graph)


def base_pair(G):
    f = distance_function(G, G.vertex_point("a"))
    g = distance_function(G, G.vertex_point("b"))
    return f, g


class TestVerify:
    def test_dependent_triple(self):
        # adding the pointwise minimum to a family makes it dependent:
        # every point has the minimum attained by min(f,g) and by f or g
        G = theta_graph()
        f, g = base_pair(G)
        h = min_combination([f, g], [0, 0])
        ok, witness = verify_dependence([f, g, h], [0, 0, 0])
        assert ok and witness is None

    def test_independent_pair_has_witness(self):
        G = theta_graph()
        f, g = base_pair(G)
        ok, witness = verify_dependence([f, g], [0, 0])
        assert not ok
        assert witness is not None
        # at the witness, exactly one of the two functions is minimal
        assert (f(witness) < g(witness)) or (g(witness) < f(witness))

    def test_identical_functions_are_dependent(self):
        G = circle_graph(4)
        f = distance_function(G, G.vertex_point("a"))
        ok, _ = verify_dependence([f, f], [0, 0])
        assert ok


    @pytest.mark.parametrize("check", [verify_dependence, unique_min_locus])
    def test_needs_one_offset_per_function(self, check):
        f, g = base_pair(theta_graph())
        with pytest.raises(PreconditionError, match="one offset per function"):
            check([f, g], [0])


class TestFloatOffsetsRejected:
    @pytest.mark.parametrize("check", [verify_dependence, unique_min_locus])
    def test_rejected(self, check):
        f, g = base_pair(theta_graph())
        with pytest.raises(PreconditionError, match="not an exact rational"):
            check([f, g], [0, 0.5])
        check([f, g], [0, "1/2"])


class TestUniqueMinLocus:
    def test_locus_of_independent_pair_is_nonempty(self):
        G = theta_graph()
        f, g = base_pair(G)
        reg = unique_min_locus([f, g], [0, 0])
        assert not reg.is_empty

    def test_locus_of_dependent_family_is_empty(self):
        G = theta_graph()
        f, g = base_pair(G)
        h = min_combination([f, g], [0, 0])
        assert unique_min_locus([f, g, h], [0, 0, 0]).is_empty


class TestFindDependence:
    def test_finds_certificate(self):
        G = theta_graph()
        f, g = base_pair(G)
        h = min_combination([f, g], [0, 0])
        cert = find_dependence([f, g, h])
        assert cert is not None
        # the certificate must re-verify
        active = [fn for fn, off in zip([f, g, h], cert.offsets)
                  if off is not None]
        offs = [off for off in cert.offsets if off is not None]
        ok, _ = verify_dependence(active, offs)
        assert ok

    def test_candidate_passing_the_probes_is_checked_exactly(self):
        # f and g agree near both vertices, so the one candidate, offsets
        # (0, 0), passes the vertex probes, yet f alone attains the minimum
        # in the middle of the edge
        G = MetricGraph(["a", "b"], [("a", "b", 2)])
        f = PLFunction.constant(G, 0)
        g = PLFunction(G, {0: [(0, 0), (Fraction(1, 2), 0), (1, Fraction(1, 2)),
                               (Fraction(3, 2), 0), (2, 0)]})
        report = IndependenceReport()
        assert find_dependence([f, g], report=report) is None
        assert report.candidates_tried == 1

    def test_independent_family_returns_none(self):
        G = theta_graph()
        f, g = base_pair(G)
        report = IndependenceReport()
        assert find_dependence([f, g], report=report) is None
        assert report.candidates_tried >= 1

    def test_shift_invariance(self):
        # dependence is invariant under adding constants to members
        G = theta_graph()
        f, g = base_pair(G)
        h = min_combination([f, g], [0, 0])
        assert find_dependence([f.add_const(7), g, h]) is not None

    def test_cap_raises(self):
        G = theta_graph()
        f, g = base_pair(G)
        p = distance_function(G, G.point(0, Fraction(1, 2)))
        q = distance_function(G, G.point(1, Fraction(3, 2)))
        with pytest.raises(SearchCapError):
            find_dependence([f, g, p, q], max_candidates=1)

    def test_family_size_cap_is_named(self):
        # a family over MAX_FAMILY raises before any candidate is tried,
        # and the message names the family-size cap, not a candidate cap
        G = theta_graph()
        f, _ = base_pair(G)
        report = IndependenceReport()
        with pytest.raises(SearchCapError) as err:
            find_dependence([f.add_const(c) for c in range(MAX_FAMILY + 1)],
                            report=report)
        assert MAX_FAMILY == 12 and err.value.cap == 12
        assert "13" in str(err.value) and "12" in str(err.value)
        assert "candidate cap" not in str(err.value)
        assert report.candidates_tried == 0

    def test_single_function_rejected(self):
        G = theta_graph()
        f, _ = base_pair(G)
        with pytest.raises(PreconditionError):
            find_dependence([f])

    def test_mixed_graphs_rejected_before_search(self):
        # an equal graph that is a different object is still rejected
        f, g = base_pair(theta_graph())
        h, _ = base_pair(theta_graph())
        report = IndependenceReport()
        with pytest.raises(PreconditionError):
            find_dependence([f, g, h], report=report)
        assert report.candidates_tried == 0


def exact_pair_tables(funcs):
    """The dependence search's tables computed the exact way, from every
    difference f_j - f_k built as a PLFunction: its critical values (the
    values of its constant segments), its least and greatest breakpoint
    values, and every function's value at every vertex."""
    crit, box = {}, {}
    for j, k in permutations(range(len(funcs)), 2):
        diff = funcs[j] - funcs[k]
        crit[(j, k)] = sorted({v1 for pts in diff.data.values()
                               for (o1, v1), (o2, v2) in zip(pts, pts[1:])
                               if v1 == v2 and o1 < o2})
        vals = [v for pts in diff.data.values() for (_o, v) in pts]
        box[(j, k)] = (min(vals), max(vals))
    G = funcs[0].graph
    probes = [[f(G.vertex_point(v)) for v in G.vertices] for f in funcs]
    return crit, box, probes


def random_tables(rng, n):
    """``crit`` and ``box`` tables as ``_pair_tables`` reads them off a
    grid, for n random integer walks on one edge: the critical values of
    f_j - f_k are its equal consecutive entries (often none) and its box
    runs from its least to its greatest entry (one value when f_k is a
    shift of f_j, as some walks are)."""
    length = rng.randint(2, 9)
    walks = []
    for _ in range(n):
        if walks and rng.below(4) == 0:
            walks.append([v + rng.randint(-3, 3) for v in rng.choice(walks)])
            continue
        walk = [rng.randint(-3, 3)]
        for _ in range(length - 1):
            walk.append(walk[-1] + rng.randint(-2, 2))
        walks.append(walk)
    crit, box = {}, {}
    for j in range(n):
        for k in range(n):
            if j != k:
                diffs = [a - b for a, b in zip(walks[j], walks[k])]
                crit[(j, k)] = sorted({d for d, e in zip(diffs, diffs[1:]) if d == e})
                box[(j, k)] = range(min(diffs), max(diffs) + 1)
    return crit, box


def cap_floor(subset, crit, box):
    """The largest level the reference growth builds: the least cap it
    does not exceed."""
    lo, hi = 0, 1
    while True:
        try:
            reference_search.grow(subset, crit, box, hi)
            break
        except SearchCapError:
            lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            reference_search.grow(subset, crit, box, mid)
            hi = mid
        except SearchCapError:
            lo = mid
    return hi


class TestGrow:
    """``_grow`` against the level loop it replaced, kept in
    ``reference_search``."""

    def test_matches_reference_on_random_tables(self):
        rng = SplitMix64(0x6A0E)
        found_at, empty_crit, one_value_box = set(), 0, 0
        for _ in range(150):
            n = rng.randint(2, 7)
            crit, box = random_tables(rng, n)
            size = rng.randint(2, min(n, 6))
            subset = rng.choice(list(combinations(range(n), size)))
            want = reference_search.grow(subset, crit, box, 200_000)
            assert _grow(subset, crit, box, 200_000) == want, (crit, box, subset)
            if want:
                found_at.add(size)
            empty_crit += sum(not values for values in crit.values())
            one_value_box += sum(len(r) == 1 for r in box.values())
        # candidates at every subset size, and both edge cases, occur
        assert found_at == {2, 3, 4, 5, 6}
        assert empty_crit > 0 and one_value_box > 0

    def test_matches_reference_on_family_tables(self):
        fam = planted_families()[1][0]
        _den, crit, box, _probes = _pair_tables(fam)
        for size in range(2, len(fam) + 1):
            for subset in combinations(range(len(fam)), size):
                assert (_grow(subset, crit, box, 200_000)
                        == reference_search.grow(subset, crit, box, 200_000))

    def test_cap_at_the_largest_level(self):
        rng = SplitMix64(0xCA9)
        tried = 0
        while tried < 12:
            n = rng.randint(3, 6)
            crit, box = random_tables(rng, n)
            subset = tuple(range(n))
            if not reference_search.grow(subset, crit, box, 200_000):
                continue
            tried += 1
            cap = cap_floor(subset, crit, box)
            assert (_grow(subset, crit, box, cap)
                    == reference_search.grow(subset, crit, box, cap))
            with pytest.raises(SearchCapError):
                _grow(subset, crit, box, cap - 1)


class TestPairTables:
    def test_grid_tables_match_exact_differences(self):
        rng = SplitMix64(0x6E1D)
        graphs = [default_generic_chain(2).graph,
                  default_generic_chain(3).graph, theta_graph()]
        dens = set()
        for t in range(12):
            G = graphs[t % 3]
            D = random_effective_divisor(G, rng, rng.randint(2, 4))
            fam = [random_R_member(G, D, rng, moves=2)
                   for _ in range(rng.randint(3, 5))]
            den, crit, box, probes = _pair_tables(fam)
            dens.add(den)
            want_crit, want_box, want_probes = exact_pair_tables(fam)
            assert {jk: [Fraction(v, den) for v in vs]
                    for jk, vs in crit.items()} == want_crit
            assert {jk: (Fraction(r[0], den), Fraction(r[-1], den))
                    for jk, r in box.items()} == want_box
            assert [[Fraction(v, den) for v in row]
                    for row in probes] == want_probes
        # crossings of the shifted minima give values off the integers, so
        # the common-denominator scaling is exercised
        assert max(dens) > 1


def brute_force_unique_min(M):
    """The unique minimising permutation of the min-plus permanent, or
    None, by enumerating all permutations."""
    n = len(M)
    costs = {p: sum(M[i][p[i]] for i in range(n))
             for p in permutations(range(n))}
    lo = min(costs.values())
    winners = [p for p, c in costs.items() if c == lo]
    return winners[0] if len(winners) == 1 else None


def dp_unique_min(M):
    """``(perm, unique)``: a permutation minimising the min-plus permanent
    of the square matrix M, and whether it is the only one.  A subset DP
    over columns: for every column set S, the least cost of matching rows
    0..|S|-1 onto S and the number of matchings attaining it, capped at 2,
    in O(2^n * n) steps; the oracle for n <= 12."""
    n = len(M)
    full = (1 << n) - 1
    best = [0] * (full + 1)
    count = [1] + [0] * full
    last = [0] * (full + 1)     # column matched to the last row of an optimum
    for mask in range(1, full + 1):
        row = M[mask.bit_count() - 1]
        lo = c = arg = None
        for j in range(n):
            if not mask >> j & 1:
                continue
            prev = mask ^ (1 << j)
            v = best[prev] + row[j]
            if lo is None or v < lo:
                lo, c, arg = v, count[prev], j
            elif v == lo:
                c = min(2, c + count[prev])
        best[mask], count[mask], last[mask] = lo, c, arg
    perm = [0] * n
    mask = full
    for i in range(n - 1, -1, -1):
        perm[i] = last[mask]
        mask ^= 1 << perm[i]
    return tuple(perm), count[full] == 1


def random_permutation(rng, n):
    perm = list(range(n))
    for i in range(n - 1, 0, -1):
        k = rng.randint(0, i)
        perm[i], perm[k] = perm[k], perm[i]
    return tuple(perm)


def cost(M, perm):
    return sum(row[j] for row, j in zip(M, perm))


def offsets_hold(M, sigma, offsets):
    """The comparisons ``verify_independence`` makes, on a matrix: in every
    row i, column sigma[i] is the only minimiser of M[i][c] + offsets[c]."""
    return all(M[i][s] + offsets[s] < x + b
               for i, s in enumerate(sigma)
               for c, (x, b) in enumerate(zip(M[i], offsets)) if c != s)


def check_strict_offsets(M, sigma, unique):
    """``strict_offsets(M, sigma)`` gives offsets that pass the comparisons
    if ``unique``, and otherwise a permutation tau != sigma of no greater
    cost; returns ``unique``."""
    offsets, tau = strict_offsets(M, sigma)
    if unique:
        assert tau is None and offsets_hold(M, sigma, offsets), (M, sigma, offsets)
        return True
    assert offsets is None and tau is not None and tau != sigma, (M, sigma)
    assert sorted(tau) == list(range(len(M))), (M, sigma, tau)
    assert cost(M, tau) <= cost(M, sigma), (M, sigma, tau)
    return False


class TestUniqueMinPermutation:
    """``strict_offsets``, on the exchange graph, against enumeration and
    against the subset DP."""

    def test_agrees_with_brute_force(self):
        # entries in a small range, so that ties are common
        rng = SplitMix64(0x7E57)
        unique = 0
        for t in range(3200):
            n = 2 + t % 4
            M = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
            costs = {p: sum(M[i][p[i]] for i in range(n))
                     for p in permutations(range(n))}
            winner = min(costs, key=costs.get)
            want = brute_force_unique_min(M)
            check_strict_offsets(M, winner, want is not None)
            other = random_permutation(rng, n)
            check_strict_offsets(M, other, want == other)
            unique += want is not None
        # both outcomes are exercised
        assert 0 < unique < 3200

    def test_agrees_with_subset_dp(self):
        rng = SplitMix64(0xD1CE)
        outcomes = set()
        for n in range(6, 13):
            for spread in (3, n * n):
                M = [[rng.randint(-spread, spread) for _ in range(n)]
                     for _ in range(n)]
                perm, unique = dp_unique_min(M)
                check_strict_offsets(M, perm, unique)
                other = random_permutation(rng, n)
                if other != perm:
                    check_strict_offsets(M, other, False)
                outcomes.add(unique)
        assert outcomes == {True, False}

    def test_fractions_are_exact(self):
        third = Fraction(1, 3)
        check_strict_offsets([[third, 0], [0, third]], (1, 0), True)
        check_strict_offsets([[third, 0], [0, third]], (0, 1), False)
        check_strict_offsets([[third, third], [0, 0]], (0, 1), False)
        check_strict_offsets([[third, third], [0, 0]], (1, 0), False)
        # sigma is not row-minimal here: b_1 - b_0 must lie in (-2/3, -1/3),
        # so the offsets are in units of 1/(n * den), finer than the entries
        check_strict_offsets([[0, third], [-third, third]], (1, 0), True)
        offsets, _tau = strict_offsets([[0, third], [-third, third]], (1, 0))
        assert -2 * third < offsets[1] - offsets[0] < -third
        assert {b.denominator for b in offsets} != {1}

    def test_floats_rejected(self):
        # in floats the second permutation sums to more than the first,
        # but the matrix meant is singular
        with pytest.raises(PreconditionError, match="not an exact rational"):
            strict_offsets([[0.1, 0.2], [0.2, 0.30000000000000004]], (0, 1))
        for perm in ((0, 1), (1, 0)):
            offsets, tau = strict_offsets([["1/10", "1/5"], ["1/5", "3/10"]], perm)
            assert offsets is None and tau is not None

    @pytest.mark.parametrize("perm", [(0.0, 1.0), (1.0, 0), (False, True),
                                      (Fraction(0), 1), ("0", "1")])
    def test_non_int_permutation_rejected(self, perm):
        # (0.0, 1.0) and (False, True) sort equal to [0, 1] but are no
        # permutation of the columns
        with pytest.raises(PreconditionError, match="not a permutation"):
            strict_offsets([[0, 1], [1, 0]], perm)

    def test_non_square_rejected_large_accepted(self):
        with pytest.raises(PreconditionError):
            strict_offsets([[0, 1], [2]], (0, 1))
        with pytest.raises(PreconditionError):
            strict_offsets([[0, 1], [2, 3]], (0, 0))
        # no size cap: a planted permutation on zeros, every other entry
        # positive, is the unique minimiser; a second zero on the planted
        # rows' columns makes a tie
        rng = SplitMix64(0xB16)
        for n in (13, 20):
            planted = random_permutation(rng, n)
            M = [[0 if planted[i] == j else rng.randint(1, 9) for j in range(n)]
                 for i in range(n)]
            check_strict_offsets(M, planted, True)
            swapped = list(planted)
            swapped[0], swapped[1] = swapped[1], swapped[0]
            check_strict_offsets(M, tuple(swapped), False)
            M[0][planted[1]] = M[1][planted[0]] = 0
            check_strict_offsets(M, planted, False)


class TestCompetingPermutation:
    """``strict_offsets`` returns offsets exactly when sigma is the unique
    minimiser, and otherwise a permutation tau != sigma of no greater
    cost, against enumeration and the subset DP."""

    def test_agrees_with_brute_force(self):
        # entries in a small range, so that ties are common; every third
        # matrix has Fraction entries over mixed denominators
        rng = SplitMix64(0xC0A7)
        outcomes = set()
        for t in range(600):
            n = 2 + t % 5
            M = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
            if t % 3 == 0:
                M = [[Fraction(x, rng.randint(1, 3)) for x in row] for row in M]
            winner = brute_force_unique_min(M)
            sigma = winner if winner is not None and t % 2 else \
                random_permutation(rng, n)
            outcomes.add(check_strict_offsets(M, sigma, sigma == winner))
        assert outcomes == {True, False}

    def test_agrees_with_subset_dp(self):
        rng = SplitMix64(0xC0D9)
        outcomes = set()
        for t in range(600):
            n = 2 + t % 6
            M = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
            if t % 3 == 0:
                M = [[Fraction(x, rng.randint(1, 3)) for x in row] for row in M]
            perm, unique = dp_unique_min(M)
            outcomes.add(check_strict_offsets(M, perm, unique))
            other = random_permutation(rng, n)
            if other != perm:
                check_strict_offsets(M, other, False)
        assert outcomes == {True, False}


class TestStrictOffsetsOnRhoZero:
    """The matrices of the rho = 0 experiment, each doctored at one entry
    so that swapping two rows of the matching sigma costs exactly as much
    as sigma, or one more."""

    SHAPES = ((2, 2), (3, 2), (2, 3), (2, 4), (3, 3))

    def test_one_transposition_ties_sigma(self):
        tried = 0
        for rows, cols in self.SHAPES:
            chain = default_generic_chain(rows * cols)
            for T in enumerate_tableaux(rows, cols):
                M = rho_zero_matrix(T, chain)
                sigma = table_matching(T, chain)[1]
                check_strict_offsets(M, sigma, True)
                for i, i2 in combinations(range(len(M)), 2):
                    a, b = sigma[i], sigma[i2]
                    tied = [list(row) for row in M]
                    # the swap of rows i and i2 now costs what sigma does
                    tied[i][b] = M[i][a] + M[i2][b] - M[i2][a]
                    assert tied[i][b] < M[i][b]
                    offsets, tau = strict_offsets(tied, sigma)
                    assert offsets is None and tau != sigma, (T.entries, i, i2)
                    assert cost(tied, tau) <= cost(tied, sigma)
                    # sigma was the unique minimiser and only the entry
                    # (i, b) fell, so every rival of no greater cost takes it
                    assert tau[i] == b, (T.entries, i, i2, tau)
                    tried += 1
        assert tried == 2066

    def test_one_more_keeps_offsets(self):
        # a swap that costs one more than sigma (in units of 1/L) is a
        # cycle of two arcs and exchange weight 1: it must not pass as a
        # tie however small the gap
        outcomes = []
        for rows, cols in self.SHAPES:
            chain = default_generic_chain(rows * cols)
            for T in enumerate_tableaux(rows, cols):
                M = rho_zero_matrix(T, chain)
                sigma = table_matching(T, chain)[1]
                for i in range(len(M) - 1):
                    a, b = sigma[i], sigma[i + 1]
                    near = [list(row) for row in M]
                    near[i][b] = M[i][a] + M[i + 1][b] - M[i + 1][a] + 1
                    perm, unique = dp_unique_min(near)
                    outcomes.append(check_strict_offsets(
                        near, sigma, unique and perm == sigma))
        assert outcomes.count(True) > len(outcomes) // 2


def g4_family_and_certificate():
    T = next(enumerate_tableaux(2, 2))
    chain = default_generic_chain(4)
    fam = rho_zero_family(T, chain)
    cert = table_certificate(T, chain)
    assert verify_independence(fam, cert)
    return fam, cert


class TestVerifyIndependence:
    def test_swapped_points_rejected(self):
        # swapping two rows moves the unique minimiser to another
        # permutation, so the stated one no longer wins
        fam, cert = g4_family_and_certificate()
        pts = list(cert.points)
        pts[0], pts[1] = pts[1], pts[0]
        bad = IndependenceCertificate(tuple(pts), cert.permutation, cert.offsets)
        assert not verify_independence(fam, bad)

    def test_wrong_permutation_rejected(self):
        fam, cert = g4_family_and_certificate()
        n = len(fam)
        for perm in permutations(range(n)):
            if perm != cert.permutation:
                bad = IndependenceCertificate(cert.points, perm, cert.offsets)
                assert not verify_independence(fam, bad)
        for perm in ((0,) * n, tuple(range(n - 1)), tuple(range(1, n + 1)),
                     tuple(range(n + 1))):
            bad = IndependenceCertificate(cert.points, perm, cert.offsets)
            assert not verify_independence(fam, bad)

    def test_non_int_permutation_rejected(self):
        fam, cert = g4_family_and_certificate()
        for perm in (tuple(float(j) for j in cert.permutation),
                     tuple(Fraction(j) for j in cert.permutation),
                     tuple(bool(j) if j < 2 else j for j in cert.permutation)):
            assert sorted(perm) == sorted(cert.permutation)
            bad = IndependenceCertificate(cert.points, perm, cert.offsets)
            assert verify_independence(fam, bad) is False

    def test_offsets_of_another_size_rejected(self):
        fam, cert = g4_family_and_certificate()
        for offsets in (cert.offsets[:-1], cert.offsets + (0,), ()):
            bad = IndependenceCertificate(cert.points, cert.permutation, offsets)
            assert not verify_independence(fam, bad)

    def test_changed_offset_rejected(self):
        # raising b_c lets another function win at c's point; lowering it
        # lets c win at another function's point
        fam, cert = g4_family_and_certificate()
        for c in range(len(fam)):
            for delta in (100, -100):
                offsets = list(cert.offsets)
                offsets[c] += delta
                bad = IndependenceCertificate(cert.points, cert.permutation,
                                              tuple(offsets))
                assert not verify_independence(fam, bad)

    def test_float_offsets_rejected(self):
        fam, cert = g4_family_and_certificate()
        bad = IndependenceCertificate(cert.points, cert.permutation,
                                      tuple(float(b) for b in cert.offsets))
        with pytest.raises(PreconditionError, match="not an exact rational"):
            verify_independence(fam, bad)

    def test_tied_matrix_rejected(self):
        fam, cert = g4_family_and_certificate()
        # a repeated point gives two equal rows: no permutation has offsets
        pts = (cert.points[0],) + cert.points[:-1]
        M = [[f(p) for f in fam] for p in pts]
        for perm in permutations(range(len(fam))):
            assert strict_offsets(M, perm)[0] is None
            assert not verify_independence(
                fam, IndependenceCertificate(pts, perm, cert.offsets))
        # a repeated function gives two equal columns
        twin = [fam[0], fam[0]] + fam[2:]
        assert not verify_independence(twin, cert)

    def test_equal_sums_are_not_strict(self):
        # two equal functions with equal offsets tie at every point: only a
        # strict comparison rejects them
        G = theta_graph()
        f, _g = base_pair(G)
        a, b = G.vertex_point("a"), G.vertex_point("b")
        for perm in ((0, 1), (1, 0)):
            assert not verify_independence(
                [f, f], IndependenceCertificate((a, b), perm, (0, 0)))


def planted_families():
    """rho = 0 families with theta = min(f_a + b_a, f_b + b_b) appended,
    each with the dependent sub-family [f_a, f_b, theta] and its offsets."""
    out = []
    for rows, cols in ((2, 2), (1, 3), (1, 4)):
        chain = default_generic_chain(rows * cols)
        for T in enumerate_tableaux(rows, cols):
            fam = rho_zero_family(T, chain)
            for a, b, ba, bb in ((0, 1, 0, 0), (0, len(fam) - 1, 2, -1)):
                theta = min_combination([fam[a], fam[b]], [ba, bb])
                out.append((fam + [theta], [fam[a], fam[b], theta], [ba, bb, 0]))
    return out


def candidate_points(funcs):
    """The vertices, every breakpoint of any function and the midpoints
    between consecutive ones, in a fixed order."""
    G = funcs[0].graph
    points = [G.vertex_point(v) for v in G.vertices]
    for ei in range(len(G.edges)):
        offs = sorted({o for f in funcs for (o, _v) in f.data[ei]})
        points += [G.point(ei, o) for o in offs[1:-1]]
        points += [G.point(ei, (a + b) / 2) for a, b in zip(offs, offs[1:])]
    return points


def assert_no_certificate(fam, seed):
    """At 5 seeded n-subsets of candidate_points(fam), no permutation has
    strict offsets, so no certificate on those points passes
    verify_independence."""
    rng = SplitMix64(seed)
    points = candidate_points(fam)
    n = len(fam)
    assert len(points) >= n
    for _draw in range(5):
        picked = random_permutation(rng, len(points))[:n]
        pts = tuple(points[i] for i in picked)
        M = [[f(p) for f in fam] for p in pts]
        for perm in permutations(range(n)):
            assert strict_offsets(M, perm)[0] is None, (pts, perm)


class TestFindIndependenceCertificate:
    """No point set certifies a dependent family."""

    def test_planted_dependent_families_get_none(self):
        for t, (fam, sub, offsets) in enumerate(planted_families()):
            assert verify_dependence(sub, offsets) == (True, None)
            assert_no_certificate(fam, 0xCE27 + t)

    def test_point_contact_family_gets_no_certificate(self):
        # dependent, although find_dependence misses it: no certificate
        # proves it independent either
        fam = point_contact_family()
        assert verify_dependence(fam, [0, 0, 0, 0]) == (True, None)
        assert_no_certificate(fam, 0xC0DE)

    def test_independent_pair(self):
        # f(a) = g(b) = 0 and f(b) = g(a) > 0: a matched to f and b to g
        # is the unique minimiser
        G = theta_graph()
        f, g = base_pair(G)
        a, b = G.vertex_point("a"), G.vertex_point("b")
        assert verify_independence([f, g], IndependenceCertificate((a, b), (0, 1), (0, 0)))
        assert not verify_independence([f, g], IndependenceCertificate((a, b), (1, 0), (0, 0)))

    def test_deterministic(self):
        chain = default_generic_chain(4)
        for T in enumerate_tableaux(2, 2):
            certs = {gp_rho_zero_experiment(T, chain).independence_certificate
                     for _ in range(2)}
            assert certs == {table_certificate(T, chain)}


def test_all_626_tableaux_certified():
    """Every tableau of shape (2,3) at g = 6, the (6,2,6) family, is proved
    independent by the certificate of its empty-cell table."""
    chain = default_generic_chain(6)
    tableaux = list(enumerate_tableaux(2, 3))
    assert len(tableaux) == 5
    for T in tableaux:
        rep = gp_rho_zero_experiment(T, chain)
        assert rep.verdict == "independent", T.entries
        assert verify_independence(rho_zero_family(T, chain),
                                   rep.independence_certificate)
        assert rep.independence_certificate == table_certificate(T, chain)


@pytest.mark.parametrize("shape", [(2, 4), (4, 2), (3, 3), (2, 5), (5, 2)])
def test_g8_to_g10_tableaux_certified(shape):
    """Every tableau at g = 8-10 (154 in all) is proved independent by the
    certificate of its empty-cell table."""
    chain = default_generic_chain(shape[0] * shape[1])
    for T in enumerate_tableaux(*shape):
        rep = gp_rho_zero_experiment(T, chain)
        assert rep.verdict == "independent", T.entries
        assert rep.independence_certificate == table_certificate(T, chain)
