"""Tests for burning, reduction, equivalence, and rank."""
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from tropdiv import (Divisor, MetricGraph, Point, canonical_divisor,
                     default_generic_chain)
from tropdiv.errors import (GraphError, PreconditionError, ReductionCapError,
                            TheoremViolation)
from tropdiv.plfunc import distance_function, min_combination
from tropdiv.reduce import (default_base, default_rank_points, dhar_burn,
                            dhar_unburnt, effective_class, find_unoccupied_edge,
                            is_equivalent, is_reduced, rank,
                            rank_subdivision_oracle, riemann_roch_check,
                            v_reduce)
from tropdiv.sampling import (SplitMix64, random_divisor, random_effective_divisor,
                              random_point)

from .conftest import circle_graph, theta_graph


def lollipop_graph() -> MetricGraph:
    """An edge a-b with a self-loop at b."""
    return MetricGraph(["a", "b"], [("a", "b", Fraction(2)), ("b", "b", Fraction(3))])


def bouquet_graph() -> MetricGraph:
    """One vertex with two loops: the Laplacian system for the witness's
    vertex values is empty."""
    return MetricGraph(["a"], [("a", "a", Fraction(2)), ("a", "a", Fraction(5, 2))])


def coprime_graph() -> MetricGraph:
    """Three parallel edges whose lengths have coprime denominators 3, 7
    and 11, one of them oriented the other way."""
    return MetricGraph(["a", "b"], [("a", "b", Fraction(1, 3)), ("a", "b", Fraction(2, 7)),
                                    ("b", "a", Fraction(5, 11))])


class TestBurning:
    def test_effective_reduced_divisor_burns_completely(self):
        G = theta_graph()
        a = G.vertex_point("a")
        assert dhar_burn(G, Divisor({a: 5}), a).all_burnt
        assert dhar_unburnt(G, Divisor({a: 5}), a).is_empty

    def test_blocking_chips_survive(self):
        G = circle_graph(4)
        a = G.vertex_point("a")
        p = G.point(0, 1)
        # two chips at the antipode block fire from both sides
        far = G.point(1, Fraction(1))
        burn = dhar_burn(G, Divisor({far: 2}), a)
        assert not burn.all_burnt
        assert far in burn.unburnt
        assert p not in burn.unburnt

    def test_debt_away_from_base_rejected(self):
        G = theta_graph()
        a, b = G.vertex_point("a"), G.vertex_point("b")
        with pytest.raises(PreconditionError):
            dhar_burn(G, Divisor({b: -1}), a)


class TestReduction:
    def test_circle_group_law(self):
        # on a circle, deg-2 divisor p + q reduces at a to a + (p +_circle q)
        G = circle_graph(4)
        a = G.vertex_point("a")
        p = G.point(0, Fraction(1, 2))
        res = v_reduce(G, Divisor({p: 2}), a)
        assert res.reduced == Divisor({a: 1, G.point(0, 1): 1})

    def test_witness_equation_and_normalization(self, chain2, rng):
        G = chain2.graph
        base = default_base(G)
        for _ in range(5):
            D = random_divisor(G, rng, rng.randint(-2, 4))
            res = v_reduce(G, D, base)
            assert D + res.witness.divisor() == res.reduced
            assert res.witness(base) == 0

    def test_idempotent(self, chain2, rng):
        G = chain2.graph
        base = default_base(G)
        D = random_divisor(G, rng, 3)
        red = v_reduce(G, D, base).reduced
        assert is_reduced(G, red, base)
        assert v_reduce(G, red, base).reduced == red

    def test_debt_is_cleared(self, chain2):
        G = chain2.graph
        base = default_base(G)
        far = chain2.w(2)
        res = v_reduce(G, Divisor({far: -2, base: 5}), base)
        assert all(c >= 0 for p, c in res.reduced.items() if p != base)

    def test_cap_raises(self, chain2):
        G = chain2.graph
        D = Divisor({chain2.w(2): 3})
        with pytest.raises(ReductionCapError):
            v_reduce(G, D, default_base(G), max_steps=1)

    def test_cap_counts_debt_transfer_steps(self, chain2):
        # the p-reduced forms that move the debt draw from the same budget
        G = chain2.graph
        base = default_base(G)
        D = Divisor({chain2.w(2): -1, chain2.v(2): 2})
        steps = v_reduce(G, D, base).steps
        assert steps > v_reduce(G, D + Divisor({chain2.w(2): 1}), base).steps
        assert v_reduce(G, D, base, max_steps=steps).steps == steps
        with pytest.raises(ReductionCapError):
            v_reduce(G, D, base, max_steps=steps - 1)

    def test_debt_at_genus_8(self):
        # the cap catches a debt pass whose chip count grows with the genus
        chain = default_generic_chain(8)
        G = chain.graph
        base = chain.v(1)
        rng = SplitMix64(777)
        done = 0
        while done < 10:
            D = random_divisor(G, rng, rng.randint(0, 14))
            if all(c >= 0 for p, c in D.items() if p != base):
                continue
            res = v_reduce(G, D, base, max_steps=2_000)
            assert D + res.witness.divisor() == res.reduced
            assert is_reduced(G, res.reduced, base)
            done += 1

    def test_two_debt_points_and_debt_at_the_base(self, chain3):
        G = chain3.graph
        cone = distance_function(G, chain3.w(1), cap=Fraction(3, 2)).divisor()
        for base in (default_base(G), G.point(chain3.top_edge(2), Fraction(1, 3))):
            D = Divisor({chain3.w(3): -2, chain3.v(2): -1, base: -1, chain3.w(1): 3,
                         G.point(chain3.bottom_edge(1), Fraction(1, 2)): 2})
            res = v_reduce(G, D, base)
            assert D + res.witness.divisor() == res.reduced
            assert res.witness(base) == 0
            assert is_reduced(G, res.reduced, base)
            assert v_reduce(G, D + cone, base).reduced == res.reduced

    def test_debt_on_a_tree(self):
        # on a tree q - p is principal, so the p-reduced form of (g+1)q - p
        # is 0 and each debt chip moves straight to the base
        G = MetricGraph(["a", "b", "c", "d"], [
            ("a", "b", Fraction(2)), ("b", "c", Fraction(3)), ("b", "d", Fraction(1, 2))])
        assert G.betti() == 0
        p, r = G.point(1, Fraction(1)), G.vertex_point("d")
        for q in (G.vertex_point("a"), G.point(0, Fraction(1, 3))):
            assert v_reduce(G, Divisor({q: 1, p: -1}), p).reduced == Divisor()
            D = Divisor({p: -2, r: 3})
            res = v_reduce(G, D, q)
            assert res.reduced == Divisor({q: 1})
            assert D + res.witness.divisor() == res.reduced

    def test_missing_effective_representative_raises(self):
        # with the genus understated, q - p on a circle has no effective
        # representative, and the transfer must say so
        G = circle_graph(4)
        G.betti = lambda: 0
        with pytest.raises(TheoremViolation):
            v_reduce(G, Divisor({G.point(0, Fraction(1)): -1}), G.vertex_point("a"))

    @pytest.mark.parametrize("make", [lollipop_graph, bouquet_graph])
    def test_witness_equation_on_self_loops(self, make, rng):
        G = make()
        loop = len(G.edges) - 1
        for base in (default_base(G), G.point(loop, Fraction(7, 5))):
            for deg in range(-1, 4):
                D = random_divisor(G, rng, deg)
                res = v_reduce(G, D, base)
                assert D + res.witness.divisor() == res.reduced
                assert res.witness(base) == 0
                assert is_reduced(G, res.reduced, base)

    def test_witness_equation_with_coprime_denominators(self, rng):
        # chips at multiples of 1/13 and an interior base at 3/17, so the
        # scale of the integer core takes a factor from every input
        G = coprime_graph()
        slots = [(ei, Fraction(k, 13)) for ei in range(3)
                 for k in range(int(G.edge_length(ei) * 13) + 1)]
        for base in (G.vertex_point("a"), G.point(2, Fraction(3, 17))):
            for deg in range(-1, 5):
                neg = rng.randint(0, 2) + max(0, -deg)
                D = Divisor([(G.point(*rng.choice(slots)), -1 if i < neg else 1)
                             for i in range(deg + 2 * neg)])
                res = v_reduce(G, D, base)
                assert D + res.witness.divisor() == res.reduced
                assert res.witness(base) == 0
                assert is_reduced(G, res.reduced, base)
                fast = v_reduce(G, D, base, track_witness=False)
                assert (fast.reduced, fast.steps) == (res.reduced, res.steps)

    def test_points_the_graph_lacks_are_rejected(self, chain2):
        # an edge of the genus-3 chain that the genus-2 chain lacks, and an
        # offset past its edge's end
        G, v1 = chain2.graph, chain2.v(1)
        foreign = default_generic_chain(3).graph.point(6, Fraction(1, 2))
        past_end = Point(None, 0, G.edge_length(0) + Fraction(1, 2))
        for p in (foreign, past_end):
            for track_witness in (True, False):
                with pytest.raises(GraphError):
                    v_reduce(G, Divisor({p: 1, v1: 1}), v1, track_witness=track_witness)
            with pytest.raises(GraphError):
                v_reduce(G, Divisor({v1: 1}), p)

    def test_track_witness_paths_agree(self, rng):
        # both paths fire the same sets by the same distances, so they agree
        # on the steps taken as well as on the result, also at interior
        # bases and on the extended chain
        for extended in (False, True):
            G = default_generic_chain(3, extended=extended).graph
            bases = [default_base(G), G.point(1, Fraction(1, 2))]
            for i in range(6):
                D = random_divisor(G, rng, rng.randint(-1, 5))
                base = bases[i % 2]
                slow = v_reduce(G, D, base, track_witness=True)
                fast = v_reduce(G, D, base, track_witness=False)
                assert slow.reduced == fast.reduced
                assert slow.steps == fast.steps
                assert D + slow.witness.divisor() == slow.reduced


class TestEquivalence:
    def test_equivalent_after_firing(self, chain2, rng):
        G = chain2.graph
        D = random_effective_divisor(G, rng, 3)
        f = distance_function(G, default_base(G), cap=Fraction(1, 2))
        E = D + f.divisor()
        w = is_equivalent(G, D, E)
        assert w is not None
        assert D + w.divisor() == E

    @pytest.mark.parametrize("make", [
        theta_graph, circle_graph, lambda: default_generic_chain(3).graph,
        lollipop_graph, bouquet_graph, coprime_graph])
    def test_witness_is_the_normalized_function(self, make, rng):
        # div(f) determines f up to a constant, so the witness is f itself,
        # shifted to vanish at the base
        G = make()
        base = default_base(G)
        for i in range(4):
            cones = [distance_function(G, random_point(G, rng),
                                       cap=Fraction(rng.randint(1, 8), 2))
                     for _ in range(3)]
            f = cones[0] if i == 0 else min_combination(
                cones, [rng.randint(-2, 2) for _ in cones])
            D = random_effective_divisor(G, rng, 2)
            assert is_equivalent(G, D, D + f.divisor()) == f.add_const(-f(base))

    def test_inequivalent(self, chain2):
        G = chain2.graph
        D = Divisor({chain2.v(1): 1})
        E = Divisor({chain2.w(2): 1})  # distinct points, genus > 0
        assert is_equivalent(G, D, E) is None

    def test_degree_mismatch(self, chain2):
        G = chain2.graph
        assert is_equivalent(G, Divisor(), Divisor({chain2.v(1): 1})) is None

    def test_effective_class(self, chain2):
        G = chain2.graph
        assert effective_class(G, Divisor({chain2.v(1): 1}))
        assert not effective_class(G, Divisor({chain2.v(1): -1}))


class TestRank:
    def test_known_values(self, chain3):
        G = chain3.graph
        K = canonical_divisor(G)
        assert rank(G, Divisor()) == 0
        assert rank(G, K) == 3 - 1
        assert rank(G, Divisor({chain3.v(1): -1})) == -1
        assert rank(G, Divisor({chain3.v(2): 1})) == 0
        # degree above 2g-2 forces rank d - g
        assert rank(G, K + Divisor({chain3.v(1): 2})) == 6 - 3

    def test_rank_is_class_invariant(self, chain2, rng):
        G = chain2.graph
        D = random_effective_divisor(G, rng, 2)
        f = distance_function(G, chain2.w(1), cap=Fraction(1, 3))
        assert rank(G, D) == rank(G, D + f.divisor())

    def test_subdivision_oracle_agrees(self, chain2, rng):
        G = chain2.graph
        for _ in range(4):
            D = random_divisor(G, rng, rng.randint(-1, 4))
            assert rank(G, D) == rank_subdivision_oracle(G, D, n=4)

    def test_default_rank_points_loopless(self, chain3):
        pts = default_rank_points(chain3.graph)
        assert all(p.is_vertex for p in pts)

    def test_default_rank_points_self_loop(self):
        from tropdiv import MetricGraph
        G = MetricGraph(["a"], [("a", "a", Fraction(3))])
        pts = default_rank_points(G)
        assert len(pts) == 2  # the vertex plus a loop-breaking midpoint


class TestRiemannRoch:
    @pytest.mark.parametrize("g", [2, 3])
    def test_identity_small_sample(self, g):
        chain = default_generic_chain(g)
        G = chain.graph
        rng = SplitMix64(5 * g)
        for _ in range(6):
            D = random_divisor(G, rng, rng.randint(-2, 2 * g))
            ok, r1, r2 = riemann_roch_check(G, D)
            assert ok, (D, r1, r2)


class TestUnoccupiedEdge:
    def test_canonical_skips_an_open_edge(self, chain3):
        G = chain3.graph
        K = canonical_divisor(G)
        tops = [chain3.top_edge(i) for i in range(1, 4)]
        ei = find_unoccupied_edge(G, K, tops)
        assert ei in tops

    def test_requires_canonical_class(self, chain3):
        with pytest.raises(PreconditionError):
            find_unoccupied_edge(chain3.graph, Divisor({chain3.v(1): 1}),
                                 [chain3.top_edge(1)])
