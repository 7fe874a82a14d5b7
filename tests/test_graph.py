"""Tests for points, metric graphs, divisors, regions, and chains."""
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from tropdiv import (ChainOfLoops, Divisor, Interval, MetricGraph, Point,
                     Region, canonical_divisor, default_generic_chain)
from tropdiv.errors import GraphError, PreconditionError
from tropdiv.graph import _POINT_CACHE_SIZE, _rat
from tropdiv.independence import strict_offsets
from tropdiv.plfunc import PLFunction, distance_function
from tropdiv.reduce import _Lattice
from tropdiv.sampling import SplitMix64

from .conftest import cell_regions, circle_graph, theta_graph


class TestRationalStrings:
    """``_rat`` reads "p" or "p/q" with parts ``int()`` reads, and raises
    its caller's error on any other string: no bare ``ValueError`` or
    ``ZeroDivisionError``."""

    @pytest.mark.parametrize("s", ["1/0", "abc", "nan", "inf", "", "1/2/3", "1.5", "1e2"])
    def test_malformed_string_raises_the_callers_error(self, s):
        G = theta_graph()
        with pytest.raises(GraphError, match="not an exact rational"):
            G.point(0, s)
        with pytest.raises(PreconditionError, match="not an exact rational"):
            PLFunction.constant(G, s)
        with pytest.raises(PreconditionError, match="not an exact rational"):
            strict_offsets([[s, 0], [0, 0]], (0, 1))

    @pytest.mark.parametrize("x", [True, False])
    def test_bool_rejected(self, x):
        with pytest.raises(GraphError, match="not an exact rational"):
            _rat(x)
        with pytest.raises(GraphError, match="not an exact rational"):
            MetricGraph(["a", "b"], [("a", "b", x)])

    @pytest.mark.parametrize("s,q", [("3", 3), ("-4/6", Fraction(-2, 3)), (" 1/2 ", Fraction(1, 2)),
                                     ("1/-2", Fraction(-1, 2))])
    def test_fraction_strings_accepted(self, s, q):
        assert _rat(s) == q


class TestPoint:
    def test_endpoints_collapse_to_vertices(self):
        G = theta_graph()
        assert G.point(0, 0) == G.vertex_point("a")
        assert G.point(1, 3) == G.vertex_point("b")
        assert G.point(2, 0) == G.point(0, 0)

    def test_interning(self):
        G = theta_graph()
        assert G.point(1, Fraction(3, 2)) is G.point(1, Fraction(3, 2))
        # one Point per vertex, owned by its graph
        assert G.vertex_point("a") is G.point(0, 0) is G.vertex_points[0]

    def test_vertex_points_are_the_graphs_own(self):
        G = theta_graph()
        assert _Lattice(G, []).point(0) is G.vertex_points[0]
        # the distance from the middle of edge 0 breaks at both vertices
        at_vertices = [p for p in distance_function(G, G.point(0, 1)).divisor().support()
                       if p.is_vertex]
        assert sorted(map(id, at_vertices)) == sorted(map(id, G.vertex_points))
        # another graph's "a" is equal, with the same hash, but its own object
        H = theta_graph()
        a, b = G.vertex_point("a"), H.vertex_point("a")
        assert a == b and hash(a) == hash(b) and a is not b

    def test_non_int_edge_rejected_even_when_cached(self):
        G = theta_graph()
        G.point(1, Fraction(1, 2))
        for edge in (1.0, 1.9, "1", True):
            with pytest.raises(GraphError, match="not an integer"):
                G.point(edge, Fraction(1, 2))

    @pytest.mark.parametrize("name", [["a"], 0, None])
    def test_vertex_name_not_a_string_rejected(self, name):
        with pytest.raises(GraphError, match="not a string"):
            theta_graph().vertex_point(name)

    def test_point_cache_is_bounded(self):
        G = theta_graph()
        first = G.point(0, Fraction(1, 7))
        bound = _POINT_CACHE_SIZE
        # 3 * bound distinct points inside edge 0, of length 2
        for k in range(1, 3 * bound + 1):
            G.point(0, Fraction(k, 3 * bound + 1))
            assert len(G._point_cache) <= bound
        again = G.point(0, Fraction(1, 7))
        assert again == first and hash(again) == hash(first)

    def test_out_of_bounds(self):
        G = theta_graph()
        with pytest.raises(GraphError):
            G.point(0, 3)
        with pytest.raises(GraphError):
            G.point(0, -1)
        with pytest.raises(GraphError):
            G.point(7, 1)

    def test_hash_and_equality(self):
        G = theta_graph()
        p = G.point(2, Fraction(1, 3))
        q = Point(None, 2, Fraction(1, 3))
        assert p == q and hash(p) == hash(q)
        assert p != G.point(2, Fraction(2, 3))

    def test_sort_key_orders_vertices_before_interiors(self):
        ps = [Point(None, 0, Fraction(1)), theta_graph().vertex_point("a")]
        assert sorted(ps, key=lambda p: p.sort_key())[0].is_vertex


class TestMetricGraph:
    def test_rejects_disconnected(self):
        with pytest.raises(GraphError):
            MetricGraph(["a", "b", "c"], [("a", "b", Fraction(1))])

    def test_rejects_nonpositive_length(self):
        with pytest.raises(GraphError):
            MetricGraph(["a", "b"], [("a", "b", Fraction(0))])

    @pytest.mark.parametrize("name", [1, None, True, ("a",)])
    def test_rejects_non_string_vertex_name(self, name):
        with pytest.raises(GraphError, match="not a string"):
            MetricGraph([name, "a"], [(name, "a", 1)])

    def test_betti_and_total_length(self):
        G = theta_graph()
        assert G.betti() == 2
        assert G.total_length() == 10

    def test_distance_on_circle(self):
        G = circle_graph(4)
        a = G.vertex_point("a")
        p = G.point(0, Fraction(3, 2))
        assert G.distance(a, p) == Fraction(3, 2)
        # going the other way around is longer: 1/2 + 2
        q = G.point(1, Fraction(1, 2))
        assert G.distance(p, q) == 2

    @given(st.integers(0, 2), st.integers(0, 16), st.integers(0, 2),
           st.integers(0, 16))
    @settings(max_examples=40, deadline=None)
    def test_distance_is_a_metric(self, e1, n1, e2, n2):
        G = theta_graph()
        p = G.point(e1, G.edge_length(e1) * n1 / 16)
        q = G.point(e2, G.edge_length(e2) * n2 / 16)
        assert G.distance(p, q) == G.distance(q, p)
        assert G.distance(p, q) >= 0
        assert (G.distance(p, q) == 0) == (p == q)
        a = G.vertex_point("a")
        assert G.distance(p, q) <= G.distance(p, a) + G.distance(a, q)


class TestDivisor:
    def test_arithmetic(self):
        G = theta_graph()
        a, b = G.vertex_point("a"), G.vertex_point("b")
        D = Divisor({a: 2, b: -1})
        E = Divisor({b: 1})
        assert (D + E).degree == 2
        assert (D + E).coeff(b) == 0
        assert (-D).coeff(a) == -2
        assert (3 * E).coeff(b) == 3
        assert D - D == Divisor()

    def test_zero_coefficients_dropped(self):
        a = theta_graph().vertex_point("a")
        assert Divisor({a: 0}).support() == []

    def test_rejects_non_integer(self):
        with pytest.raises(GraphError):
            Divisor({theta_graph().vertex_point("a"): Fraction(1, 2)})

    def test_rejects_bool(self):
        with pytest.raises(GraphError, match="not an integer"):
            Divisor({theta_graph().vertex_point("a"): True})

    def test_effectivity(self):
        a, b = theta_graph().vertex_points
        assert Divisor({a: 1}).is_effective
        assert not Divisor({a: 1, b: -1}).is_effective

    def test_canonical_divisor(self):
        G = theta_graph()
        K = canonical_divisor(G)
        assert K.degree == 2 * G.betti() - 2
        assert K.coeff(G.vertex_point("a")) == 1  # valence 3

    def test_canonical_on_chain(self, chain3):
        K = canonical_divisor(chain3.graph)
        assert K.degree == 2 * 3 - 2
        assert all(c >= 0 for _p, c in K.items())


class TestRegion:
    def test_contains_half_open(self):
        G = theta_graph()
        reg = Region(G, [Interval(0, Fraction(0), Fraction(2), True, False)])
        assert reg.contains(G.vertex_point("a"))
        assert reg.contains(G.point(0, 1))
        assert not reg.contains(G.vertex_point("b"))

    def test_empty(self):
        G = theta_graph()
        assert Region(G).is_empty
        assert not Region(G, points=[G.vertex_point("a")]).is_empty

    def test_interval_out_of_bounds(self):
        G = theta_graph()
        with pytest.raises(GraphError):
            Region(G, [Interval(0, Fraction(0), Fraction(99))])


class TestChainOfLoops:
    @pytest.mark.parametrize("g,extended", [(3.0, False), (3, 1), (3, "yes")])
    def test_g_and_extended_types_checked(self, g, extended):
        with pytest.raises(GraphError):
            ChainOfLoops(g, [3] * 3, [1] * 3, [1] * 2, extended=extended)

    @pytest.mark.parametrize("bad", [0, -1, 1.5, "0", "-1/2"])
    @pytest.mark.parametrize("where", ["ell", "m", "beta", "pendant"])
    def test_lengths_checked_by_the_graph(self, where, bad):
        lengths = {"ell": [3] * 3, "m": [1] * 3, "beta": [1] * 2, "pendant": [1, 1]}
        lengths[where][-1] = bad
        with pytest.raises(GraphError):
            ChainOfLoops(3, lengths["ell"], lengths["m"], lengths["beta"],
                         extended=True, pendant=lengths["pendant"])

    @pytest.mark.parametrize("pendant", [(1,), (), (1, 1, 1)])
    def test_pendant_needs_two_lengths(self, pendant):
        with pytest.raises(GraphError, match="2 pendant bridge lengths"):
            ChainOfLoops(2, [3, 3], [1, 1], [1], extended=True, pendant=pendant)

    def test_shape(self, chain3):
        G = chain3.graph
        assert G.betti() == 3
        assert len(G.vertices) == 6
        assert len(G.edges) == 3 * 2 + 2

    def test_rejects_small_genus(self):
        with pytest.raises(GraphError):
            ChainOfLoops(1, [1], [1], [])

    def test_extended_chain_has_pendants(self):
        ch = default_generic_chain(2, extended=True)
        assert "w0" in ch.graph.vertices and "v3" in ch.graph.vertices
        assert ch.graph.valence("w0") == 1
        # pendant bridges exist only on the extended chain
        ch.bridge_edge(0)
        ch.bridge_edge(2)

    @pytest.mark.parametrize("extended", [False, True])
    @pytest.mark.parametrize("g", [2, 3, 4, 5])
    def test_piece_matches_the_cell_regions(self, g, extended, rng):
        from tropdiv.sampling import random_point
        chain = default_generic_chain(g, extended=extended)
        G = chain.graph
        regions = cell_regions(chain)
        pendant_edges = {chain.bridge_edge(0), chain.bridge_edge(g)} if extended else set()
        pendant_vertices = {"w0", f"v{g + 1}"} if extended else set()
        points = [G.vertex_point(v) for v in G.vertices]
        points += [G.point(ei, G.edge_length(ei) / 2) for ei in sorted(pendant_edges)]
        points += [random_point(G, rng) for _ in range(80)]
        for p in points:
            hits = [k for k, reg in enumerate(regions) if reg.contains(p)]
            # the regions partition the core chain and miss the pendants
            pendant = p.vertex in pendant_vertices or p.edge in pendant_edges
            assert len(hits) == (0 if pendant else 1), p
            assert chain.piece(p) == (hits[0] if hits else None), p
        assert chain.piece(chain.v(1)) == 0
        assert chain.piece(chain.w(g)) == 2 * g - 1

    def test_ccw_point_geometry(self, chain3):
        c = chain3.ell[0] + chain3.m[0]
        assert chain3.ccw_point(1, 0) == chain3.w(1)
        assert chain3.ccw_point(1, c) == chain3.w(1)
        assert chain3.ccw_point(1, chain3.ell[0]) == chain3.v(1)
        # small ccw distances stay within that distance of w_1
        for k in range(1, 8):
            t = c * k / 8
            p = chain3.ccw_point(1, t)
            assert chain3.graph.distance(chain3.w(1), p) <= t
            assert chain3.piece(p) == 0

    def test_genericity(self):
        assert default_generic_chain(4).generic
        bad = ChainOfLoops(2, [1, 1], [1, 1], [1])
        assert not bad.generic

    def test_genericity_matches_the_set_of_small_ratios(self):
        # loop lengths of small height, so that ratios of small sum, their
        # multiples and near misses all come up
        rng = SplitMix64(0x6E7E)
        outcomes = set()
        for t in range(200):
            g = 2 + t % 11
            bound = 2 * g - 2
            bad = {Fraction(a, b) for a in range(1, bound) for b in range(1, bound - a + 1)}
            ell = [Fraction(rng.randint(1, 24), rng.randint(1, 12)) for _ in range(g)]
            m = [Fraction(rng.randint(1, 24), rng.randint(1, 12)) for _ in range(g)]
            want = all(x / y not in bad for x, y in zip(ell, m))
            assert ChainOfLoops(g, ell, m, [1] * (g - 1)).generic == want
            outcomes.add((g > 6, want))
        assert len(outcomes) == 4
