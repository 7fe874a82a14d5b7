"""Tests for points, metric graphs, divisors, regions, and chains."""
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from tropdiv import (ChainOfLoops, Divisor, Interval, MetricGraph, Point,
                     Region, canonical_divisor, check_genericity,
                     default_generic_chain)
from tropdiv.errors import GraphError

from .conftest import circle_graph, theta_graph


class TestPoint:
    def test_endpoints_collapse_to_vertices(self):
        G = theta_graph()
        assert G.point(0, 0) == G.vertex_point("a")
        assert G.point(1, 3) == G.vertex_point("b")
        assert G.point(2, 0) == G.point(0, 0)

    def test_interning(self):
        G = theta_graph()
        assert G.point(1, Fraction(3, 2)) is G.point(1, Fraction(3, 2))
        assert Point.at_vertex("a") is Point.at_vertex("a")

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
        ps = [Point(None, 0, Fraction(1)), Point.at_vertex("a")]
        assert sorted(ps, key=lambda p: p.sort_key())[0].is_vertex


class TestMetricGraph:
    def test_rejects_disconnected(self):
        with pytest.raises(GraphError):
            MetricGraph(["a", "b", "c"], [("a", "b", Fraction(1))])

    def test_rejects_nonpositive_length(self):
        with pytest.raises(GraphError):
            MetricGraph(["a", "b"], [("a", "b", Fraction(0))])

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
        a = Point.at_vertex("a")
        assert Divisor({a: 0}).support() == []

    def test_rejects_non_integer(self):
        with pytest.raises(GraphError):
            Divisor({Point.at_vertex("a"): Fraction(1, 2)})

    def test_effectivity(self):
        a, b = Point.at_vertex("a"), Point.at_vertex("b")
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

    def test_cells_partition_the_chain(self, chain3, rng):
        from tropdiv.sampling import random_point
        regions = [reg for (_name, reg) in chain3.cells()]
        for _ in range(60):
            p = random_point(chain3.graph, rng)
            assert sum(reg.contains(p) for reg in regions) == 1

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
            assert chain3.loop_of_point(p) == 1

    def test_genericity(self):
        assert check_genericity(default_generic_chain(4))
        bad = ChainOfLoops(2, [1, 1], [1, 1], [1])
        assert not check_genericity(bad)

    def test_rank_determining_set_is_vertex_set(self, chain3):
        pts = chain3.rank_determining_set()
        assert len(pts) == len(chain3.graph.vertices)
        assert all(p.is_vertex for p in pts)
