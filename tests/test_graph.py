"""Tests for points, metric graphs, divisors, regions, and chains."""
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from tropdiv import (BNParams, ChainOfLoops, Divisor, Interval, MetricGraph,
                     Point, Region, canonical_divisor, default_generic_chain)
from tropdiv.chainbn import Tableau, build_Dj, chips_on_each_loop_check
from tropdiv.errors import GraphError, PreconditionError
from tropdiv.graph import _POINT_CACHE_SIZE, _rat, contains_point_in
from tropdiv.independence import strict_offsets
from tropdiv.plfunc import PLFunction, distance_function
from tropdiv.reduce import _Lattice, is_reduced, rank, rank_subdivision_oracle, v_reduce
from tropdiv.sampling import SplitMix64, random_point
from tropdiv import serialize as sz

from . import reference_core
from .conftest import (cell_regions, circle_graph, coprime_graph, k4_graph,
                       petersen_graph, theta_graph)


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

    @pytest.mark.parametrize("make", [theta_graph, coprime_graph,
                                      lambda: default_generic_chain(3).graph])
    def test_integer_constructor_is_point(self, make):
        # every n/d from one end of each edge to the other, in lowest terms
        # and not, first built by either constructor; past the ends raises
        for first_by_ints in (True, False):
            G = make()
            for e, length in enumerate(G.int_lengths):
                for d in (G.scale, 2 * G.scale, 3 * G.scale):
                    top = length * (d // G.scale)
                    for n in range(top + 1):
                        if first_by_ints:
                            p = G._point_at(e, n, d)
                            assert G.point(e, Fraction(n, d)) is p
                        else:
                            p = G.point(e, Fraction(n, d))
                            assert G._point_at(e, n, d) is p
                        assert G._point_at(e, 5 * n, 5 * d) is p
                    for n in (-1, top + 1):
                        with pytest.raises(GraphError, match="out of bounds"):
                            G._point_at(e, n, d)
            with pytest.raises(GraphError, match="no edge"):
                G._point_at(len(G.edges), 1, 2)
            with pytest.raises(GraphError, match="no edge"):
                G._point_at(-1, 1, 2)

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
        # a Point is never equal to what is not one, its vertex name included
        assert G.vertex_point("a") != "a" and p != (2, Fraction(1, 3))

    @pytest.mark.parametrize("vertex,edge,offset", [
        (None, 1, 0.5), (None, 1, "1/2"), (None, 1, None), (None, 1, True), ("a", -1, 0.0)])
    def test_offset_must_be_an_int_or_a_fraction(self, vertex, edge, offset):
        with pytest.raises(GraphError, match="not an int or a Fraction"):
            Point(vertex, edge, offset)
        assert Point(None, 1, 1) == Point(None, 1, Fraction(1))

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

    @pytest.mark.parametrize("vertices,edges,match", [
        (["a", "a"], [("a", "a", 1)], "duplicate vertex names"),
        (["a", "b"], [("a", "c", 1)], "unknown vertex"),
        ([], [], "not connected"),
    ])
    def test_rejects_malformed_graph(self, vertices, edges, match):
        with pytest.raises(GraphError, match=match):
            MetricGraph(vertices, edges)

    @pytest.mark.parametrize("vertices,edges", [
        ("ab", [("a", "b", 1)]),
        (["a", "b"], ["ab1"]),
        (["a", "b"], "ab"),
        (5, [("a", "b", 1)]),
        (["a", "b"], 5),
        (["a", "b"], [5]),
    ])
    def test_vertices_edges_and_each_edge_must_be_lists(self, vertices, edges):
        # a string's characters would pass for names or for an edge's
        # fields: "ab1" unpacks to ("a", "b", "1")
        with pytest.raises(GraphError, match="must be a list"):
            MetricGraph(vertices, edges)

    def test_unknown_vertex_rejected(self):
        G = theta_graph()
        with pytest.raises(GraphError, match="no vertex zz"):
            G.vertex_point("zz")
        with pytest.raises(GraphError, match="unknown vertex zz"):
            G.check_point(Point("zz", -1, Fraction(0)))

    @pytest.mark.parametrize("edge, offset", [(3, Fraction(5)), (3, Fraction(0)),
                                              (-1, Fraction(1, 2))])
    def test_vertex_point_in_another_form_is_rejected(self, edge, offset):
        # such a point would sit beside v1's own point as a second key for
        # the same vertex, so a divisor could hold two terms at v1
        with pytest.raises(GraphError, match="vertex point v1"):
            Point("v1", edge, offset)

    @pytest.mark.parametrize("edges, match", [
        ([["a", "b"]], "two ends and a length"),
        ([[]], "two ends and a length"),
        ([["a", "b", "1", "x"]], "two ends and a length"),
        ([[["a"], "b", "1"]], "not a string"),
    ])
    def test_malformed_edge_read_from_json_raises_graph_error(self, edges, match):
        # each of these once raised a bare ValueError ("not enough / too
        # many values to unpack") or TypeError ("unhashable type: 'list'")
        with pytest.raises(GraphError, match=match):
            sz.graph_from_json({"vertices": ["a", "b"], "edges": edges})

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

    @pytest.mark.parametrize("bad", [
        Point(None, 1, Fraction(5)),        # beyond edge 1's length 1
        Point(None, 1, Fraction(-1, 2)),
        Point(None, 1, Fraction(0)),        # a vertex not in canonical form
        Point("zz", -1, Fraction(0)),
        Point(None, 99, Fraction(1, 2)),
        # just past the end of edge 0, of length 10/3, at offsets whose
        # denominators 3 does not divide
        Point(None, 0, Fraction(167, 50)),
        Point(None, 0, Fraction(24, 7)),
    ])
    def test_distances_check_their_points(self, bad):
        chain = default_generic_chain(2)
        G, v1 = chain.graph, chain.v(1)
        for call in (lambda: G.distance(v1, bad), lambda: G.distance(bad, v1),
                     lambda: G.vertex_distances(bad), lambda: distance_function(G, bad)):
            with pytest.raises(GraphError):
                call()

    def test_edge_index(self):
        G = theta_graph()
        assert [G.edge_index(ei) for ei in range(3)] == [0, 1, 2]
        for bad in (-1, 3, 99):
            with pytest.raises(GraphError, match=f"no edge {bad}$"):
                G.edge_index(bad)
        for bad in (True, False, 1.0, "1", None, Fraction(1)):
            with pytest.raises(GraphError, match="no edge .*not an integer"):
                G.edge_index(bad)

    def test_edge_length_checks_its_index(self):
        # -1 is not the last edge, nor True edge 1
        G = theta_graph()
        assert [G.edge_length(ei) for ei in range(3)] == [2, 3, 5]
        for bad in (-1, 3, 99):
            with pytest.raises(GraphError, match=f"no edge {bad}$"):
                G.edge_length(bad)
        for bad in (True, 1.0):
            with pytest.raises(GraphError, match="no edge .*not an integer"):
                G.edge_length(bad)

    @pytest.mark.parametrize("edge", [1.0, True])
    def test_point_on_a_non_int_edge_rejected_by_every_user(self, edge):
        # 1.0 is no edge index, and True is not edge 1
        G = theta_graph()
        a, bad = G.vertex_point("a"), Point(None, edge, Fraction(1, 2))
        D = Divisor({bad: 1})
        for call in (lambda: v_reduce(G, D, a), lambda: rank(G, D),
                     lambda: is_reduced(G, D, a), lambda: G.distance(bad, a),
                     lambda: G.distance(a, bad)):
            with pytest.raises(GraphError, match="not an integer"):
                call()

    @pytest.mark.parametrize("x", [Fraction(333, 100), Fraction(23, 7)])
    def test_points_just_inside_an_edge_are_accepted(self, x):
        # just short of the end w1 of edge 0 (v1 to w1, of length 10/3);
        # the shortest way from v1 may go round by edge 1, of length 1
        chain = default_generic_chain(2)
        G, v1 = chain.graph, chain.v(1)
        assert G.edge_length(0) == Fraction(10, 3) and G.edge_length(1) == 1
        p = Point(None, 0, x)
        G.check_point(p)
        want = min(x, 1 + Fraction(10, 3) - x)
        assert G.distance(v1, p) == G.distance(p, v1) == want
        assert G.vertex_distances(p)["v1"] == want


def random_multigraph(rng: SplitMix64) -> MetricGraph:
    """A random connected graph on 1 to 5 vertices: a random tree, copies
    of some of its edges, chords and self-loops, each edge oriented
    either way, with lengths of denominators up to 6."""
    n = rng.randint(1, 5)
    names = [f"n{i}" for i in range(n)]

    def length():
        return Fraction(rng.randint(1, 12), rng.randint(1, 6))

    edges = [(names[rng.randint(0, i - 1)], names[i], length()) for i in range(1, n)]
    # a single vertex gets at least one self-loop
    for _ in range(rng.randint(n == 1, 3)):
        kind = rng.below(3)
        if kind == 0 and edges:
            u, v, _l = rng.choice(edges)
        elif kind == 1:
            u, v = rng.choice(names), rng.choice(names)
        else:
            u = v = rng.choice(names)
        edges.append((u, v, length()))
    edges = [(v, u, l) if rng.below(2) else (u, v, l) for (u, v, l) in edges]
    return MetricGraph(names, edges)


class TestIntegerDistances:
    """``distance``, ``vertex_distances`` and ``distance_function`` on the
    graph's integer form against ``reference_core``'s ``Fraction``
    Dijkstra, on random graphs with parallel edges, self-loops and
    bridges."""

    def test_match_the_fraction_dijkstra(self):
        rng = SplitMix64(31)
        seen = set()
        for _ in range(150):
            G = random_multigraph(rng)
            for ei, (u, v, _l) in enumerate(G.edges):
                if u == v:
                    seen.add("self-loop")
                elif sum({u, v} == {a, b} for (a, b, _l) in G.edges) > 1:
                    seen.add("parallel")
                else:
                    try:
                        MetricGraph(G.vertices, G.edges[:ei] + G.edges[ei + 1:])
                    except GraphError:
                        seen.add("bridge")
            pts = [random_point(G, rng, rng.choice([2, 3, 5, 7, 16])) for _ in range(3)]
            ei = rng.below(len(G.edges))
            pts += [G.point(ei, G.edge_length(ei) * Fraction(k, 9)) for k in (2, 5)]
            for p in pts:
                if p.offset.denominator > 1 and G.scale % p.offset.denominator:
                    seen.add("offset off the graph's scale")
                assert G.vertex_distances(p) == reference_core.vertex_distances(G, p)
                cap = rng.choice([None, Fraction(rng.randint(1, 20), rng.choice([1, 5, 11]))])
                f = distance_function(G, p, cap)
                assert f == reference_core.distance_function(G, p, cap)
                for q in pts:
                    if p == q:
                        seen.add("p == q")
                    elif not p.is_vertex and p.edge == q.edge:
                        seen.add("same edge")
                    d = G.distance(p, q)
                    assert d == reference_core.distance(G, p, q)
                    assert f(q) == (d if cap is None else min(d, cap))
        assert seen == {"self-loop", "parallel", "bridge", "offset off the graph's scale",
                        "p == q", "same edge"}


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

    def test_arithmetic_matches_a_dict_reference(self):
        # sums, differences, negatives and multiples of random divisors,
        # many of whose terms cancel, against plain dict arithmetic
        G = theta_graph()
        pts = list(G.vertex_points) + [G.point(e, Fraction(1, 2)) for e in range(3)]
        rng = SplitMix64(5)

        def combine(*terms):
            out = {}
            for D, f in terms:
                for p, c in D.items():
                    out[p] = out.get(p, 0) + f * c
            return {p: c for p, c in out.items() if c}

        cancelled = 0
        for _ in range(300):
            D, E = (Divisor([(rng.choice(pts), rng.randint(-2, 2))
                             for _ in range(rng.randint(0, 4))]) for _ in range(2))
            assert dict((D + E).items()) == combine((D, 1), (E, 1))
            assert dict((D - E).items()) == combine((D, 1), (E, -1))
            assert dict((-D).items()) == combine((D, -1))
            assert D - D == Divisor() and (D - D).is_zero
            for n in range(-2, 3):
                assert dict((D * n).items()) == dict((n * D).items()) == combine((D, n))
            cancelled += len(combine((D, 1), (E, 1))) < len(set(D.support()) | set(E.support()))
        assert cancelled >= 10

    def test_multiple_rejects_the_factors_it_always_rejected(self):
        a, b = theta_graph().vertex_points
        D = Divisor({a: 2, b: -1})
        for n in (Fraction(1, 2), Fraction(2), 2.0, "2"):
            with pytest.raises(GraphError, match="not an integer"):
                D * n
        # a bool times an int coefficient is an int
        assert D * True == D and (D * False).is_zero
        assert Divisor() * 2.0 == Divisor()

    def test_zero_coefficients_dropped(self):
        a = theta_graph().vertex_point("a")
        assert Divisor({a: 0}).support() == []

    def test_rejects_non_integer(self):
        with pytest.raises(GraphError):
            Divisor({theta_graph().vertex_point("a"): Fraction(1, 2)})

    def test_rejects_bool(self):
        with pytest.raises(GraphError, match="not an integer"):
            Divisor({theta_graph().vertex_point("a"): True})

    def test_hash_and_repr(self):
        G = theta_graph()
        a, b = G.vertex_points
        p = G.point(0, Fraction(1, 2))
        D = Divisor({a: 2, p: -1, b: 1})
        assert hash(D) == hash(Divisor([(b, 1), (p, -1), (a, 2)]))
        assert len({D, Divisor({a: 2, b: 1, p: -1}), Divisor({a: 2})}) == 2
        assert repr(D) == "Divisor(2*Point(a) + 1*Point(b) + -1*Point(e0@1/2))"
        assert repr(Divisor({a: 0})) == "Divisor(0)"

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

    @pytest.mark.parametrize("lo_closed,hi_closed", [(True, False), (False, True),
                                                     (True, True)])
    def test_a_degenerate_interval_is_empty_unless_closed_at_both_ends(self, lo_closed,
                                                                        hi_closed):
        # [1, 1) and (1, 1] hold nothing, [1, 1] the point 1 of edge 0
        G = theta_graph()
        reg = Region(G, [Interval(0, Fraction(1), Fraction(1), lo_closed, hi_closed)])
        one_point = lo_closed and hi_closed
        assert reg.is_empty is not one_point
        assert reg.contains(G.point(0, 1)) is one_point
        assert not reg.contains(G.point(0, Fraction(3, 4)))
        assert not reg.contains(G.point(0, Fraction(5, 4)))

    def test_boundary_skips_an_open_end(self):
        # (1/2, 1] on an edge of length 2: the open end 1/2 is not in the
        # region, so only 1 is on its boundary
        G = theta_graph()
        reg = Region(G, [Interval(0, Fraction(1, 2), Fraction(1), lo_closed=False)])
        assert reg.boundary() == {G.point(0, 1)}
        closed = Region(G, [Interval(0, Fraction(1, 2), Fraction(1))])
        assert closed.boundary() == {G.point(0, Fraction(1, 2)), G.point(0, 1)}

    def test_interval_out_of_bounds(self):
        G = theta_graph()
        with pytest.raises(GraphError):
            Region(G, [Interval(0, Fraction(0), Fraction(99))])

    @pytest.mark.parametrize("edge", [99, 3, -1, True, 1.0])
    def test_interval_on_an_edge_the_graph_lacks(self, edge):
        with pytest.raises(GraphError, match="no edge"):
            Region(theta_graph(), [Interval(edge, Fraction(0), Fraction(1))])


class TestPointReaders:
    """Every reader of a point checks it first: on the genus-2 chain, an
    unknown vertex raised a bare ``KeyError`` from ``Region.contains``,
    edge 99 and offset 1000 on edge 0 were simply not in a region,
    ``germs_at`` raised ``IndexError`` for edge 99 and read a germ at
    offset 1000, and ``piece`` put edge -5 on piece -4 and offset 1000 on
    piece 0."""

    BAD = {"vertex_zz": Point("zz", -1, Fraction(0)),
           "edge_99": Point(None, 99, Fraction(1, 2)),
           "edge_-5": Point(None, -5, Fraction(1, 2)),
           "offset_1000": Point(None, 0, Fraction(1000))}

    @staticmethod
    def readers(chain) -> dict:
        G = chain.graph
        everywhere = Region(G, [Interval(ei, Fraction(0), G.edge_length(ei))
                                for ei in range(len(G.edges))])
        f = distance_function(G, chain.v(1))
        return {"edge_coordinates": G.edge_coordinates,
                "Region.contains": everywhere.contains,
                "contains_point_in": lambda p: contains_point_in(Divisor({p: 1}), everywhere),
                "germs_at": f.germs_at,
                "incoming_slope": lambda p: f.incoming_slope(p, 0, 1),
                "piece": chain.piece}

    @pytest.mark.parametrize("reader", ["edge_coordinates", "Region.contains",
                                        "contains_point_in", "germs_at",
                                        "incoming_slope", "piece"])
    @pytest.mark.parametrize("where", BAD)
    def test_a_point_the_graph_lacks_raises(self, chain2, where, reader):
        with pytest.raises(GraphError):
            self.readers(chain2)[reader](self.BAD[where])

    @pytest.mark.parametrize("where", ["vertex_zz", "edge_99", "offset_1000"])
    def test_a_region_of_a_point_the_graph_lacks_raises(self, chain2, where):
        # Region used to take its isolated points unchecked
        with pytest.raises(GraphError):
            Region(chain2.graph, points=[self.BAD[where]])


class TestTrustedConstructors:
    """``MetricGraph`` builds its vertex and edge points unchecked, and
    ``ChainOfLoops`` its graph; each must be what the checked constructor
    gives."""

    @pytest.mark.parametrize("make", [
        lambda: default_generic_chain(3).graph,
        lambda: default_generic_chain(4, extended=True).graph,
        circle_graph, theta_graph, coprime_graph, k4_graph, petersen_graph])
    def test_equal_and_hash_like_checked_points(self, make):
        G = make()
        assert len(G.vertex_points) == len(G.vertices)
        for v, p in zip(G.vertices, G.vertex_points):
            q = Point(v, -1, Fraction(0))
            assert p == q and hash(p) == hash(q) and repr(p) == repr(q)
            assert (p.vertex, p.edge, p.offset) == (v, -1, 0)
            assert type(p.offset) is Fraction and p.is_vertex
            assert G.vertex_point(v) is p
        # _point_at builds each new edge point unchecked too
        for e, length in enumerate(G.int_lengths):
            for k in range(1, 8):
                n, d = length * k, G.scale * 8
                p, q = G._point_at(e, n, d), Point(None, e, Fraction(n, d))
                assert p == q and hash(p) == hash(q) and repr(p) == repr(q)
                assert p.sort_key() == q.sort_key()
                assert type(p.offset) is Fraction and not p.is_vertex

    @pytest.mark.parametrize("extended", [False, True])
    @pytest.mark.parametrize("g", [2, 3, 5])
    def test_chain_graph_matches_the_checked_constructor(self, g, extended):
        # ChainOfLoops builds its graph with the unchecked MetricGraph._of;
        # the checked constructor must accept the same input and agree
        ell = [Fraction(2 * g + i, 3) for i in range(g)]
        m = [str(i + 1) for i in range(g)]
        beta = [Fraction(1, i + 2) for i in range(g - 1)]
        G = ChainOfLoops(g, ell, m, beta, extended=extended, pendant=["5/7", 2]).graph
        H = MetricGraph(list(G.vertices), list(G.edges))
        for field in ("vertices", "vertex_index", "vertex_points", "edges", "edge_ends",
                      "_incidence", "scale", "int_lengths"):
            assert getattr(G, field) == getattr(H, field), field
        assert all(type(length) is Fraction for (_u, _v, length) in G.edges)


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

    @pytest.mark.parametrize("where,count,match", [
        ("ell", 2, "need 3 loop lengths"), ("m", 4, "need 3 loop lengths"),
        ("beta", 3, "need 2 bridge lengths"),
    ])
    def test_length_counts_checked(self, where, count, match):
        lengths = {"ell": [3] * 3, "m": [1] * 3, "beta": [1] * 2}
        lengths[where] = [1] * count
        with pytest.raises(GraphError, match=match):
            ChainOfLoops(3, lengths["ell"], lengths["m"], lengths["beta"])

    @pytest.mark.parametrize("bad", ["333", 5])
    @pytest.mark.parametrize("where", ["ell", "m", "beta", "pendant"])
    def test_lengths_must_be_lists(self, where, bad):
        # "333" has the length of three loops and reads as [3, 3, 3]
        lengths = {"ell": [3] * 3, "m": [1] * 3, "beta": [1] * 2, "pendant": [1, 1]}
        lengths[where] = bad[:len(lengths[where])] if isinstance(bad, str) else bad
        with pytest.raises(GraphError, match=f"{where} must be a list"):
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

    def test_integer_lengths_leave_out_the_pendants(self):
        F = Fraction
        ch = ChainOfLoops(3, [F(5, 2), F(7, 3), 4], [1, F(1, 2), 1], [F(1, 5), 2],
                          extended=True, pendant=[F(1, 7), F(3, 11)])
        assert ch.graph.scale == 2310
        assert ch.integer_lengths == (30, (75, 70, 120), (30, 15, 30), (6, 60))
        assert ch.pendant == (F(1, 7), F(3, 11))

    # the layout of ChainOfLoops(g, [11, 12, ...], [21, 22, ...],
    # [31, 32, ...], pendant=(41, 42)): per g, its core vertices and edges,
    # what the extended chain adds, and bridge_edge(i) on the extended
    # chain; each edge's piece, None on a pendant bridge
    LAYOUTS = {
        2: (["v1", "w1", "v2", "w2"],
            [("v1", "w1", 11), ("v1", "w1", 21), ("w1", "v2", 31),
             ("v2", "w2", 12), ("v2", "w2", 22)],
            ("w0", "v3"), [("w0", "v1", 41), ("w2", "v3", 42)],
            {0: 5, 1: 2, 2: 6}, [0, 0, 1, 2, 2, None, None]),
        3: (["v1", "w1", "v2", "w2", "v3", "w3"],
            [("v1", "w1", 11), ("v1", "w1", 21), ("w1", "v2", 31),
             ("v2", "w2", 12), ("v2", "w2", 22), ("w2", "v3", 32),
             ("v3", "w3", 13), ("v3", "w3", 23)],
            ("w0", "v4"), [("w0", "v1", 41), ("w3", "v4", 42)],
            {0: 8, 1: 2, 2: 5, 3: 9}, [0, 0, 1, 2, 2, 3, 4, 4, None, None]),
    }

    @pytest.mark.parametrize("extended", [False, True])
    @pytest.mark.parametrize("g", [2, 3])
    def test_layout(self, g, extended):
        vertices, edges, (w0, pendant_v), pendants, bridges, pieces = self.LAYOUTS[g]
        ch = ChainOfLoops(g, list(range(11, 11 + g)), list(range(21, 21 + g)),
                          list(range(31, 30 + g)), extended=extended, pendant=[41, 42])
        G = ch.graph
        if extended:
            vertices, edges = [w0, *vertices, pendant_v], edges + pendants
        else:
            bridges = {i: bridges[i] for i in range(1, g)}
            pieces = pieces[:3 * g - 1]
        assert list(G.vertices) == vertices
        assert list(G.edges) == edges
        assert [ch.top_edge(i) for i in range(1, g + 1)] == list(range(0, 3 * g, 3))
        assert [ch.bottom_edge(i) for i in range(1, g + 1)] == list(range(1, 3 * g, 3))
        assert {i: ch.bridge_edge(i) for i in bridges} == bridges
        assert [ch.piece(G.point(ei, Fraction(1, 2))) for ei in range(len(edges))] == pieces
        # a vertex's piece is its index on the core chain: v_i 2i-2, w_i 2i-1
        assert [ch.piece(p) for p in G.vertex_points] == (
            [None, *range(2 * g), None] if extended else list(range(2 * g)))

    @pytest.mark.parametrize("extended", [False, True])
    def test_bad_loop_or_bridge_index_named(self, extended):
        ch = default_generic_chain(3, extended=extended)
        calls = [(ch.ccw_point, (i, t)) for i in (0, 4) for t in (0, 1)]
        calls += [(f, (i,)) for f in (ch.top_edge, ch.bottom_edge) for i in (0, 4, True)]
        calls += [(ch.bridge_edge, (i,)) for i in ((-1, 4) if extended else (0, 3))]
        for f, args in calls:
            with pytest.raises(GraphError, match=f"no (loop|bridge) {args[0]!r} on this chain"):
                f(*args)

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

    def test_bn_params_nonnegative(self):
        assert BNParams(4, 1, 3).rho == 0
        for g, r, d in ((-1, 0, 0), (4, -1, 3), (4, 1, -3)):
            with pytest.raises(PreconditionError, match="nonnegative"):
                BNParams(g, r, d)

    def test_genericity(self):
        assert default_generic_chain(4).generic
        bad = ChainOfLoops(2, [1, 1], [1, 1], [1])
        assert not bad.generic

    def test_genericity_matches_the_set_of_small_ratios(self):
        # loop lengths of small height, so that ratios of small sum, their
        # multiples and near misses all come up
        rng = SplitMix64(0x6E7E)
        # the pendants' own stream, so that rng draws the loops it drew alone
        pendant_rng = SplitMix64(0x9E2D)
        outcomes = set()
        for t in range(200):
            g = 2 + t % 11
            bound = 2 * g - 2
            bad = {Fraction(a, b) for a in range(1, bound) for b in range(1, bound - a + 1)}
            ell = [Fraction(rng.randint(1, 24), rng.randint(1, 12)) for _ in range(g)]
            m = [Fraction(rng.randint(1, 24), rng.randint(1, 12)) for _ in range(g)]
            want = all(x / y not in bad for x, y in zip(ell, m))
            assert ChainOfLoops(g, ell, m, [1] * (g - 1)).generic == want
            # genericity reads the core's lengths only: pendant
            # denominators (13, 17, 19, 23) that no core length has
            pendant = [Fraction(pendant_rng.randint(1, 30),
                                pendant_rng.choice((13, 17, 19, 23)))
                       for _ in range(2)]
            assert ChainOfLoops(g, ell, m, [1] * (g - 1), extended=True,
                                pendant=pendant).generic == want
            outcomes.add((g > 6, want))
        assert len(outcomes) == 4


# past the 4,300 digits that str() writes: an error message that formats it
# raises a bare ValueError instead of the call's own error
BIG = 10**5000


@pytest.mark.parametrize("error,call", [
    pytest.param(GraphError, lambda c, f: c.graph.edge_index(BIG), id="edge_index"),
    pytest.param(GraphError, lambda c, f: c.graph.point(BIG, 0), id="point"),
    pytest.param(GraphError, lambda c, f: c.graph.edge_length(BIG), id="edge_length"),
    pytest.param(GraphError, lambda c, f: c.graph.check_point(Point(None, BIG, 1)),
                 id="check_point"),
    pytest.param(GraphError, lambda c, f: c.top_edge(BIG), id="top_edge"),
    pytest.param(GraphError, lambda c, f: c.bridge_edge(BIG), id="bridge_edge"),
    pytest.param(GraphError, lambda c, f: ChainOfLoops(BIG, [1], [1], []), id="ChainOfLoops"),
    pytest.param(PreconditionError, lambda c, f: build_Dj(Tableau(((1, 2), (3, 4))), c, BIG),
                 id="build_Dj"),
    pytest.param(PreconditionError,
                 lambda c, f: chips_on_each_loop_check(c, Divisor(), [f], BIG),
                 id="chips_on_each_loop_check"),
    pytest.param(PreconditionError,
                 lambda c, f: rank_subdivision_oracle(c.graph, Divisor(), n=-BIG),
                 id="rank_subdivision_oracle"),
    pytest.param(ValueError, lambda c, f: random_point(c.graph, SplitMix64(1), denominator=-BIG),
                 id="random_point"),
    pytest.param(ValueError, lambda c, f: SplitMix64(1).below(BIG), id="below"),
    pytest.param(GraphError, lambda c, f: PLFunction(c.graph, {BIG: []}), id="PLFunction"),
    pytest.param(GraphError, lambda c, f: f.outgoing_slope(BIG, 0, 1), id="outgoing_slope"),
    pytest.param(PreconditionError, lambda c, f: f.incoming_slope(c.v(1), 0, BIG),
                 id="incoming_slope"),
])
def test_a_huge_int_is_named_by_its_bit_length(chain4, error, call):
    with pytest.raises(error, match="of 16610 bits"):
        call(chain4, PLFunction.constant(chain4.graph, 0))
