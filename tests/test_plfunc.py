"""Tests for piecewise-linear functions, orders, and tropical minima."""
from bisect import bisect_left
from fractions import Fraction
from math import lcm
from operator import itemgetter

import pytest
from hypothesis import given, settings, strategies as st

from tropdiv import (Divisor, MetricGraph, PLFunction, canonical_divisor,
                     default_generic_chain)
from tropdiv.errors import GraphError, PreconditionError
from tropdiv.plfunc import (agreement_region, distance_function, in_R,
                            lower_envelope, min_combination, minchips_holds,
                            obstruction_holds)
from tropdiv import serialize
from tropdiv.sampling import SplitMix64, random_divisor, random_point

from .conftest import (circle_graph, coprime_graph, point_contact_family, solve_potential,
                       theta_graph)


def tent(graph, ei_up, peak, length):
    """A function rising with slope 1 to ``peak`` on one circle edge."""
    data = {ei: [(Fraction(0), Fraction(0)),
                 (graph.edge_length(ei), Fraction(0))]
            for ei in range(len(graph.edges))}
    data[ei_up] = [(Fraction(0), Fraction(0)), (peak, peak),
                   (length, Fraction(0))]
    return PLFunction(graph, data)


class TestConstruction:
    def test_constant(self):
        G = theta_graph()
        f = PLFunction.constant(G, 5)
        assert f(G.point(1, Fraction(1, 2))) == 5
        assert f.divisor().is_zero

    def test_missing_edge_rejected(self):
        G = theta_graph()
        with pytest.raises(GraphError):
            PLFunction(G, {0: [(Fraction(0), Fraction(0)),
                               (Fraction(2), Fraction(0))]})

    def test_data_for_an_unknown_edge_rejected(self):
        H = MetricGraph(["a", "b"], [("a", "b", 1)])
        line = [(0, 0), (1, 1)]
        assert PLFunction(H, {0: line})(H.vertex_point("b")) == 1
        for extra in (5, -1, True, "0"):
            with pytest.raises(GraphError, match="does not have"):
                PLFunction(H, {0: line, extra: [(0, 7)]})
        obj = {"edges": {"0": [{"offset": "0", "value": "0"}, {"offset": "1", "value": "1"}],
                         "5": [{"offset": "0", "value": "7"}]}}
        with pytest.raises(GraphError, match="does not have"):
            serialize.plfunction_from_json(H, obj)

    def test_non_integer_slope_rejected(self):
        G = circle_graph(4)
        data = {0: [(Fraction(0), Fraction(0)), (Fraction(2), Fraction(1, 2))],
                1: [(Fraction(0), Fraction(0)), (Fraction(2), Fraction(1, 2))]}
        with pytest.raises(GraphError):
            PLFunction(G, data)

    def test_non_integer_slope_between_thirds_rejected(self):
        # slope 3/2 on the first third of the edge
        G = circle_graph(4)
        data = {0: [(Fraction(0), Fraction(0)), (Fraction(2, 3), Fraction(1)),
                    (Fraction(4, 3), Fraction(3, 2)), (Fraction(2), Fraction(1, 2))],
                1: [(Fraction(0), Fraction(0)), (Fraction(2), Fraction(1, 2))]}
        with pytest.raises(GraphError, match="non-integer slope"):
            PLFunction(G, data)

    def test_discontinuity_rejected(self):
        G = circle_graph(4)
        data = {0: [(Fraction(0), Fraction(0)), (Fraction(2), Fraction(2))],
                1: [(Fraction(0), Fraction(0)), (Fraction(2), Fraction(0))]}
        with pytest.raises(GraphError):
            PLFunction(G, data)

    @pytest.mark.parametrize("pts", [
        [],
        [(Fraction(1, 2), Fraction(0)), (Fraction(2), Fraction(0))],
        [(Fraction(0), Fraction(0)), (Fraction(3, 2), Fraction(0))],
        [(Fraction(0), Fraction(0)), (Fraction(5, 2), Fraction(0))],
    ], ids=["empty", "late_start", "early_end", "past_end"])
    def test_bad_coverage_rejected(self, pts):
        G = circle_graph(4)
        flat = [(Fraction(0), Fraction(0)), (Fraction(2), Fraction(0))]
        with pytest.raises(GraphError, match="cover"):
            PLFunction(G, {0: pts, 1: flat})

    def test_conflicting_values_rejected(self):
        G = circle_graph(4)
        flat = [(Fraction(0), Fraction(0)), (Fraction(2), Fraction(0))]
        with pytest.raises(GraphError, match="conflicting"):
            PLFunction(G, {0: flat + [(Fraction(1), Fraction(0)), (Fraction(1), Fraction(1))],
                           1: flat})

    def test_input_is_normalized(self):
        # unsorted, with a duplicate, as int, str and Fraction
        G = circle_graph(4)
        f = PLFunction(G, {0: [(2, "0"), ("1/2", Fraction(1, 2)), (0, 0), (Fraction(1, 2), "1/2"),
                               (1, 0)],
                           1: [("2", 0), (0, Fraction(0))]})
        assert f.data == {0: [(0, 0), (Fraction(1, 2), Fraction(1, 2)), (1, 0), (2, 0)],
                          1: [(0, 0), (2, 0)]}
        assert all(type(x) is Fraction for pts in f.data.values()
                   for pt in pts for x in pt)
        assert all(type(pt) is tuple for pts in f.data.values() for pt in pts)

    def test_collinear_points_dropped(self):
        G = circle_graph(4)
        f = PLFunction(G, {0: [(0, 0), (Fraction(1, 3), Fraction(1, 3)), (1, 1),
                               (Fraction(3, 2), Fraction(1, 2)), (2, 0)],
                           1: [(0, 0), (Fraction(1, 7), 0), (1, 0), (2, 0)]})
        assert f.data == {0: [(0, 0), (1, 1), (2, 0)], 1: [(0, 0), (2, 0)]}
        assert f.divisor() == Divisor({G.point(0, 1): 2, G.vertex_point("a"): -1,
                                       G.vertex_point("b"): -1})


class TestOrdersAndDivisors:
    def test_tent_divisor(self):
        G = circle_graph(4)
        f = tent(G, 0, Fraction(1), Fraction(2))
        div = f.divisor()
        # -1 at each vertex germ on the climbing edge is balanced by flat
        # germs elsewhere; the peak gets +2
        assert div.coeff(G.point(0, 1)) == 2
        assert div.coeff(G.vertex_point("a")) == -1
        assert div.coeff(G.vertex_point("b")) == -1
        assert div.degree == 0

    def test_distance_function_divisor(self):
        G = theta_graph()
        a = G.vertex_point("a")
        f = distance_function(G, a)
        div = f.divisor()
        assert div.coeff(a) == -G.valence("a")
        assert div.degree == 0

    def test_distance_function_from_interior_point(self):
        G = circle_graph(4)
        p = G.point(0, Fraction(1, 2))
        f = distance_function(G, p)
        assert f(p) == 0
        assert f.divisor().coeff(p) == -2
        # the far point of the circle is the unique local maximum
        far = G.point(1, Fraction(3, 2))
        assert f.divisor().coeff(far) == 2

    def test_capped_distance(self):
        G = theta_graph()
        a = G.vertex_point("a")
        f = distance_function(G, a, cap=Fraction(1))
        assert f(G.vertex_point("b")) == 1
        assert f(G.point(2, Fraction(1, 2))) == Fraction(1, 2)

    @given(st.integers(0, 2), st.integers(1, 15))
    @settings(max_examples=30, deadline=None)
    def test_principal_divisors_have_degree_zero(self, ei, n):
        G = theta_graph()
        p = G.point(ei, G.edge_length(ei) * n / 16)
        f = distance_function(G, p)
        assert f.divisor().degree == 0

    def test_order_at_matches_divisor(self):
        G = theta_graph()
        f = min_combination([distance_function(G, G.point(1, Fraction(1, 2))),
                             distance_function(G, G.vertex_point("b"))], [0, Fraction(-1, 3)])
        div = f.divisor()
        pts = {G.vertex_point(v) for v in G.vertices} | set(div.support())
        pts |= {G.point(ei, o) for ei, bps in f.data.items() for (o, _v) in bps[1:-1]}
        pts.add(G.point(2, Fraction(1, 7)))
        # the order at p is minus the sum of the slopes leaving it
        assert all(-sum(f.outgoing_slope(ei, off, d) for (ei, off, d) in f.germs_at(p))
                   == div.coeff(p) for p in pts)
        assert not div.is_zero

    def test_divisor_is_additive(self):
        G = theta_graph()
        f = distance_function(G, G.vertex_point("a"))
        g = distance_function(G, G.point(1, Fraction(1, 2)))
        assert (f + g).divisor() == f.divisor() + g.divisor()
        assert (f - g).divisor() == f.divisor() - g.divisor()
        assert f.scale(3).divisor() == 3 * f.divisor()


class TestMinCombination:
    @given(st.integers(-3, 3), st.integers(-3, 3))
    @settings(max_examples=25, deadline=None)
    def test_pointwise_minimum(self, c1, c2):
        G = theta_graph()
        f = distance_function(G, G.vertex_point("a"))
        g = distance_function(G, G.vertex_point("b"))
        theta = min_combination([f, g], [c1, c2])
        for ei in range(3):
            for k in range(9):
                p = G.point(ei, G.edge_length(ei) * k / 8)
                assert theta(p) == min(f(p) + c1, g(p) + c2)

    def test_agreement_region(self):
        G = circle_graph(4)
        f = PLFunction.constant(G, 0)
        g = tent(G, 0, Fraction(1), Fraction(2))
        reg = agreement_region(f, g)
        # g == 0 exactly off the open climbing edge
        assert reg.contains(G.point(1, 1))
        assert not reg.contains(G.point(0, 1))
        assert reg.boundary() != frozenset()

    def test_agreement_with_itself_has_empty_boundary(self):
        G = theta_graph()
        f = distance_function(G, G.vertex_point("a"))
        reg = agreement_region(f, f)
        assert reg.boundary() == frozenset()


def _value_direct(pts, x):
    """Value at x by a linear scan, independent of the library's lookup."""
    for (o1, v1), (o2, v2) in zip(pts, pts[1:]):
        if o1 <= x <= o2:
            return v1 + (v2 - v1) * (x - o1) / (o2 - o1)
    raise AssertionError(f"{x} off the edge")


@st.composite
def envelope_inputs(draw):
    """Pieces with integer slopes on one edge, breakpoints at multiples of
    1/2, and rational offsets; some pieces are shifted copies of earlier
    ones that coincide with them once the offsets are added."""
    length = draw(st.integers(1, 5))
    pieces, offsets = [], []
    for _ in range(draw(st.integers(1, 5))):
        if pieces and draw(st.integers(0, 2)) == 0:
            j = draw(st.integers(0, len(pieces) - 1))
            shift = Fraction(draw(st.integers(-3, 3)), 2)
            pieces.append([(o, v - shift) for (o, v) in pieces[j]])
            offsets.append(offsets[j] + shift)
            continue
        cuts = draw(st.sets(st.integers(1, 2 * length - 1), max_size=4))
        offs = [Fraction(0)] + [Fraction(c, 2) for c in sorted(cuts)] + [Fraction(length)]
        v = Fraction(draw(st.integers(-4, 4)))
        pts = [(offs[0], v)]
        for a, b in zip(offs, offs[1:]):
            v += draw(st.integers(-3, 3)) * (b - a)
            pts.append((b, v))
        pieces.append(pts)
        offsets.append(Fraction(draw(st.integers(-6, 6)), draw(st.integers(1, 3))))
    return pieces, offsets


def scaled_piece(pts):
    """Sorted Fraction breakpoints as an edge of ``PLFunction.scaled``,
    (s, offsets * s, values * s), keeping every breakpoint."""
    s = lcm(*(x.denominator for pt in pts for x in pt))
    return s, tuple(int(o * s) for (o, _v) in pts), tuple(int(v * s) for (_o, v) in pts)


def envelope(pieces, offsets):
    """``lower_envelope`` on Fraction breakpoints, with its entries read
    back as Fractions."""
    S, env = lower_envelope([scaled_piece(pts) for pts in pieces], offsets)
    return [(Fraction(o) / S, Fraction(v) / S, a) for (o, v, a) in env]


def check_envelope(pieces, offsets):
    """lower_envelope against pointwise evaluation at every entry and at
    every cell midpoint."""
    env = envelope(pieces, offsets)

    def direct(x):
        vals = [_value_direct(pts, x) + b for pts, b in zip(pieces, offsets)]
        m = min(vals)
        return m, {j for j, v in enumerate(vals) if v == m}

    offs = [o for (o, _v, _a) in env]
    assert offs == sorted(set(offs))
    assert {o for pts in pieces for (o, _v) in pts} <= set(offs)
    for (o, v, a) in env:
        assert (v, set(a)) == direct(o)
    for (lo, v, a), (hi, w, b) in zip(env, env[1:]):
        m, argmin = direct((lo + hi) / 2)
        # the envelope is concave, so equality at the midpoint means it is
        # affine on the cell: no crossing was missed
        assert m == (v + w) / 2
        assert set(a & b) == argmin
    return env


class TestLowerEnvelope:
    @given(envelope_inputs())
    @settings(max_examples=200, deadline=None)
    def test_matches_pointwise_minimum(self, inputs):
        check_envelope(*inputs)

    def test_point_contact_family(self):
        pieces = [f.data[0] for f in point_contact_family()]
        env = check_envelope(pieces, [0, 0, 0, 0])
        # a dependence: every cell is attained by at least two pieces
        assert all(len(a & b) >= 2 for (_o, _v, a), (_p, _w, b)
                   in zip(env, env[1:]))

    def test_coincident_pieces(self):
        pts = [(Fraction(0), Fraction(0)), (Fraction(2), Fraction(2))]
        env = check_envelope([pts, [(o, v - 1) for (o, v) in pts]], [0, 1])
        assert [a for (_o, _v, a) in env] == [frozenset({0, 1})] * 2


class TestGraphMismatch:
    """Functions on two graph objects never combine, whatever their shapes."""

    @pytest.mark.parametrize("other", [
        theta_graph,
        lambda: MetricGraph(["a", "b"], [("a", "b", 1)] * 3),
        circle_graph,
    ], ids=["same_shape", "other_lengths", "fewer_edges"])
    def test_rejected(self, other):
        f = PLFunction.constant(theta_graph(), 0)
        g = PLFunction.constant(other(), 1)
        for combine in (lambda: min_combination([f, g], [0, 0]),
                        lambda: f + g, lambda: f - g):
            with pytest.raises(PreconditionError, match="different graphs"):
                combine()


class TestRD:
    def test_in_R(self):
        G = circle_graph(4)
        a = G.vertex_point("a")
        D = Divisor({a: 2})
        assert in_R(PLFunction.constant(G, 0), D)
        # the capped cone fires both chips one unit away from a
        assert in_R(distance_function(G, a, cap=Fraction(1)), D)

    def test_not_in_R(self):
        G = circle_graph(4)
        a = G.vertex_point("a")
        D = Divisor({a: 1})
        # firing needs two chips at a, one per downhill germ
        assert not in_R(distance_function(G, a, cap=Fraction(1)), D)


class TestMinChipsAndObstruction:
    def test_minchips_explicit(self):
        G = circle_graph(4)
        a = G.vertex_point("a")
        D = Divisor({a: 2})
        f = PLFunction.constant(G, 0)
        g = distance_function(G, a, cap=Fraction(1))
        assert minchips_holds(D, [f, g])

    def test_obstruction_conclusion(self):
        G = circle_graph(4)
        a = G.vertex_point("a")
        D = Divisor({a: 2})
        funcs = [PLFunction.constant(G, 0),
                 distance_function(G, a, cap=Fraction(1))]
        from tropdiv import Interval, Region
        ball = Region(G, [Interval(0, Fraction(0), Fraction(1))])
        # both D and the fired divisor meet the closed ball around a, so
        # the minimum must as well and the conclusion is True
        assert obstruction_holds(D, funcs, ball)


# ---------------------------------------------------------------------------
# the integer kernels against an exact Fraction reference


def exact_normalize(pts):
    """Sorted, deduplicated breakpoints with the collinear interior ones
    dropped, in Fraction arithmetic."""
    pts = sorted(set(pts))
    out = [pts[0]]
    for (o2, v2), (o3, v3) in zip(pts[1:], pts[2:]):
        o1, v1 = out[-1]
        if (v2 - v1) * (o3 - o2) != (v3 - v2) * (o2 - o1):
            out.append((o2, v2))
    return out + [pts[-1]]


def exact_zip(f, g, op):
    """f op g edge by edge, evaluated at the union of the breakpoints."""
    return {ei: exact_normalize(
        [(o, op(_value_direct(f.data[ei], o), _value_direct(g.data[ei], o)))
         for o in {o for (o, _v) in f.data[ei] + g.data[ei]}])
        for ei in f.data}


def fraction_value_on(pts, off):
    """Value at ``off`` of the function with Fraction breakpoints ``pts``,
    by bisection."""
    # the last breakpoint is never passed over, so it needs no comparison
    i = bisect_left(pts, off, 0, len(pts) - 1, key=itemgetter(0))
    o2, v2 = pts[i]
    if o2 == off:
        return v2
    o1, v1 = pts[i - 1]
    return v1 + (v2 - v1) * (off - o1) / (o2 - o1)


def fraction_envelope(pieces, offsets):
    """``lower_envelope`` in Fraction arithmetic, on Fraction breakpoint
    lists: (offset, value, attaining indices) at every breakpoint of any
    piece and at every crossing of two pieces."""
    base = sorted({o for pts in pieces for (o, _v) in pts})
    rows = [[fraction_value_on(pts, o) + b for pts, b in zip(pieces, offsets)]
            for o in base]
    n = len(pieces)
    out = []

    def emit(o, row):
        m = min(row)
        out.append((o, m, frozenset(j for j in range(n) if row[j] == m)))

    for a, ra, b, rb in zip(base, rows, base[1:], rows[1:]):
        emit(a, ra)
        cross = set()
        for j in range(n):
            for k in range(j + 1, n):
                da, db = ra[j] - ra[k], rb[j] - rb[k]
                if (da > 0 > db) or (da < 0 < db):
                    cross.add(a + (b - a) * da / (da - db))
        for t in sorted(cross):
            s = (t - a) / (b - a)
            emit(t, [va + (vb - va) * s for va, vb in zip(ra, rb)])
    emit(base[-1], rows[-1])
    return out


def exact_potential(G, E, base):
    """The data of the f with div(f) = E and f(base) = 0, by dense
    Gauss-Jordan elimination on the weighted Laplacian (weight 1/L per
    edge of length L) in Fractions; None when E is not principal."""
    if E.degree != 0:
        return None
    n = len(G.vertices)
    idx = G.vertex_index
    A = [[Fraction(0)] * n for _ in range(n)]
    rhs = [Fraction(E.coeff(G.vertex_point(v))) for v in G.vertices]
    chips = {ei: sorted((p.offset, c) for p, c in E.items() if not p.is_vertex and p.edge == ei)
             for ei in range(len(G.edges))}
    for ei, (u, v, length) in enumerate(G.edges):
        i, j = idx[u], idx[v]
        A[i][i] += 1 / length
        A[j][j] += 1 / length
        A[i][j] -= 1 / length
        A[j][i] -= 1 / length
        for x, c in chips[ei]:
            rhs[i] += c * (length - x) / length
            rhs[j] += c * x / length
    # pin vertex 0 to 0 and solve the rest
    M = [A[r][1:] + [rhs[r]] for r in range(1, n)]
    for k in range(n - 1):
        piv = next(r for r in range(k, n - 1) if M[r][k] != 0)
        M[k], M[piv] = M[piv], M[k]
        M[k] = [x / M[k][k] for x in M[k]]
        for r in range(n - 1):
            if r != k and M[r][k] != 0:
                M[r] = [x - M[r][k] * y for x, y in zip(M[r], M[k])]
    val = [Fraction(0)] + [M[r][-1] for r in range(n - 1)]
    data = {}
    for ei, (u, v, length) in enumerate(G.edges):
        i, j = idx[u], idx[v]
        slope = (val[j] - val[i] + sum(c * (length - x) for x, c in chips[ei])) / length
        pts, o, y = [(Fraction(0), val[i])], Fraction(0), val[i]
        for x, c in chips[ei] + [(length, 0)]:
            if slope.denominator != 1:
                return None
            y += slope * (x - o)
            pts.append((x, y))
            o, slope = x, slope - c
        data[ei] = pts
    ei, off = G.edge_coordinates(base)[0]
    shift = _value_direct(data[ei], off)
    return {ei: exact_normalize([(o, y - shift) for (o, y) in pts])
            for ei, pts in data.items()}


KERNEL_GRAPHS = [lambda: default_generic_chain(2).graph,
                 lambda: default_generic_chain(3, extended=True).graph,
                 theta_graph, coprime_graph]


def random_function(G, rng):
    """A shifted minimum of capped distance functions, with rational caps
    and offsets, so values and crossings take denominators of their own."""
    cones = [distance_function(G, random_point(G, rng),
                               cap=Fraction(rng.randint(1, 8), rng.randint(1, 3)))
             for _ in range(rng.randint(1, 3))]
    return min_combination(cones, [Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                                   for _ in cones])


class TestIntegerKernels:
    """+, -, scale, add_const and the witness solve against Fraction
    references, on chains, the theta graph and coprime edge lengths."""

    @given(st.integers(0, len(KERNEL_GRAPHS) - 1), st.integers(0, 2 ** 32),
           st.integers(-3, 3), st.fractions(max_denominator=12))
    @settings(max_examples=40, deadline=None)
    def test_arithmetic(self, gi, seed, n, c):
        G = KERNEL_GRAPHS[gi]()
        rng = SplitMix64(seed)
        f, g = random_function(G, rng), random_function(G, rng)
        assert (f + g).data == exact_zip(f, g, lambda a, b: a + b)
        assert (f - g).data == exact_zip(f, g, lambda a, b: a - b)
        assert f.scale(n).data == {ei: exact_normalize([(o, n * v) for (o, v) in pts])
                                   for ei, pts in f.data.items()}
        assert f.add_const(c).data == {ei: [(o, v + c) for (o, v) in pts]
                                       for ei, pts in f.data.items()}

    @given(st.integers(0, len(KERNEL_GRAPHS) - 1), st.integers(0, 2 ** 32))
    @settings(max_examples=40, deadline=None)
    def test_potential(self, gi, seed):
        G = KERNEL_GRAPHS[gi]()
        rng = SplitMix64(seed)
        f = random_function(G, rng) - random_function(G, rng)
        base = random_point(G, rng)
        want = exact_potential(G, f.divisor(), base)
        assert want == f.add_const(-f(base)).data
        assert solve_potential(G, f.divisor(), base).data == want
        # a random divisor of degree 0 is principal only by accident
        E = random_divisor(G, rng, 0)
        want = exact_potential(G, E, base)
        if want is None:
            # found by the solve itself, not by a check further on
            with pytest.raises(GraphError, match="not principal"):
                solve_potential(G, E, base)
        else:
            assert solve_potential(G, E, base).data == want


def envelope_family(G, rng):
    """Two to five functions, each a random function or its negative, so
    that slopes differ by up to 2 and crossings fall between lattice
    points."""
    return [random_function(G, rng).scale(rng.choice([-1, 1]))
            for _ in range(rng.randint(2, 5))]


def off_scale_offsets(funcs, rng):
    """Random rational offsets, the first shifted by 1/p for the least
    prime p that divides no edge scale of the family."""
    scales = [s for f in funcs for (s, _O, _V) in f.scaled]
    p = next(p for p in (5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
             if all(s % p for s in scales))
    offsets = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in funcs]
    offsets[0] += Fraction(1, p)
    return offsets


def envelope_against_oracle(funcs, offsets):
    """The envelope of every edge against ``fraction_envelope``, entry by
    entry; returns the entries in Fractions."""
    entries = []
    for ei in range(len(funcs[0].graph.edges)):
        S, env = lower_envelope([f.scaled[ei] for f in funcs], offsets)
        got = [(Fraction(o, S), Fraction(v, S), a) for (o, v, a) in env]
        assert got == fraction_envelope([f.data[ei] for f in funcs], offsets)
        entries += [(S, o) for (o, _v, _a) in env]
    return entries


class TestEnvelopeOracle:
    """``lower_envelope`` against the Fraction envelope, on chains, the
    theta graph and coprime edge lengths."""

    @given(st.integers(0, len(KERNEL_GRAPHS) - 1), st.integers(0, 2 ** 32))
    @settings(max_examples=40, deadline=None)
    def test_matches_fraction_envelope(self, gi, seed):
        G = KERNEL_GRAPHS[gi]()
        rng = SplitMix64(seed)
        funcs = envelope_family(G, rng)
        envelope_against_oracle(funcs, off_scale_offsets(funcs, rng))

    def test_crossing_off_the_lattice(self):
        # slopes -1 and 1 from vertex a cross at distance 1/10 on the edge
        # of length 2/7, at 7/2 in units of 1/35
        G = coprime_graph()
        d = distance_function(G, G.vertex_point("a"))
        entries = envelope_against_oracle([d.scale(-1), d], [0, Fraction(-1, 5)])
        assert (35, Fraction(7, 2)) in entries


class TestScaledForm:
    """One stored form per function, and a ``data`` view that is a copy."""

    def test_same_function_stored_once(self):
        G = circle_graph(4)
        flat = [(0, 0), (2, 0)]
        # denominators that cancel: 2/4, 3/3
        f = PLFunction(G, {0: [(0, 0), ("2/4", "2/4"), (1, "3/3"), (2, 0)], 1: flat})
        # an extra collinear breakpoint at 1/7
        g = PLFunction(G, {0: [(0, 0), (Fraction(1, 7), Fraction(1, 7)), (1, 1), (2, 0)],
                           1: flat})
        # scales of 4 and 7 taken on by arithmetic and cancelled again
        h = f.add_const(Fraction(1, 4)).add_const(Fraction(-1, 4))
        k = (g + g.add_const(Fraction(3, 7))) - g.add_const(Fraction(3, 7))
        for other in (g, h, k):
            assert other == f
            assert other.scaled == f.scaled == ((1, (0, 1, 2), (0, 1, 0)), (1, (0, 2), (0, 0)))
            assert (serialize.dumps(serialize.plfunction_to_json(other))
                    == serialize.dumps(serialize.plfunction_to_json(f)))

    def test_data_view_is_a_copy(self):
        G = theta_graph()
        f = distance_function(G, G.point(1, Fraction(1, 2)))
        g = distance_function(G, G.point(1, Fraction(1, 2)))
        p = G.point(2, Fraction(7, 3))
        value, div = f(p), f.divisor()
        view = f.data
        for pts in view.values():
            pts.reverse()
            pts.append((Fraction(9), Fraction(9)))
        view[0][0] = (Fraction(1), Fraction(-5))
        view.clear()
        assert f(p) == value and f.divisor() == div and f == g
        assert f.data == g.data


class TestFloatsRejected:
    """A float's binary value is not the rational meant, so it raises."""

    def test_breakpoints(self):
        G = circle_graph(4)
        flat = [(0, 0), (2, 0)]
        for bad in ([(0, 0), (1.0, 0), (2, 0)], [(0, 0.0), (2, 0)]):
            with pytest.raises(GraphError, match="not an exact rational"):
                PLFunction(G, {0: bad, 1: flat})

    def test_add_const(self):
        f = PLFunction.constant(theta_graph(), 0)
        with pytest.raises(PreconditionError, match="not an exact rational"):
            f.add_const(0.5)
        assert f.add_const("1/2") == f.add_const(Fraction(1, 2))

    def test_min_combination_offsets(self):
        G = theta_graph()
        f = distance_function(G, G.vertex_point("a"))
        with pytest.raises(PreconditionError, match="not an exact rational"):
            min_combination([f, f], [0, 0.5])
        assert min_combination([f, f], [1, "1/2"]) == f.add_const(Fraction(1, 2))
