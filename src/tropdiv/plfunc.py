"""Continuous piecewise-linear functions with integer slopes on a metric graph.

A function is stored edge-by-edge as a sorted list of (offset, value)
breakpoints covering the whole edge; consecutive breakpoints are joined
linearly, and every segment slope must be an integer.  The order of a
function at a point is the sum of its incoming slopes, so local maxima
have positive order.

Tropical combinations min_j(f_j + b_j) are computed edge by edge by
``lower_envelope``, which also says which functions attain the minimum
where; ``min_combination``, ``distance_function``, ``agreement_region``
and the dependence checks of ``tropdiv.independence`` are loops over it.
Functions combined with each other must live on the same graph object.

Every function is validated when it is built, results of arithmetic
included.  Validation and ``+``/``-`` run on integers: an edge's offsets
and values are multiplied by the lcm of their denominators, which keeps
order and equality, and a slope is the same ratio of scaled integers.
Integer slopes then make every value interpolated at a scaled offset an
integer, so nothing is rounded and one ``Fraction`` is built per value.
"""
from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from math import lcm
from operator import add, itemgetter, sub
from typing import Iterable, Sequence

from .errors import GraphError, PreconditionError, TheoremViolation
from .graph import (Divisor, Interval, MetricGraph, Point, Region,
                    contains_point_in)

EdgeData = list[tuple[Fraction, Fraction]]


def _value_on(pts: EdgeData, off: Fraction) -> Fraction:
    """Value at ``off`` of the function with breakpoints ``pts``."""
    # the last breakpoint is never passed over, so it needs no comparison
    i = bisect_left(pts, off, 0, len(pts) - 1, key=itemgetter(0))
    o2, v2 = pts[i]
    if o2 == off:
        return v2
    o1, v1 = pts[i - 1]
    return v1 + (v2 - v1) * (off - o1) / (o2 - o1)


def _scaled(pts: EdgeData, s: int) -> list[tuple[int, int]]:
    """The breakpoints with offsets and values multiplied by ``s``, which
    every denominator divides."""
    return [(o.numerator * (s // o.denominator), v.numerator * (s // v.denominator))
            for (o, v) in pts]


def _between(p: tuple[int, int], q: tuple[int, int], o: int) -> int:
    """The value at ``o`` on the integer-slope segment from p to q."""
    (o1, v1), (o2, v2) = p, q
    return v1 + (v2 - v1) // (o2 - o1) * (o - o1)


def _normalize_edge(pts, length: Fraction) -> EdgeData:
    """Sorted, deduplicated breakpoints covering [0, length], with integer
    slopes and the collinear interior points dropped, all checked on the
    edge's scaled integers.  The input's Fractions are kept; other values
    are converted.
    """
    pts = [(o, v) if type(o) is type(v) is Fraction else (Fraction(o), Fraction(v))
           for (o, v) in pts]
    s = lcm(length.denominator, *(o.denominator for (o, _v) in pts),
            *(v.denominator for (_o, v) in pts))
    scaled = sorted((o, v, k) for k, (o, v) in enumerate(_scaled(pts, s)))
    if (not scaled or scaled[0][0] != 0
            or scaled[-1][0] != length.numerator * (s // length.denominator)):
        raise GraphError("edge data must cover the edge from offset 0 to its length")
    out = [scaled[0]]
    for t in scaled[1:]:
        if t[0] == out[-1][0]:
            if t[1] != out[-1][1]:
                raise GraphError(f"conflicting values at offset {pts[t[2]][0]}")
            continue
        out.append(t)
    # a point is collinear with its neighbours iff the slopes on both
    # sides agree
    slopes = []
    for (o1, v1, _k), (o2, v2, _l) in zip(out, out[1:]):
        m, r = divmod(v2 - v1, o2 - o1)
        if r:
            raise GraphError(f"non-integer slope {Fraction(v2 - v1, o2 - o1)}")
        slopes.append(m)
    return ([pts[out[0][2]]]
            + [pts[t[2]] for t, m1, m2 in zip(out[1:], slopes, slopes[1:]) if m1 != m2]
            + [pts[out[-1][2]]])


class PLFunction:
    """A continuous piecewise-linear function with integer slopes."""

    def __init__(self, graph: MetricGraph, data: dict[int, EdgeData]):
        self.graph = graph
        norm: dict[int, EdgeData] = {}
        for ei in range(len(graph.edges)):
            if ei not in data:
                raise GraphError(f"missing data for edge {ei}")
            norm[ei] = _normalize_edge(data[ei], graph.edge_length(ei))
        self.data = norm
        # continuity at vertices: every edge starts at its first end's
        # value and ends at its second end's
        at: list[Fraction | None] = [None] * len(graph.vertices)
        for (i, j), pts in zip(graph.edge_ends, norm.values()):
            for k, v in ((i, pts[0][1]), (j, pts[-1][1])):
                if at[k] is None:
                    at[k] = v
                elif at[k] != v:
                    raise GraphError(
                        f"discontinuous at vertex {graph.vertices[k]}: {sorted({at[k], v})}")

    # -- evaluation ------------------------------------------------------

    def __call__(self, p: Point) -> Fraction:
        ei, off = self.graph.edge_coordinates(p)[0]
        return _value_on(self.data[ei], off)

    # -- slopes and orders -----------------------------------------------

    def outgoing_slope(self, ei: int, off: Fraction, direction: int) -> Fraction:
        """Slope seen leaving offset ``off`` on edge ``ei`` toward direction +1/-1."""
        pts = self.data[ei]
        if direction == 1:
            for (o1, v1), (o2, v2) in zip(pts, pts[1:]):
                if o1 <= off < o2:
                    return (v2 - v1) / (o2 - o1)
        else:
            for (o1, v1), (o2, v2) in zip(pts, pts[1:]):
                if o1 < off <= o2:
                    return (v1 - v2) / (o2 - o1)
        raise GraphError(f"no germ at edge {ei} offset {off} direction {direction}")

    def germs_at(self, p: Point) -> list[tuple[int, Fraction, int]]:
        """All (edge, offset, direction) triples pointing away from p."""
        out = []
        for (ei, off) in self.graph.edge_coordinates(p):
            if off > 0:
                out.append((ei, off, -1))
            if off < self.graph.edge_length(ei):
                out.append((ei, off, 1))
        return out

    def incoming_slope(self, p: Point, ei: int, direction: int) -> Fraction:
        """Slope of the function arriving at p along the germ (ei, direction).

        ``direction`` is the direction pointing away from p, matching
        ``germs_at``; the incoming slope is the negative of the outgoing one.
        """
        for (e, off, d) in self.germs_at(p):
            if e == ei and d == direction:
                return -self.outgoing_slope(e, off, d)
        raise GraphError(f"point {p} has no germ on edge {ei} direction {direction}")

    def order_at(self, p: Point) -> int:
        total = Fraction(0)
        for (ei, off, d) in self.germs_at(p):
            total -= self.outgoing_slope(ei, off, d)
        assert total.denominator == 1
        return int(total)

    def divisor(self) -> Divisor:
        """div(f): orders at all breakpoints and vertices."""
        pts: set[Point] = {self.graph.vertex_point(v) for v in self.graph.vertices}
        for ei, data in self.data.items():
            for (off, _v) in data[1:-1]:
                pts.add(self.graph.point(ei, off))
        return Divisor({p: self.order_at(p) for p in pts})

    # -- algebra ---------------------------------------------------------

    @staticmethod
    def constant(graph: MetricGraph, c) -> "PLFunction":
        c = Fraction(c)
        return PLFunction(graph, {
            ei: [(Fraction(0), c), (graph.edge_length(ei), c)]
            for ei in range(len(graph.edges))})

    def _zip_with(self, other: "PLFunction", op) -> "PLFunction":
        """``op`` of both functions at the union of their breakpoints, edge by
        edge: one merge walk over offsets and values scaled to integers,
        where integer slopes make every interpolated value an integer."""
        _same_graph([self, other])
        data = {}
        for ei, a in self.data.items():
            b = other.data[ei]
            s = lcm(*(x.denominator for pts in (a, b) for pt in pts for x in pt))
            A, B = _scaled(a, s), _scaled(b, s)
            out = []
            i = k = 0
            while True:
                (oa, va), (ob, vb) = A[i], B[k]
                if oa < ob:
                    out.append((a[i][0], Fraction(op(va, _between(B[k - 1], B[k], oa)), s)))
                    i += 1
                elif ob < oa:
                    out.append((b[k][0], Fraction(op(_between(A[i - 1], A[i], ob), vb), s)))
                    k += 1
                else:
                    out.append((a[i][0], Fraction(op(va, vb), s)))
                    if i == len(A) - 1:
                        break
                    i += 1
                    k += 1
            data[ei] = out
        return PLFunction(self.graph, data)

    def __add__(self, other: "PLFunction") -> "PLFunction":
        return self._zip_with(other, add)

    def __sub__(self, other: "PLFunction") -> "PLFunction":
        return self._zip_with(other, sub)

    def __neg__(self) -> "PLFunction":
        return self.scale(-1)

    def scale(self, n: int) -> "PLFunction":
        return PLFunction(self.graph, {
            ei: [(o, n * v) for (o, v) in pts] for ei, pts in self.data.items()})

    def add_const(self, c) -> "PLFunction":
        c = Fraction(c)
        return PLFunction(self.graph, {
            ei: [(o, v + c) for (o, v) in pts] for ei, pts in self.data.items()})

    def __eq__(self, other) -> bool:
        return isinstance(other, PLFunction) and self.data == other.data


def _same_graph(funcs: Sequence[PLFunction]) -> MetricGraph:
    graph = funcs[0].graph
    if any(f.graph is not graph for f in funcs):
        raise PreconditionError("functions live on different graphs")
    return graph


def lower_envelope(pieces: Sequence[EdgeData], offsets: Sequence
                   ) -> list[tuple[Fraction, Fraction, frozenset[int]]]:
    """The envelope min_j(pieces[j] + offsets[j]) on one edge.

    ``pieces`` holds one sorted breakpoint list per function, all covering
    the same edge; ``offsets`` are exact constants.  Returns, in increasing
    offset, ``(offset, value, attaining indices)`` at every breakpoint of
    any piece and at every crossing of two pieces.  Between consecutive
    entries every piece is affine, so piece j attains the envelope on the
    whole cell iff j attains it at both ends.
    """
    base = sorted({o for pts in pieces for (o, _v) in pts})
    rows = [[_value_on(pts, o) + b for pts, b in zip(pieces, offsets)]
            for o in base]
    n = len(pieces)
    out = []

    def emit(o, row):
        m = min(row)
        out.append((o, m, frozenset(j for j in range(n) if row[j] == m)))

    for a, ra, b, rb in zip(base, rows, base[1:], rows[1:]):
        emit(a, ra)
        # every piece is affine on [a, b]; add the strict sign changes of
        # pairwise differences
        cross: set[Fraction] = set()
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


def min_combination(funcs: Sequence[PLFunction], offsets: Sequence) -> PLFunction:
    """Pointwise minimum of ``funcs[j] + offsets[j]``.

    Crossing points between pieces become exact rational breakpoints.
    """
    if not funcs:
        raise PreconditionError("need at least one function")
    if len(funcs) != len(offsets):
        raise PreconditionError("need one offset per function")
    graph = _same_graph(funcs)
    offsets = [Fraction(b) for b in offsets]
    return PLFunction(graph, {
        ei: [(o, v) for (o, v, _a) in
             lower_envelope([f.data[ei] for f in funcs], offsets)]
        for ei in range(len(graph.edges))})


def in_R(f: PLFunction, D: Divisor) -> bool:
    """Membership in R(D): whether D + div(f) is effective."""
    return (D + f.divisor()).is_effective


def distance_function(graph: MetricGraph, p: Point, cap=None) -> PLFunction:
    """x -> dist(x, p), optionally capped at ``cap`` (slopes stay in {-1,0,1})."""
    dv = graph.vertex_distances(p)
    data: dict[int, EdgeData] = {}
    for ei, (u, v, length) in enumerate(graph.edges):
        # around-the-graph candidates through either endpoint
        pieces = [[(Fraction(0), dv[u]), (length, dv[u] + length)],
                  [(Fraction(0), dv[v] + length), (length, dv[v])]]
        if not p.is_vertex and p.edge == ei:
            # straight to p along the edge
            off = p.offset
            pieces.append([(Fraction(0), off), (off, Fraction(0)),
                           (length, length - off)])
        if cap is not None:
            pieces.append([(Fraction(0), Fraction(cap)), (length, Fraction(cap))])
        data[ei] = [(o, v) for (o, v, _a) in
                    lower_envelope(pieces, [0] * len(pieces))]
    return PLFunction(graph, data)


def agreement_region(f: PLFunction, g_: PLFunction) -> Region:
    """The closed set where the two functions are equal, as a region: f = g
    exactly where both attain min(f, g)."""
    graph = _same_graph([f, g_])
    intervals: list[Interval] = []
    points: set[Point] = set()
    for ei in range(len(graph.edges)):
        env = lower_envelope([f.data[ei], g_.data[ei]], [0, 0])
        intervals += [Interval(ei, lo, hi) for (lo, _v, a), (hi, _w, b)
                      in zip(env, env[1:]) if len(a & b) == 2]
        points.update(graph.point(ei, o) for (o, _v, a) in env if len(a) == 2)
    return Region(graph, intervals, points)


def region_boundary_in(sub: Region, ambient: Region | None = None) -> frozenset[Point]:
    if ambient is None:
        return sub.boundary()
    return frozenset(p for p in sub.boundary() if ambient.contains(p))


def minchips_holds(D: Divisor, funcs: Sequence[PLFunction],
                   test_points: Iterable[Point] | None = None) -> bool:
    """Check, on a finite point set, that for theta = min(funcs) and each j:

    a point of the agreement set {theta = funcs[j]} lies in D + div(theta)
    iff it lies in D + div(funcs[j]) or on the agreement set's boundary.

    The default test set is every support or boundary point involved, which
    is where the statement has content.
    """
    theta = min_combination(funcs, [0] * len(funcs))
    Dt = D + theta.divisor()
    ok = True
    for f in funcs:
        Df = D + f.divisor()
        reg = agreement_region(theta, f)
        bd = reg.boundary()
        if test_points is None:
            pts = set(Dt.support()) | set(Df.support()) | set(bd)
        else:
            pts = set(test_points)
        for p in pts:
            if not reg.contains(p):
                continue
            lhs = Dt.coeff(p) > 0
            rhs = Df.coeff(p) > 0 or p in bd
            if lhs != rhs:
                ok = False
    return ok


def obstruction_holds(D: Divisor, funcs: Sequence[PLFunction], region: Region) -> bool:
    """If every D + div(funcs[j]) meets the connected region, so must
    D + div(min(funcs)).  Returns the conclusion's truth value and raises
    if the implication itself fails.
    """
    if not all(in_R(f, D) for f in funcs):
        raise PreconditionError("all functions must lie in R(D)")
    premise = all(contains_point_in(D + f.divisor(), region) for f in funcs)
    theta = min_combination(funcs, [0] * len(funcs))
    conclusion = contains_point_in(D + theta.divisor(), region)
    if premise and not conclusion:
        raise TheoremViolation(
            "minimum of functions fails to place a chip in a region met by every input")
    return conclusion
