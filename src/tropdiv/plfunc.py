"""Continuous piecewise-linear functions with integer slopes on a metric graph.

A function is stored edge by edge as a sorted list of (offset, value)
breakpoints covering the whole edge; consecutive breakpoints are joined
linearly, and every segment slope must be an integer.  The order of a
function at a point is the sum of its incoming slopes, so local maxima
have positive order.

Each edge is held once, in integers: a scale s > 0 and the tuples of its
offsets and values multiplied by s, where s is the lcm of their
denominators, so that equal functions are stored equally however they
were built (``PLFunction.scaled``).  Every kernel runs on those
integers: validation, ``+``, ``-``, ``scale``, ``add_const``, evaluation,
orders and ``divisor()``.  Two edges combine at the lcm of their scales;
integer slopes make every value interpolated at an integer offset an
integer, so nothing is rounded.  ``data`` is a read-only ``Fraction``
view, built afresh on each access.

Tropical combinations min_j(f_j + b_j) are computed edge by edge by
``lower_envelope``, which also says which functions attain the minimum
where; ``min_combination``, ``distance_function``, ``agreement_region``
and the dependence checks of ``tropdiv.independence`` are loops over it.
It too works in integers, and only a crossing of two functions between
breakpoints brings in a rational.  Functions combined with each other
must live on the same graph object.

Every function is validated when it is built, results of arithmetic
included, with one exception: the witness solve of ``tropdiv.reduce``
writes its edges in canonical form and hands them to ``_of`` unchecked,
having made every division exact, so every slope an integer, and
checked that each edge reaches its far end at the value solved there.
Exact rationals are ints, ``Fraction``s or ``graph._rat`` strings; a
float is rejected, as its binary value is not the number meant.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import add, sub
from typing import Iterable, Sequence

from .errors import GraphError, PreconditionError, TheoremViolation
from .graph import (Divisor, Interval, MetricGraph, Point, Region, _rat, _shown,
                    contains_point_in)

# one edge: (s, offsets * s, values * s)
Edge = tuple[int, tuple[int, ...], tuple[int, ...]]


def _normalize_edge(S: int, pts: list[tuple[int, int]], length: int) -> Edge:
    """The canonical edge of the breakpoints ``pts``, offsets and values
    in units of 1/S, on an edge of integer length ``length`` in the same
    units: sorted, deduplicated, covering [0, length], with integer slopes
    and the collinear interior points dropped, at the least scale."""
    pts.sort()
    if not pts or pts[0][0] != 0 or pts[-1][0] != length:
        raise GraphError("edge data must cover the edge from offset 0 to its length")
    O, V = [0], [pts[0][1]]
    m = None        # the slope into the last kept point
    for o, v in pts:
        do = o - O[-1]
        if not do:
            if v != V[-1]:
                raise GraphError(f"conflicting values at offset {Fraction(o, S)}")
            continue
        k, r = divmod(v - V[-1], do)
        if r:
            raise GraphError(f"non-integer slope {Fraction(v - V[-1], do)}")
        if k == m:
            # the last kept point is collinear with its neighbours
            O[-1], V[-1] = o, v
        else:
            O.append(o)
            V.append(v)
            m = k
    g = gcd(S, *O, *V)
    if g > 1:
        return S // g, tuple(o // g for o in O), tuple(v // g for v in V)
    return S, tuple(O), tuple(V)


def _sample(edge: Edge, S: int, grid: Sequence[int]) -> list[int]:
    """The edge's values, in units of 1/S, at the sorted offsets ``grid``
    (units of 1/S, S a multiple of the edge's scale): one walk."""
    s, O, V = edge
    f = S // s
    out = []
    i, last = 0, len(O) - 2
    o1, v1 = O[0] * f, V[0] * f
    m = (V[1] - V[0]) // (O[1] - O[0])
    for x in grid:
        while i < last and x > O[i + 1] * f:
            i += 1
            o1, v1 = O[i] * f, V[i] * f
            m = (V[i + 1] - V[i]) // (O[i + 1] - O[i])
        out.append(v1 + m * (x - o1))
    return out


def _grid(pieces: Sequence[Edge], S: int) -> tuple[list[int], list[list[int]]]:
    """The sorted union of the pieces' breakpoint offsets, in units of
    1/S (a multiple of every piece's scale), and each piece's values
    there."""
    grid = sorted({o * (S // s) for (s, O, _V) in pieces for o in O})
    return grid, [_sample(p, S, grid) for p in pieces]


class PLFunction:
    """A continuous piecewise-linear function with integer slopes.

    ``data`` maps each edge index to its breakpoints, (offset, value)
    pairs of exact rationals in any order; repeats must agree.
    """

    def __init__(self, graph: MetricGraph, data: dict[int, Iterable]):
        unknown = [ei for ei in data if type(ei) is not int or not 0 <= ei < len(graph.edges)]
        if unknown:
            shown = ", ".join(map(_shown, unknown))
            raise GraphError(f"data for edges [{shown}] the graph does not have")
        edges = []
        for ei, (_u, _v, length) in enumerate(graph.edges):
            if ei not in data:
                raise GraphError(f"missing data for edge {ei}")
            pts = [(_rat(o), _rat(v)) for (o, v) in data[ei]]
            S = lcm(length.denominator, *(x.denominator for pt in pts for x in pt))
            edges.append((S, [(o.numerator * (S // o.denominator),
                               v.numerator * (S // v.denominator)) for (o, v) in pts]))
        self._build(graph, edges)

    @classmethod
    def _from_ints(cls, graph: MetricGraph, edges) -> "PLFunction":
        """The function whose edge ``ei`` has the breakpoints
        ``edges[ei][1]``, integer pairs in units of 1/``edges[ei][0]``, a
        multiple of the denominator of the edge's length; checked like
        every other."""
        f = cls.__new__(cls)
        f._build(graph, edges)
        return f

    @staticmethod
    def _of(graph: MetricGraph, scaled: tuple[Edge, ...]) -> "PLFunction":
        """The function of ``scaled``, taken as is: per edge of the graph,
        its breakpoints as ``_normalize_edge`` leaves them, the edges
        meeting at the vertices."""
        f = object.__new__(PLFunction)
        f.graph, f.scaled = graph, scaled
        return f

    def _build(self, graph: MetricGraph, edges) -> None:
        self.graph = graph
        self.scaled: tuple[Edge, ...] = tuple(
            _normalize_edge(S, pts, n * S // graph.scale)
            for (S, pts), n in zip(edges, graph.int_lengths))
        # continuity at vertices: every edge starts at its first end's
        # value and ends at its second end's, compared as v/s
        at: list[tuple[int, int] | None] = [None] * len(graph.vertices)
        for (i, j), (s, _O, V) in zip(graph.edge_ends, self.scaled):
            for k, v in ((i, V[0]), (j, V[-1])):
                if at[k] is None:
                    at[k] = (v, s)
                elif at[k][0] * s != v * at[k][1]:
                    raise GraphError(f"discontinuous at vertex {graph.vertices[k]}: "
                                     f"{sorted({Fraction(*at[k]), Fraction(v, s)})}")

    @property
    def data(self) -> dict[int, list[tuple[Fraction, Fraction]]]:
        """The breakpoints of every edge as ``Fraction`` pairs: a new copy
        on each access, so changing it changes nothing."""
        return {ei: [(Fraction(o, s), Fraction(v, s)) for o, v in zip(O, V)]
                for ei, (s, O, V) in enumerate(self.scaled)}

    # -- evaluation ------------------------------------------------------

    def _value(self, ei: int, off: Fraction) -> tuple[int, int]:
        """The value at offset ``off`` of edge ``ei`` as (numerator,
        positive denominator), read at the scale s * off.denominator."""
        edge = self.scaled[ei]
        S = edge[0] * off.denominator
        return _sample(edge, S, [off.numerator * edge[0]])[0], S

    def __call__(self, p: Point) -> Fraction:
        """The value at p; ``GraphError`` unless p is a point of the graph."""
        return Fraction(*self._value(*self.graph.edge_coordinates(p)[0]))

    # -- slopes and orders -----------------------------------------------

    @staticmethod
    def _direction(direction) -> None:
        if type(direction) is not int or direction not in (1, -1):
            # 2 would read twice the slope, and a bool pass for an int
            raise PreconditionError(f"direction must be the int 1 or -1, got {_shown(direction)}")

    def outgoing_slope(self, ei: int, off: Fraction, direction: int) -> int:
        """Slope seen leaving offset ``off`` on edge ``ei`` toward direction +1/-1."""
        self._direction(direction)
        s, O, V = self.scaled[self.graph.edge_index(ei)]
        off = _rat(off)
        d, x = off.denominator, off.numerator * s   # the offset is x/d in units of 1/s
        for i in range(len(O) - 1):
            lo, hi = O[i] * d, O[i + 1] * d
            if (lo <= x < hi) if direction == 1 else (lo < x <= hi):
                return direction * ((V[i + 1] - V[i]) // (O[i + 1] - O[i]))
        raise GraphError(f"no germ at edge {ei} offset {off} direction {direction}")

    def germs_at(self, p: Point) -> list[tuple[int, Fraction, int]]:
        """All (edge, offset, direction) triples pointing away from p;
        ``GraphError`` unless p is a point of the graph."""
        return self.graph._germs(p)

    def incoming_slope(self, p: Point, ei: int, direction: int) -> int:
        """Slope of the function arriving at p along the germ (ei, direction).

        ``direction`` is the direction pointing away from p, matching
        ``germs_at``; the incoming slope is the negative of the outgoing one.
        """
        self._direction(direction)
        ei = self.graph.edge_index(ei)
        for (e, off, d) in self.germs_at(p):
            if e == ei and d == direction:
                return -self.outgoing_slope(e, off, d)
        raise GraphError(f"point {p} has no germ on edge {ei} direction {direction}")

    def divisor(self) -> Divisor:
        """div(f): at each breakpoint the change of slope across it, at
        each vertex the sum of the slopes arriving along its edges."""
        graph = self.graph
        at = graph.vertex_points
        terms = []
        for ei, ((u, v), (s, O, V)) in enumerate(zip(graph.edge_ends, self.scaled)):
            slopes = [(V[i + 1] - V[i]) // (O[i + 1] - O[i]) for i in range(len(O) - 1)]
            terms.append((at[u], -slopes[0]))
            terms.append((at[v], slopes[-1]))
            terms += [(graph._point_at(ei, o, s), m1 - m2)
                      for o, m1, m2 in zip(O[1:], slopes, slopes[1:])]
        return Divisor(terms)

    # -- algebra ---------------------------------------------------------

    @staticmethod
    def constant(graph: MetricGraph, c) -> "PLFunction":
        c = _rat(c, PreconditionError)
        return PLFunction(graph, {
            ei: [(Fraction(0), c), (length, c)]
            for ei, (_u, _v, length) in enumerate(graph.edges)})

    def _zip_with(self, other: "PLFunction", op) -> "PLFunction":
        """``op`` of both functions at the union of their breakpoints, edge
        by edge, at the lcm of the two scales."""
        _same_graph([self, other])
        edges = []
        for a, b in zip(self.scaled, other.scaled):
            S = lcm(a[0], b[0])
            grid, (va, vb) = _grid([a, b], S)
            edges.append((S, list(zip(grid, map(op, va, vb)))))
        return PLFunction._from_ints(self.graph, edges)

    def __add__(self, other: "PLFunction") -> "PLFunction":
        return self._zip_with(other, add)

    def __sub__(self, other: "PLFunction") -> "PLFunction":
        return self._zip_with(other, sub)

    def __neg__(self) -> "PLFunction":
        return self.scale(-1)

    def scale(self, n) -> "PLFunction":
        n = _rat(n, PreconditionError)
        p, q = n.numerator, n.denominator
        return PLFunction._from_ints(self.graph, [
            (s * q, [(o * q, v * p) for o, v in zip(O, V)]) for (s, O, V) in self.scaled])

    def add_const(self, c) -> "PLFunction":
        return self + PLFunction.constant(self.graph, c)

    def __eq__(self, other) -> bool:
        return isinstance(other, PLFunction) and self.scaled == other.scaled


def _same_graph(funcs: Sequence[PLFunction]) -> MetricGraph:
    graph = funcs[0].graph
    if any(f.graph is not graph for f in funcs):
        raise PreconditionError("functions live on different graphs")
    return graph


Entry = tuple["int | Fraction", "int | Fraction", frozenset[int]]


def lower_envelope(pieces: Sequence[Edge], offsets: Sequence
                   ) -> tuple[int, list[Entry]]:
    """The envelope min_j(pieces[j] + offsets[j]) on one edge.

    ``pieces`` holds one edge per function, (s, offsets * s, values * s)
    as in ``PLFunction.scaled``, all on the same edge; ``offsets`` are ints
    or ``Fraction``s.  Returns ``(S, entries)``: S is the lcm of the
    pieces' scales and the offsets' denominators, and ``entries`` lists,
    in increasing offset, ``(offset, value, attaining indices)`` with
    offset and value in units of 1/S, at every breakpoint of any piece
    (both ints) and at every crossing of two pieces (``Fraction``s where
    the crossing falls between multiples of 1/S).  Between consecutive
    entries every piece is affine, so piece j attains the envelope on the
    whole cell iff j attains it at both ends.
    """
    S = lcm(*(p[0] for p in pieces), *(b.denominator for b in offsets))
    grid, cols = _grid(pieces, S)
    cols = [[v + b.numerator * (S // b.denominator) for v in col]
            for col, b in zip(cols, offsets)]
    n = len(pieces)
    out: list[Entry] = []

    def emit(o, row, q=1):
        m = min(row)
        out.append((o, m if q == 1 else Fraction(m, q),
                    frozenset(j for j in range(n) if row[j] == m)))

    rows = list(zip(*cols))
    for a, ra, b, rb in zip(grid, rows, grid[1:], rows[1:]):
        emit(a, ra)
        # every piece is affine on [a, b]; add the strict sign changes of
        # pairwise differences, at a + t(b - a) with t in (0, 1)
        cross: set[Fraction] = set()
        for j in range(n):
            for k in range(j + 1, n):
                da, db = ra[j] - ra[k], rb[j] - rb[k]
                if (da > 0 > db) or (da < 0 < db):
                    cross.add(Fraction(da, da - db))
        for t in sorted(cross):
            # values times q, to stay in integers
            p, q = t.numerator, t.denominator
            emit(Fraction(a * q + (b - a) * p, q),
                 [va * q + (vb - va) * p for va, vb in zip(ra, rb)], q)
    emit(grid[-1], rows[-1])
    return S, out


def _envelope_edge(S: int, env: list[Entry]) -> tuple[int, list[tuple[int, int]]]:
    """The envelope's breakpoints as integers, at S times the lcm of the
    crossings' denominators."""
    q = lcm(*(x.denominator for (o, v, _a) in env for x in (o, v)))
    return S * q, [(o.numerator * (q // o.denominator), v.numerator * (q // v.denominator))
                   for (o, v, _a) in env]


def min_combination(funcs: Sequence[PLFunction], offsets: Sequence) -> PLFunction:
    """Pointwise minimum of ``funcs[j] + offsets[j]``.

    Crossing points between pieces become exact rational breakpoints.
    """
    if not funcs:
        raise PreconditionError("need at least one function")
    if len(funcs) != len(offsets):
        raise PreconditionError("need one offset per function")
    graph = _same_graph(funcs)
    offsets = [_rat(b, PreconditionError) for b in offsets]
    return PLFunction._from_ints(graph, [
        _envelope_edge(*lower_envelope([f.scaled[ei] for f in funcs], offsets))
        for ei in range(len(graph.edges))])


def in_R(f: PLFunction, D: Divisor) -> bool:
    """Membership in R(D): whether D + div(f) is effective."""
    return (D + f.divisor()).is_effective


def distance_function(graph: MetricGraph, p: Point, cap=None) -> PLFunction:
    """x -> dist(x, p), optionally capped at ``cap`` (slopes stay in {-1,0,1});
    ``GraphError`` for a point p the graph does not have."""
    if cap is not None:
        cap = _rat(cap, PreconditionError)
    # every length, distance, offset and the cap in units of 1/S
    S, dv = graph._distances(p, 1 if cap is None else cap.denominator)
    k = S // graph.scale
    x = None if p.is_vertex else p.offset.numerator * (S // p.offset.denominator)
    edges = []
    for ei, ((u, v), n) in enumerate(zip(graph.edge_ends, graph.int_lengths)):
        L, du, dw = n * k, dv[u], dv[v]
        # around-the-graph candidates through either endpoint
        pieces = [(S, (0, L), (du, du + L)), (S, (0, L), (dw + L, dw))]
        if x is not None and p.edge == ei:
            # straight to p along the edge
            pieces.append((S, (0, x, L), (x, 0, L - x)))
        if cap is not None:
            c = cap.numerator * (S // cap.denominator)
            pieces.append((S, (0, L), (c, c)))
        edges.append(_envelope_edge(*lower_envelope(pieces, [0] * len(pieces))))
    return PLFunction._from_ints(graph, edges)


def agreement_region(f: PLFunction, g_: PLFunction) -> Region:
    """The closed set where the two functions are equal, as a region: f = g
    exactly where both attain min(f, g)."""
    graph = _same_graph([f, g_])
    intervals: list[Interval] = []
    points: set[Point] = set()
    for ei in range(len(graph.edges)):
        S, env = lower_envelope([f.scaled[ei], g_.scaled[ei]], [0, 0])
        intervals += [Interval(ei, Fraction(lo, S), Fraction(hi, S))
                      for (lo, _v, a), (hi, _w, b) in zip(env, env[1:]) if len(a & b) == 2]
        points.update(graph.point(ei, Fraction(o, S)) for (o, _v, a) in env if len(a) == 2)
    return Region(graph, intervals, points)


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
            if (Dt.coeff(p) > 0) != (Df.coeff(p) > 0 or p in bd):
                return False
    return True


def obstruction_holds(D: Divisor, funcs: Sequence[PLFunction], region: Region) -> bool:
    """If every D + div(funcs[j]) meets the connected region, so must
    D + div(min(funcs)).  Returns the conclusion's truth value and raises
    if the implication itself fails.
    """
    fired = [D + f.divisor() for f in funcs]
    if not all(E.is_effective for E in fired):
        raise PreconditionError("all functions must lie in R(D)")
    premise = all(contains_point_in(E, region) for E in fired)
    theta = min_combination(funcs, [0] * len(funcs))
    conclusion = contains_point_in(D + theta.divisor(), region)
    if premise and not conclusion:
        raise TheoremViolation(
            "minimum of functions fails to place a chip in a region met by every input")
    return conclusion
