"""Metric graphs, points, divisors, regions, and the chain-of-loops family.

All coordinates and lengths are exact rationals (`fractions.Fraction`);
nothing in this package touches floating point.
"""
from __future__ import annotations

import heapq
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .errors import GraphError, PreconditionError


def _rat(x, error: type[Exception] = GraphError) -> Fraction:
    """``x`` as a Fraction, from a Fraction, an int or a string "p" or
    "p/q" whose parts ``int()`` reads (q nonzero, on every Python alike);
    ``error`` for anything else: bools, and floats, whose binary value is
    not the rational meant."""
    if isinstance(x, Fraction):
        return x
    if type(x) is int:
        return Fraction(x)
    if isinstance(x, str):
        try:
            # a third part fails the unpacking, a part int() rejects the parse
            num, den = map(int, x.split("/")) if "/" in x else (int(x), 1)
            return Fraction(num, den)
        except (ValueError, ZeroDivisionError):
            pass
    raise error(f"not an exact rational: {x!r}")


def _length(x, u: str, v: str) -> Fraction:
    """``x`` as the length of an edge (u, v): a positive rational."""
    length = _rat(x)
    if length.numerator <= 0:  # a Fraction's denominator is positive
        raise GraphError(f"edge ({u},{v}) has non-positive length {length}")
    return length


def _shown(x, form=repr) -> str:
    """``form(x)`` for an error message; "of N bits" for an int of 64
    bits or more, as one past 4,300 digits has no decimal str."""
    return f"of {x.bit_length()} bits" if type(x) is int and x.bit_length() >= 64 else form(x)


def _seq(x, what: str) -> Sequence:
    """``x`` if it is a list or a tuple, ``GraphError`` otherwise: a
    string's characters would pass for its items, and an int has none."""
    if not isinstance(x, (list, tuple)):
        raise GraphError(f"{what} must be a list, got {type(x).__name__}")
    return x


# ``MetricGraph._point_at`` clears the graph's store of points by
# (edge, n, d) when it holds this many, so that it stays bounded over a
# long run.  On seed 1, ``rank``'s genus-3 graph holds 299 after a 20 s
# benchmark run (290 ops) and ``reduce``'s 351 (203 ops); ops run on for
# 20 s in process level off at 1,080 on each (85 at genus 2) by 15k-62k ops
_POINT_CACHE_SIZE = 4096

_ZERO = Fraction(0)  # every vertex point's offset


def _point_hash(vertex: str | None, edge: int, offset) -> int:
    """A point's hash: of its vertex's name, or of its edge and offset's integers."""
    return hash(("v", vertex) if vertex is not None else
                (edge, offset.numerator, offset.denominator))


@dataclass(frozen=True, eq=False)
class Point:
    """A location on a metric graph.

    Canonical form: a point at offset 0 or at the full edge length is stored
    as the vertex itself (``vertex`` set, ``edge`` = -1), so equality is
    well-defined across all edges incident to that vertex; a vertex point
    in any other form raises ``GraphError``, as does an offset that is not
    an int or a ``Fraction``.  Points compare and hash by value, points of
    two graphs too; the hash is precomputed from integer parts
    (``_point_hash``), as points live in hot dictionaries.
    """

    vertex: str | None
    edge: int
    offset: Fraction

    def __post_init__(self):
        if not isinstance(self.offset, Fraction) and type(self.offset) is not int:
            raise GraphError(f"point offset {self.offset!r} is not an int or a Fraction")
        if self.vertex is not None and (self.edge != -1 or self.offset != 0):
            raise GraphError(f"vertex point {self.vertex} needs edge -1 and offset 0")
        object.__setattr__(self, "_hash", _point_hash(self.vertex, self.edge, self.offset))

    @staticmethod
    def _of(vertex: str | None, edge: int, offset: Fraction) -> "Point":
        """The point (vertex, edge, offset), taken as is: canonical, with a
        ``Fraction`` offset.  The one unchecked constructor of points, for
        ``vertex_points`` and the edge points ``_point_at`` bounds-tests."""
        p = object.__new__(Point)
        # set as the dataclass sets them: an instance's __dict__, once
        # touched, would slow every attribute read of the point
        for field, value in (("vertex", vertex), ("edge", edge), ("offset", offset),
                             ("_hash", _point_hash(vertex, edge, offset))):
            object.__setattr__(p, field, value)
        return p

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Point):
            return NotImplemented
        return (self.vertex == other.vertex and self.edge == other.edge
                and self.offset == other.offset)

    @property
    def is_vertex(self) -> bool:
        return self.vertex is not None

    def sort_key(self):
        if self.vertex is not None:
            return (0, self.vertex, 0, _ZERO)
        return (1, "", self.edge, self.offset)

    def __repr__(self):
        if self.vertex is not None:
            return f"Point({self.vertex})"
        return f"Point(e{self.edge}@{self.offset})"


class MetricGraph:
    """A connected graph with one edge or more, of positive rational lengths.

    Parallel edges and self-loops are allowed.  Each edge carries a fixed
    orientation (first endpoint) used only for offset coordinates.  Vertex
    names are strings.  ``vertex_points``, indexed like ``vertices``, holds
    the graph's one ``Point`` per vertex, and every vertex point it hands
    out is one of them.

    The graph owns the one integer form of its lengths: ``scale``, the lcm
    of their denominators, and ``int_lengths``, in units of 1/``scale``.
    Exact distances, distance functions and ``reduce``'s lattices scale it.

    ``MetricGraph(vertices, edges)`` checks all of its input; a
    ``ChainOfLoops`` makes its own names and edges, and checks only their
    lengths.
    """

    # a core chain's loops (``ChainOfLoops``), which ``reduce.rank`` scans
    _core_chain: tuple = ()

    def __init__(self, vertices: Sequence[str], edges: Sequence[tuple[str, str, Fraction]]):
        names = tuple(_seq(vertices, "vertices"))
        for name in names:
            if not isinstance(name, str):
                raise GraphError(f"vertex name {name!r} is not a string")
        index = {v: i for i, v in enumerate(names)}
        if len(index) != len(names):
            raise GraphError("duplicate vertex names")
        parsed = []
        for edge in _seq(edges, "edges"):
            if len(_seq(edge, "an edge")) != 3:
                raise GraphError(f"an edge needs two ends and a length, got {edge!r}")
            u, v, length = edge
            if not (isinstance(u, str) and isinstance(v, str)):
                raise GraphError(f"edge ({u!r},{v!r}) has an end that is not a string")
            parsed.append((u, v, _length(length, u, v)))
            if u not in index or v not in index:
                raise GraphError(f"edge ({u},{v}) references unknown vertex")
        self._build(names, index, parsed)
        if not self._connected():
            raise GraphError("graph is not connected")
        if not parsed:  # a point is named by an edge; a self-loop will do
            raise GraphError("a graph needs an edge")

    def _build(self, vertices, index, edges) -> None:
        """The graph's fields, from checked ``vertices``, their ``index``
        and ``edges``."""
        self.vertices: tuple[str, ...] = vertices
        # the same graph over vertex indices, for array-based algorithms
        self.vertex_index: dict[str, int] = index
        self.vertex_points: tuple[Point, ...] = tuple(Point._of(v, -1, _ZERO) for v in vertices)
        # vertex index -> list of (edge index, side, other end); side 0 means
        # the vertex is the edge's first end (offset 0), side 1 its second
        inc: list[list[tuple[int, int, int]]] = [[] for _ in vertices]
        ends = []
        for k, (u, v, _l) in enumerate(edges):
            i, j = index[u], index[v]
            inc[i].append((k, 0, j))
            inc[j].append((k, 1, i))
            ends.append((i, j))
        self._incidence = inc
        self.edges: tuple[tuple[str, str, Fraction], ...] = tuple(edges)
        self.edge_ends: tuple[tuple[int, int], ...] = tuple(ends)
        S = self.scale = lcm(*(length.denominator for (_u, _v, length) in edges))
        self.int_lengths: tuple[int, ...] = tuple(
            length.numerator * (S // length.denominator) for (_u, _v, length) in edges)
        self._point_cache: dict[tuple[int, int, int], Point] = {}
        # what reduce derives from the graph, kept across calls: lattices,
        # burn runs, the eliminated Laplacian and the bridge classes, in
        # one store that ``reduce._stored`` fills and bounds
        self._store: dict = {}

    def _connected(self, skip=()) -> bool:
        if not self.vertices:
            return False
        seen = {0}
        stack = [0]
        while stack:
            for (ei, _side, y) in self._incidence[stack.pop()]:
                if y not in seen and ei not in skip:
                    seen.add(y)
                    stack.append(y)
        return len(seen) == len(self.vertices)

    # -- basic accessors -------------------------------------------------

    def edge_length(self, ei: int) -> Fraction:
        """The length of edge ``ei``, named as ``edge_index`` requires;
        the graph's own loops read ``edges`` directly."""
        return self.edges[self.edge_index(ei)][2]

    def valence(self, vertex: str) -> int:
        return len(self._incidence[self.vertex_index[vertex]])

    def betti(self) -> int:
        return len(self.edges) - len(self.vertices) + 1

    def total_length(self) -> Fraction:
        return sum((l for (_u, _v, l) in self.edges), Fraction(0))

    # -- points ----------------------------------------------------------

    def edge_index(self, ei) -> int:
        """``ei`` if it names an edge of this graph: an int (a bool or a
        float is none) from 0 to len(edges) - 1; ``GraphError`` otherwise.
        Every edge index that comes from outside the graph passes here."""
        if type(ei) is not int:
            raise GraphError(f"no edge {ei!r}: the index is not an integer")
        if not 0 <= ei < len(self.edges):
            raise GraphError(f"no edge {_shown(ei)}")
        return ei

    def point(self, edge: int, offset) -> Point:
        """Canonicalized point on an edge; endpoints collapse to vertices.
        ``offset`` is any exact rational ``_rat`` reads; the point comes
        from ``_point_at``, the graph's integer entry point, on its
        numerator and denominator."""
        # the edge before the store, where 1.0 or True would find edge 1's points
        edge, offset = self.edge_index(edge), _rat(offset)
        return self._point_at(edge, offset.numerator, offset.denominator)

    def _point_at(self, edge: int, n: int, d: int) -> Point:
        """The point at offset n/d on edge ``edge``, for ints n and d > 0:
        the one constructor of points, behind ``point`` and every integer
        producer of the package, which builds no ``Fraction`` when the
        graph's store holds the point under (edge, n, d) in lowest terms
        and checks bounds on integers when it does not; ``GraphError``
        past either end."""
        k = gcd(n, d)
        n, d = n // k, d // k
        key = (edge, n, d)
        p = self._point_cache.get(key)
        if p is not None:
            return p
        self.edge_index(edge)
        # n/d against the length in units of 1/scale
        over = n * self.scale - self.int_lengths[edge] * d
        if n < 0 or over > 0:
            raise GraphError(f"offset {Fraction(n, d)} out of bounds for edge {edge} "
                             f"(length {self.edges[edge][2]})")
        if n == 0:
            p = self.vertex_points[self.edge_ends[edge][0]]
        elif over == 0:
            p = self.vertex_points[self.edge_ends[edge][1]]
        else:
            p = Point._of(None, edge, Fraction(n, d))
        if len(self._point_cache) >= _POINT_CACHE_SIZE:
            self._point_cache.clear()
        self._point_cache[key] = p
        return p

    def vertex_point(self, name: str) -> Point:
        if not isinstance(name, str):
            raise GraphError(f"vertex name {name!r} is not a string")
        i = self.vertex_index.get(name)
        if i is None:
            raise GraphError(f"no vertex {name}")
        return self.vertex_points[i]

    def check_point(self, p: Point) -> None:
        if p.vertex is not None:
            if p.vertex not in self.vertex_index:
                raise GraphError(f"point at unknown vertex {p.vertex}")
        else:
            # n/d against the length in units of 1/scale, on integers
            n, d = p.offset.numerator, p.offset.denominator
            if not (0 < n and n * self.scale < self.int_lengths[self.edge_index(p.edge)] * d):
                raise GraphError(f"non-canonical or out-of-range point {p}")

    def edge_coordinates(self, p: Point) -> list[tuple[int, Fraction]]:
        """All (edge, offset) pairs naming this point; ``GraphError``
        unless it is a point of the graph (``check_point``)."""
        self.check_point(p)
        if not p.is_vertex:
            return [(p.edge, p.offset)]
        out = []
        for (ei, side, _y) in self._incidence[self.vertex_index[p.vertex]]:
            out.append((ei, _ZERO if side == 0 else self.edges[ei][2]))
        return out

    def _germs(self, p: Point) -> list[tuple[int, Fraction, int]]:
        """All (edge, offset, direction) triples pointing away from p, none
        past an edge's end; ``GraphError`` unless p is a point of the graph."""
        return [(ei, off, d) for (ei, off) in self.edge_coordinates(p) for d in (-1, 1)
                if (off > 0 if d == -1 else off < self.edges[ei][2])]

    # -- distances -------------------------------------------------------

    def _distances(self, src: Point, *dens: int) -> tuple[int, list[int]]:
        """Dijkstra on integers, over vertex indices, from ``src``, checked
        first.  Returns ``(L, d)``: L is the lcm of ``scale``, of src's
        offset's denominator and of ``dens``, and d[i] is the distance
        from src to vertex i in units of 1/L."""
        self.check_point(src)
        L = lcm(self.scale, src.offset.denominator, *dens)
        k = L // self.scale
        weights = [length * k for length in self.int_lengths]
        dist: list[int | None] = [None] * len(self.vertices)
        if src.is_vertex:
            heap = [(0, self.vertex_index[src.vertex])]
        else:
            a, b = self.edge_ends[src.edge]
            x = src.offset.numerator * (L // src.offset.denominator)
            heap = sorted([(x, a), (weights[src.edge] - x, b)])
        inc = self._incidence
        while heap:
            d, x = heapq.heappop(heap)
            if dist[x] is not None:
                continue
            dist[x] = d
            for (ei, _side, y) in inc[x]:
                if dist[y] is None:
                    heapq.heappush(heap, (d + weights[ei], y))
        return L, dist

    def vertex_distances(self, src: Point) -> dict[str, Fraction]:
        """Exact shortest-path distance from ``src`` to every vertex;
        ``GraphError`` for a point the graph does not have."""
        L, dist = self._distances(src)
        return {v: Fraction(d, L) for v, d in zip(self.vertices, dist)}

    def distance(self, p: Point, q: Point) -> Fraction:
        """Exact shortest-path distance between ``p`` and ``q``;
        ``GraphError`` for a point the graph does not have."""
        self.check_point(q)
        L, dv = self._distances(p, q.offset.denominator)
        if q.is_vertex:
            return Fraction(dv[self.vertex_index[q.vertex]], L)
        a, b = self.edge_ends[q.edge]
        y = q.offset.numerator * (L // q.offset.denominator)
        best = min(dv[a] + y, dv[b] + self.int_lengths[q.edge] * (L // self.scale) - y)
        if not p.is_vertex and p.edge == q.edge:
            best = min(best, abs(p.offset.numerator * (L // p.offset.denominator) - y))
        return Fraction(best, L)


class Divisor:
    """A finite formal integer combination of points; zero coefficients drop."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Mapping[Point, int] | Iterable[tuple[Point, int]] = ()):
        d: dict[Point, int] = {}
        items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
        for p, c in items:
            if type(c) is not int:
                raise GraphError(f"divisor coefficient {c!r} is not an integer")
            if c:
                d[p] = d.get(p, 0) + c
                if d[p] == 0:
                    del d[p]
        self._coeffs = d

    def coeff(self, p: Point) -> int:
        return self._coeffs.get(p, 0)

    def items(self):
        return self._coeffs.items()

    def support(self) -> list[Point]:
        return list(self._coeffs)

    @property
    def degree(self) -> int:
        return sum(self._coeffs.values())

    @property
    def is_effective(self) -> bool:
        return all(c >= 0 for c in self._coeffs.values())

    @property
    def is_zero(self) -> bool:
        return not self._coeffs

    @staticmethod
    def _of(coeffs: dict[Point, int]) -> "Divisor":
        """The divisor of ``coeffs``, taken as is: nonzero ints only."""
        D = object.__new__(Divisor)
        D._coeffs = coeffs
        return D

    def _combine(self, other: "Divisor", sign: int) -> "Divisor":
        """self + sign*other in one pass over other's terms, dropping the
        sums that cancel; the terms of both are nonzero ints already."""
        d = dict(self._coeffs)
        for p, c in other._coeffs.items():
            c = d.get(p, 0) + sign * c
            if c:
                d[p] = c
            else:
                del d[p]
        return Divisor._of(d)

    def __add__(self, other: "Divisor") -> "Divisor":
        return self._combine(other, 1)

    def __sub__(self, other: "Divisor") -> "Divisor":
        return self._combine(other, -1)

    def __neg__(self) -> "Divisor":
        return Divisor._of({p: -c for p, c in self._coeffs.items()})

    def __mul__(self, n: int) -> "Divisor":
        if type(n) is not int:
            # each product checked, as any other factor could make one
            return Divisor({p: n * c for p, c in self._coeffs.items()})
        return Divisor._of({p: n * c for p, c in self._coeffs.items()} if n else {})

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return isinstance(other, Divisor) and self._coeffs == other._coeffs

    def __hash__(self):
        return hash(frozenset(self._coeffs.items()))

    def __repr__(self):
        if not self._coeffs:
            return "Divisor(0)"
        terms = sorted(self._coeffs.items(), key=lambda t: t[0].sort_key())
        return "Divisor(" + " + ".join(f"{c}*{p}" for p, c in terms) + ")"


@dataclass(frozen=True)
class Interval:
    """A sub-interval of one edge; endpoints may be open or closed."""

    edge: int
    lo: Fraction
    hi: Fraction
    lo_closed: bool = True
    hi_closed: bool = True


class Region:
    """A finite union of edge intervals plus isolated points, each checked
    against the graph (``GraphError`` otherwise).

    Half-openness is tracked explicitly; the chain cells gamma_i and the
    bridges br_i are half-open.
    """

    def __init__(self, graph: MetricGraph, intervals: Iterable[Interval] = (),
                 points: Iterable[Point] = ()):
        self.graph = graph
        self.intervals: tuple[Interval, ...] = tuple(intervals)
        self.points: frozenset[Point] = frozenset(points)
        for p in self.points:
            graph.check_point(p)
        for iv in self.intervals:
            if not (0 <= iv.lo <= iv.hi <= graph.edge_length(iv.edge)):
                raise GraphError(f"interval {iv} out of bounds")

    @property
    def is_empty(self) -> bool:
        if self.points:
            return False
        for iv in self.intervals:
            if iv.lo < iv.hi or (iv.lo == iv.hi and iv.lo_closed and iv.hi_closed):
                return False
        return True

    def contains(self, p: Point) -> bool:
        if p in self.points:
            return True
        for (ei, off) in self.graph.edge_coordinates(p):
            for iv in self.intervals:
                if iv.edge != ei:
                    continue
                if iv.lo < off < iv.hi:
                    return True
                if off == iv.lo and iv.lo_closed and (iv.lo < iv.hi or iv.hi_closed):
                    return True
                if off == iv.hi and iv.hi_closed and (iv.lo < iv.hi or iv.lo_closed):
                    return True
        return False

    def boundary(self) -> frozenset[Point]:
        """Topological boundary, assuming the region is closed.

        A point of the region is on the boundary iff some direction at it
        immediately leaves the region.
        """
        G = self.graph
        cands: set[Point] = set(self.points)
        for iv in self.intervals:
            cands.add(G.point(iv.edge, iv.lo))
            cands.add(G.point(iv.edge, iv.hi))
        out = set()
        for p in cands:
            if not self.contains(p):
                continue
            for (ei, off, direction) in G._germs(p):
                if not self._covers_germ(ei, off, direction):
                    out.add(p)
        return frozenset(out)

    def _covers_germ(self, edge: int, off: Fraction, direction: int) -> bool:
        """Whether the region contains a small segment from (edge, off) in the given direction."""
        for iv in self.intervals:
            if iv.edge != edge or iv.lo == iv.hi:
                continue
            if direction == 1 and iv.lo <= off < iv.hi:
                return True
            if direction == -1 and iv.lo < off <= iv.hi:
                return True
        return False


def contains_point_in(D: Divisor, region: Region) -> bool:
    """Whether an effective divisor has a point with positive coefficient in the region."""
    return any(c > 0 and region.contains(p) for p, c in D.items())


def canonical_divisor(G: MetricGraph) -> Divisor:
    """The divisor with coefficient (valence - 2) at every vertex."""
    return Divisor({G.vertex_point(v): G.valence(v) - 2
                    for v in G.vertices if G.valence(v) != 2})


@dataclass(frozen=True)
class BNParams:
    """Brill-Noether parameters (g, r, d) with rho = g - (r+1)(g-d+r)."""

    g: int
    r: int
    d: int

    def __post_init__(self):
        if not (type(self.g) is type(self.r) is type(self.d) is int
                and min(self.g, self.r, self.d) >= 0):
            raise PreconditionError("g, r, d must be nonnegative ints")

    @property
    def rho(self) -> int:
        return self.g - (self.r + 1) * (self.g - self.d + self.r)


class ChainOfLoops(MetricGraph):
    """The chain of g loops joined by bridges, with named points v_i, w_i.

    Loop i is a pair of parallel edges between v_i and w_i with lengths
    ell_i (top) and m_i (bottom), both oriented v_i -> w_i.  Bridge i runs
    from w_i to v_{i+1}.  With ``extended=True`` the graph also carries
    pendant vertices w_0 and v_{g+1} attached by bridges 0 and g to v_1
    and w_g.  The layout is one rule: top_i, bottom_i and bridge_i are
    edges 3i-3, 3i-2 and 3i-1, the pendant bridges 0 and g edges 3g-1
    and 3g; the vertices run v_1, w_1, ..., v_g, w_g, after w_0 and
    before v_{g+1} on an extended chain.  ``_loops`` records it once, as
    the indices (v_i, w_i, top_i, bottom_i, bridge_i) of each loop i,
    bridge_i the edge leaving w_i: on loop g, pendant bridge g or None.

    The chain is a ``MetricGraph`` that ``_build`` makes from its own
    names and edges, checking only its lengths; ``graph`` is the chain
    itself.  A core chain's ``_core_chain`` is its ``_loops``, which
    ``reduce.rank`` scans to reduce at v_1; ``MetricGraph(...)`` of the
    same edges, or a ``"type": "graph"`` JSON file, has none.  ``ell``, ``m``,
    ``beta`` and ``pendant`` (empty on a core chain) are read back from
    the graph, and ``integer_lengths`` is (L, ell, m, beta), the lengths
    in units of 1/L, L the lcm of their denominators: the lattice of
    ``chainbn``'s chips, read off the graph's integer form.  ``generic``
    is read off it too, on integers: no ratio ell_i/m_i is a/b with
    a + b <= 2g-2.
    """

    def __init__(self, g: int, ell: Sequence, m: Sequence, beta: Sequence,
                 extended: bool = False, pendant: Sequence = (1, 1)):
        if not isinstance(g, int) or g < 2:
            raise GraphError(f"chain of loops needs an integer g >= 2, got {_shown(g)}")
        if not isinstance(extended, bool):
            raise GraphError(f"extended must be a bool, got {extended!r}")
        for name, x in (("ell", ell), ("m", m), ("beta", beta), ("pendant", pendant)):
            _seq(x, name)
        if len(ell) != g or len(m) != g:
            raise GraphError(f"need {_shown(g, str)} loop lengths, "
                             f"got {len(ell)} top / {len(m)} bottom")
        if len(beta) != g - 1:
            raise GraphError(f"need {g - 1} bridge lengths, got {len(beta)}")
        if len(pendant) != 2:
            raise GraphError(f"need 2 pendant bridge lengths, got {len(pendant)}")
        self.g = g
        self.extended = extended

        vertices = [name for i in range(1, g + 1) for name in (f"v{i}", f"w{i}")]
        edges = []
        for i in range(g):
            v, w = vertices[2 * i], vertices[2 * i + 1]
            edges += [(v, w, ell[i]), (v, w, m[i])]
            if i < g - 1:
                edges.append((w, vertices[2 * i + 2], beta[i]))
        if extended:
            vertices = ["w0", *vertices, f"v{g + 1}"]
            edges += [("w0", "v1", pendant[0]), (f"w{g}", f"v{g + 1}", pendant[1])]
        # the chain is connected and its names distinct, so its lengths are
        # all the graph needs checked
        self._build(tuple(vertices), {v: i for i, v in enumerate(vertices)},
                    [(u, v, _length(x, u, v)) for (u, v, x) in edges])
        self._loops = tuple((2 * i + extended, 2 * i + 1 + extended, 3 * i, 3 * i + 1,
                             3 * i + 2 if i < g - 1 else 3 * g if extended else None)
                            for i in range(g))
        self._core_chain = () if extended else self._loops
        core = 3 * g - 1
        lengths = [length for (_u, _v, length) in self.edges]
        ell, m, self.beta = (tuple(lengths[i:core:3]) for i in range(3))
        self.ell, self.m, self.pendant = ell, m, tuple(lengths[core:])
        # with k the gcd of scale and the core's integer lengths, scale // k
        # is the lcm of the core's denominators, whatever the pendants'
        k = gcd(self.scale, *self.int_lengths[:core])
        self.integer_lengths = (self.scale // k, *(
            tuple(x // k for x in self.int_lengths[i:core:3]) for i in range(3)))
        # whether no ell_i/m_i is a ratio a/b of positive integers with
        # a + b <= 2g-2, decided once on the integer lengths x and y: in
        # lowest terms p/q = (x/k)/(y/k), k = gcd(x, y), every such a/b is
        # np/nq, so that holds iff p + q > 2g-2
        self.generic = all((x + y) // gcd(x, y) > 2 * g - 2
                           for x, y in zip(*self.integer_lengths[1:3]))

    @property
    def graph(self) -> "ChainOfLoops":
        """The chain itself, read as its graph."""
        return self

    # -- named points and edges ------------------------------------------

    def v(self, i: int) -> Point:
        return self.vertex_point(f"v{i}")

    def w(self, i: int) -> Point:
        return self.vertex_point(f"w{i}")

    def _number(self, i, what: str, lo: int, hi: int) -> int:
        """``i`` if it numbers one of this chain's ``what``s, lo..hi;
        ``GraphError`` naming i otherwise."""
        if type(i) is int and lo <= i <= hi:
            return i
        raise GraphError(f"no {what} {_shown(i)} on this chain; its {what}s are {lo}..{hi}")

    def top_edge(self, i: int) -> int:
        return self._loops[self._number(i, "loop", 1, self.g) - 1][2]

    def bottom_edge(self, i: int) -> int:
        return self._loops[self._number(i, "loop", 1, self.g) - 1][3]

    def bridge_edge(self, i: int) -> int:
        """Bridge i runs w_i -> v_{i+1}; 0 and g exist only on extended chains."""
        g = self.g
        i = self._number(i, "bridge", *((0, g) if self.extended else (1, g - 1)))
        return 3 * g - 1 if i == 0 else self._loops[i - 1][4]

    def piece(self, p: Point) -> int | None:
        """Index of the part of gamma_1, br_1, ..., gamma_g, {w_g} holding
        the point p of this chain: 2i-2 for the cell gamma_i (loop i minus
        w_i), 2i-1 for the bridge br_i = [w_i, v_{i+1}), 2g-1 for w_g, and
        None on the pendant bridges of an extended chain; ``GraphError``
        unless p is a point of the chain (``check_point``)."""
        self.check_point(p)
        if p.vertex is None:
            # edges 3i-3, 3i-2 and 3i-1 lie on pieces 2i-2, 2i-2 and 2i-1
            return 2 * p.edge // 3 if p.edge < 3 * self.g - 1 else None
        # a vertex's index is its piece's, past w_0 on an extended chain
        k = self.vertex_index[p.vertex] - self.extended
        return k if 0 <= k < 2 * self.g else None

    # -- geometry helpers ------------------------------------------------

    def ccw_point(self, i: int, t) -> Point:
        """Point on loop i at distance t counterclockwise from w_i.

        Counterclockwise means: traverse the top edge (length ell_i) from
        w_i toward v_i first, then the bottom edge back to w_i; the cycle
        has length ell_i + m_i and t is taken modulo it.  This orientation
        is the one under which the tableau divisors acquire their expected
        rank; distance m_i from w_i lands inside the top edge.
        """
        top = self.top_edge(i)  # checks 1 <= i <= g
        ell = self.ell[i - 1]
        t = _rat(t) % (ell + self.m[i - 1])
        if not t:
            return self.w(i)
        if t <= ell:
            # top edge is oriented v_i -> w_i, so ccw-distance t from w_i
            # sits at offset ell_i - t
            return self.point(top, ell - t)
        return self.point(top + 1, t - ell)


def default_generic_chain(g: int, extended: bool = False) -> ChainOfLoops:
    """Reproducible generic lengths: m_i = 1, ell_i = 2g-1 + i/(g+1), beta_i = 1.

    Each ratio ell_i/m_i exceeds every a/b with a + b <= 2g-2 and the
    ratios are pairwise distinct.
    """
    ell = [2 * g - 1 + Fraction(i, g + 1) for i in range(1, g + 1)]
    m = [Fraction(1)] * g
    beta = [Fraction(1)] * (g - 1)
    return ChainOfLoops(g, ell, m, beta, extended=extended)

