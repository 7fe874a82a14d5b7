"""Reduced divisors, burning, linear equivalence, and rank.

Reduction to a base point runs the metric burning algorithm: fire spreads
from the base, a point survives only if its chip count is at least the
number of burning directions reaching it, and the surviving closed set is
fired toward the base until everything burns.  Debt away from the base is
first moved onto the base: by tropical Riemann-Roch, -p is equivalent to
Z_p - (g+1)*q for an effective Z_p, the p-reduced form of (g+1)*q - p,
which the same firing loop computes (see ``_clear_debt``).

Burning and firing run on integers.  Every offset is a multiple of 1/L,
where L is the lcm of the denominators of the edge lengths, of the
divisor's offsets and of the base's offset; firing moves chips by
distances between such offsets, so they stay on that lattice.  The core
keeps chips in a per-vertex list and a dict from (edge, offset in units
of 1/L) to count, rebuilds the subdivided model as integer segment arrays
on every step, and converts to and from ``Divisor`` once per call.

Only chips move; the witness f with D + div(f) = D' is then solved from
D' - D by one weighted-Laplacian system (Baker and Shokrieh, "Chip-firing
games, potential theory on graphs, and spanning trees").
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .errors import PreconditionError, ReductionCapError, TheoremViolation
from .graph import Divisor, Interval, MetricGraph, Point, Region
from .plfunc import PLFunction, _value_on

DEFAULT_MAX_STEPS = 10 ** 6


# ---------------------------------------------------------------------------
# the integer core


class _Lattice:
    """The graph with every length in units of 1/L, where L is the lcm of
    the denominators of the edge lengths and of the given points' offsets.

    A point is named by a key: its vertex index, or (edge, offset) with
    the offset an integer strictly inside the edge.  Firing by a corridor
    length never leaves this lattice, so the core needs no rescaling.
    """

    __slots__ = ("graph", "scale", "edges")

    def __init__(self, graph: MetricGraph, points):
        dens = [length.denominator for (_u, _v, length) in graph.edges]
        for p in points:
            graph.check_point(p)
            if not p.is_vertex:
                dens.append(p.offset.denominator)
        self.graph = graph
        self.scale = L = lcm(*dens)
        # the graph's edges as (first end, second end, length) in integers
        self.edges = [(u, v, length.numerator * (L // length.denominator))
                      for (u, v), (_u, _v, length) in zip(graph.edge_ends, graph.edges)]

    def key(self, p: Point):
        if p.is_vertex:
            return self.graph.vertex_index[p.vertex]
        return (p.edge, p.offset.numerator * (self.scale // p.offset.denominator))

    def point(self, key) -> Point:
        if type(key) is int:
            return Point.at_vertex(self.graph.vertices[key])
        return self.graph.point(key[0], Fraction(key[1], self.scale))

    def chips(self, D: Divisor) -> _Chips:
        chips = _Chips(len(self.graph.vertices))
        for p, c in D.items():
            chips.add(self.key(p), c)
        return chips

    def divisor(self, chips: _Chips) -> Divisor:
        return Divisor({self.point(k): c for k, c in chips.items()})


class _Chips:
    """An integer divisor: chips per vertex index, plus a dict from
    (edge, offset) to its nonzero count."""

    __slots__ = ("at_vertex", "on_edge")

    def __init__(self, n: int):
        self.at_vertex = [0] * n
        self.on_edge: dict[tuple[int, int], int] = {}

    def get(self, key) -> int:
        if type(key) is int:
            return self.at_vertex[key]
        return self.on_edge.get(key, 0)

    def add(self, key, c: int) -> None:
        if type(key) is int:
            self.at_vertex[key] += c
        elif c := self.on_edge.get(key, 0) + c:
            self.on_edge[key] = c
        else:
            del self.on_edge[key]

    def items(self):
        return [(i, c) for i, c in enumerate(self.at_vertex) if c] + list(self.on_edge.items())


def _burn(lat: _Lattice, chips: _Chips, base):
    """Subdivide every edge at the chips' interior points and at ``base``,
    then burn from the base: a node burns once more burning directions
    reach it than it holds chips.

    Nodes 0..n-1 are the vertices, the others the cut points in edge and
    offset order; ``keys`` names each node.  Returns the segments
    (edge, lo, hi, a, b) in the same order, the segments at each node, the
    keys, which nodes burnt and the base's node.
    """
    cuts: dict[int, list[int]] = {}
    for (e, k) in chips.on_edge:
        cuts.setdefault(e, []).append(k)
    if type(base) is tuple and base not in chips.on_edge:
        cuts.setdefault(base[0], []).append(base[1])
    count = chips.at_vertex[:]
    keys: list = list(range(len(count)))
    inc: list[list[int]] = [[] for _ in keys]
    segs: list[tuple[int, int, int, int, int]] = []
    bid = base
    for e, (a, v, length) in enumerate(lat.edges):
        lo = 0
        for k in sorted(cuts.get(e, ())):
            b, key = len(keys), (e, k)
            if key == base:
                bid = b
            keys.append(key)
            count.append(chips.on_edge.get(key, 0))
            inc.append([len(segs)])
            inc[a].append(len(segs))
            segs.append((e, lo, k, a, b))
            a, lo = b, k
        inc[a].append(len(segs))
        inc[v].append(len(segs))
        segs.append((e, lo, length, a, v))

    burnt = [False] * len(keys)
    burnt[bid] = True
    arrivals = [0] * len(keys)
    frontier = [bid]
    while frontier:
        x = frontier.pop()
        for s in inc[x]:
            _e, _lo, _hi, a, b = segs[s]
            y = b if a == x else a
            if not burnt[y]:
                arrivals[y] += 1
                if arrivals[y] > count[y]:
                    burnt[y] = True
                    frontier.append(y)
    return segs, inc, keys, burnt, bid


def _fire(lat: _Lattice, chips: _Chips, base, budget: list[int]) -> None:
    """Fire ``chips`` toward ``base``, in place, until they burn
    completely: the result is the divisor reduced at the base.  The chips
    must be effective away from the base; each firing step draws one from
    ``budget``.

    A step fires the unburnt set by eps.  Each germ leaving it is followed
    through burnt valence-two nodes to the base or a branch node, and eps
    is the shortest such corridor, so a chip crosses a whole corridor in
    one step.  Fire reaches the inner nodes of a corridor only through its
    ends, so no corridor ends at an unburnt node, and two never meet.
    """
    while True:
        segs, inc, keys, burnt, bid = _burn(lat, chips, base)
        if all(burnt):
            return
        if budget[0] <= 0:
            raise ReductionCapError("reduction did not finish within its step budget")
        budget[0] -= 1
        germs = []
        for si, (_e, _lo, _hi, a, b) in enumerate(segs):
            if burnt[a] == burnt[b]:
                continue
            prev = b if burnt[a] else a
            walk: list[tuple[int, bool]] = []
            total, s, x = 0, si, prev
            while True:
                _e, o1, o2, u, v = segs[s]
                walk.append((s, prev == u))
                total += o2 - o1
                nxt = v if prev == u else u
                if nxt == bid or len(inc[nxt]) != 2:
                    break
                s1, s2 = inc[nxt]
                s, prev = (s2 if s == s1 else s1), nxt
            germs.append((x, walk, total))
        eps = min(total for (_x, _walk, total) in germs)
        for x, walk, _total in germs:
            chips.add(keys[x], -1)
            rest = eps
            for s, forward in walk:
                e, o1, o2, _u, _v = segs[s]
                if rest <= o2 - o1:
                    k = o1 + rest if forward else o2 - rest
                    u, v, length = lat.edges[e]
                    chips.add(u if k == 0 else v if k == length else (e, k), 1)
                    break
                rest -= o2 - o1


def _clear_debt(lat: _Lattice, chips: _Chips, base, budget: list[int]) -> None:
    """Move all debt of ``chips`` onto ``base`` = q, in place.

    For a debt point p != q, the divisor (g+1)*q - p has degree g, so by
    tropical Riemann-Roch (Gathmann and Kerber, "A Riemann-Roch theorem in
    tropical geometry") it has rank at least 0 and its p-reduced form Z_p
    is effective.  Its only debt sits at its own base p, so ``_fire``
    computes Z_p directly, with no clearing of its own, drawing from
    ``budget``.  As p + Z_p - (g+1)*q is principal, each debt c*p (c < 0)
    is replaced by -c*(Z_p - (g+1)*q), which is effective away from q.
    """
    top = lat.graph.betti() + 1
    for p, c in [(p, c) for p, c in chips.items() if c < 0 and p != base]:
        z = _Chips(len(chips.at_vertex))
        z.add(base, top)
        z.add(p, -1)
        _fire(lat, z, p, budget)
        if z.get(p) < 0:
            raise TheoremViolation(
                f"(g+1)*q - p has no effective representative for p = {lat.point(p)}")
        for k, cz in z.items():
            chips.add(k, -c * cz)
        chips.add(p, -c)
        chips.add(base, c * top)


# ---------------------------------------------------------------------------
# burning and reduction


@dataclass
class BurnResult:
    """One burn from a base point, on the model that subdivides each edge
    at the divisor's interior points and at the base."""

    all_burnt: bool
    unburnt: set[Point]
    # segments of the model with both endpoints unburnt: (edge, lo, hi)
    unburnt_segments: list[tuple[int, Fraction, Fraction]]


def dhar_burn(graph: MetricGraph, D: Divisor, base: Point) -> BurnResult:
    """One pass of the burning algorithm from ``base``.

    This is the burn that ``v_reduce`` runs before every firing step, on
    D converted to the integer core and back.  Requires D effective away
    from the base point and every point on the graph.
    """
    lat = _Lattice(graph, [base, *D.support()])
    for p, c in D.items():
        if c < 0 and p != base:
            raise PreconditionError(f"divisor has debt {c} at {p} away from the base")
    segs, _inc, keys, burnt, _bid = _burn(lat, lat.chips(D), lat.key(base))
    L = lat.scale
    unburnt = {lat.point(k) for k, b in zip(keys, burnt) if not b}
    unb_segs = [(e, Fraction(lo, L), Fraction(hi, L))
                for (e, lo, hi, a, b) in segs if not (burnt[a] or burnt[b])]
    return BurnResult(not unburnt, unburnt, unb_segs)


def dhar_unburnt(graph: MetricGraph, D: Divisor, base: Point) -> Region:
    """The maximal closed set that survives burning from ``base``; empty iff
    D is reduced at the base."""
    burn = dhar_burn(graph, D, base)
    intervals = [Interval(ei, lo, hi) for (ei, lo, hi) in burn.unburnt_segments]
    covered = set()
    for (ei, lo, hi) in burn.unburnt_segments:
        covered.add(graph.point(ei, lo))
        covered.add(graph.point(ei, hi))
    isolated = burn.unburnt - covered
    return Region(graph, intervals, isolated)


@dataclass
class ReductionResult:
    reduced: Divisor
    witness: PLFunction | None
    steps: int


def _potential(graph: MetricGraph, E: Divisor, base: Point) -> PLFunction:
    """The f with div(f) = E and f(base) = 0, for E principal.

    f is affine between the chips of E on each edge, so its vertex values
    determine it.  They solve the weighted Laplacian (weight 1/L per edge
    of length L) with the first vertex pinned to 0, where a chip c at
    offset x sends c*(L-x)/L to the edge's first end and c*x/L to its
    second.  The reduced Laplacian is positive definite, so exact
    elimination needs no pivoting.  Each row keeps only its nonzero
    columns; elimination keeps the matrix symmetric, so the rows below a
    pivot with an entry in its column are the later columns of its row,
    and a chain, almost tridiagonal in vertex order, fills in nothing.
    """
    index = graph.vertex_index
    n = len(index)
    rows: list[dict[int, Fraction]] = [{} for _ in range(n)]
    # each vertex's share of E
    rhs = [Fraction(E.coeff(Point.at_vertex(v))) for v in graph.vertices]
    chips: dict[int, list[tuple[Fraction, int]]] = {ei: [] for ei in range(len(graph.edges))}
    for p, c in sorted(E.items(), key=lambda t: t[0].sort_key()):
        if not p.is_vertex:
            chips[p.edge].append((p.offset, c))
    for ei, ((i, j), (_u, _v, length)) in enumerate(zip(graph.edge_ends, graph.edges)):
        if i != j:
            for a, b in ((i, j), (j, i)):
                rows[a][a] = rows[a].get(a, 0) + 1 / length
                rows[a][b] = rows[a].get(b, 0) - 1 / length
        for x, c in chips[ei]:
            rhs[i] += c * (length - x) / length
            rhs[j] += c * x / length
    for k in range(1, n):
        pivot = rows[k]
        for i in [i for i in pivot if i > k]:
            m = rows[i].pop(k) / pivot[k]
            if m:
                row = rows[i]
                for j, b in pivot.items():
                    if j > k:
                        row[j] = row.get(j, 0) - m * b
                rhs[i] -= m * rhs[k]
    val = [Fraction(0)] * n
    for k in range(n - 1, 0, -1):
        row = rows[k]
        val[k] = (rhs[k] - sum(a * val[j] for j, a in row.items() if j > k)) / row[k]
    data: dict[int, list[tuple[Fraction, Fraction]]] = {}
    for ei, ((i, j), (_u, _v, length)) in enumerate(zip(graph.edge_ends, graph.edges)):
        # the slope leaving the first end; each chip c passed lowers it by c
        o, y = Fraction(0), val[i]
        slope = (val[j] - y + sum(c * (length - x) for x, c in chips[ei])) / length
        data[ei] = [(o, y)]
        for x, c in chips[ei] + [(length, 0)]:
            y += slope * (x - o)
            data[ei].append((x, y))
            o, slope = x, slope - c
    ei, off = graph.edge_coordinates(base)[0]
    shift = _value_on(data[ei], off)
    return PLFunction(graph, {ei: [(o, y - shift) for (o, y) in pts]
                              for ei, pts in data.items()})


def v_reduce(graph: MetricGraph, D: Divisor, base: Point,
             track_witness: bool = True,
             max_steps: int = DEFAULT_MAX_STEPS) -> ReductionResult:
    """The unique divisor equivalent to D that is reduced at ``base``,
    together with (optionally) a witness f with D + div(f) the reduced
    divisor and f(base) = 0.

    The firing loop moves chips only; the witness is solved afterwards
    from the reduced divisor minus D, as it depends on nothing else.
    ``steps`` counts every firing step, those that move debt to the base
    included, and ``max_steps`` bounds them all.  A point of D or a base
    that the graph does not have raises ``GraphError``.
    """
    lat = _Lattice(graph, [base, *D.support()])
    chips, q = lat.chips(D), lat.key(base)
    budget = [max_steps]
    _clear_debt(lat, chips, q, budget)
    _fire(lat, chips, q, budget)
    red = lat.divisor(chips)
    witness = _potential(graph, red - D, base) if track_witness else None
    return ReductionResult(red, witness, max_steps - budget[0])


def is_reduced(graph: MetricGraph, D: Divisor, base: Point) -> bool:
    if any(c < 0 for p, c in D.items() if p != base):
        return False
    return dhar_burn(graph, D, base).all_burnt


def default_base(graph: MetricGraph) -> Point:
    """Lexicographically first vertex name, the conventional base point."""
    return graph.vertex_point(min(graph.vertices))


def is_equivalent(graph: MetricGraph, D1: Divisor, D2: Divisor) -> PLFunction | None:
    """If D1 ~ D2, a witness f with D2 = D1 + div(f); otherwise None.

    Both divisors are reduced at the lexicographically first vertex and
    compared there.
    """
    if D1.degree != D2.degree:
        return None
    base = default_base(graph)
    if (v_reduce(graph, D1, base, track_witness=False).reduced
            != v_reduce(graph, D2, base, track_witness=False).reduced):
        return None
    return _potential(graph, D2 - D1, base)


def effective_class(graph: MetricGraph, D: Divisor, base: Point | None = None) -> bool:
    """Whether D is linearly equivalent to an effective divisor."""
    if base is None:
        base = default_base(graph)
    red = v_reduce(graph, D, base, track_witness=False).reduced
    return red.coeff(base) >= 0


# ---------------------------------------------------------------------------
# rank


def default_rank_points(graph: MetricGraph) -> list[Point]:
    """A rank-determining set: the vertex set of a loopless model.

    The vertices of any loopless model determine rank; only self-loop
    edges need an extra interior point to break the loop.  Parallel edges
    are fine as they stand.
    """
    pts = [graph.vertex_point(v) for v in graph.vertices]
    for ei, (u, v, _l) in enumerate(graph.edges):
        if u == v:
            pts.append(graph.point(ei, graph.edge_length(ei) / 2))
    return pts


def rank(graph: MetricGraph, D: Divisor,
         points: list[Point] | None = None,
         base: Point | None = None) -> int:
    """Baker-Norine rank, computed over a rank-determining point set.

    rank(D) >= r iff D - E has an effective representative for every
    effective E of degree r supported on the point set.  The search walks
    nondecreasing index multisets depth-first, re-reducing incrementally,
    and prunes with the fact that once D - E fails, so does every
    extension of E.
    """
    if points is None:
        points = default_rank_points(graph)
    if base is None:
        base = default_base(graph)
    red0 = v_reduce(graph, D, base, track_witness=False).reduced
    if red0.coeff(base) < 0:
        return -1
    # the rank of a divisor reduced at p is at most its coefficient at p,
    # and any E of degree deg(D)+1 drives the degree negative; both bound
    # the depth the search needs to certify
    best_fail = D.degree + 1
    for p in points:
        red_p = v_reduce(graph, D, p, track_witness=False).reduced
        cp = red_p.coeff(p)
        if cp < 0:
            return -1
        best_fail = min(best_fail, cp + 1)

    def dfs(cur: Divisor, start: int, depth: int):
        # cur is an effective representative of D minus the multiset chosen
        # so far; re-reducing at the point being subtracted keeps the only
        # debt at the reduction base, so no debt ever has to move there
        nonlocal best_fail
        if depth + 1 >= best_fail:
            return
        for i in range(start, len(points)):
            p = points[i]
            if cur.coeff(p) >= 1:
                # a chip is present: the child is effective as it stands
                nxt = cur - Divisor({p: 1})
            else:
                nxt = v_reduce(graph, cur - Divisor({p: 1}), p,
                               track_witness=False).reduced
                if nxt.coeff(p) < 0:
                    best_fail = depth + 1
                    return
            dfs(nxt, i, depth + 1)
            if depth + 1 >= best_fail:
                return

    dfs(red0, 0, 0)
    return best_fail - 1


def rank_subdivision_oracle(graph: MetricGraph, D: Divisor, n: int = 8,
                            base: Point | None = None) -> int:
    """Independent rank computation over the n-fold subdivision points of
    every edge, for cross-checking the default point set."""
    pts: list[Point] = [graph.vertex_point(v) for v in graph.vertices]
    seen = set(pts)
    for ei in range(len(graph.edges)):
        length = graph.edge_length(ei)
        for k in range(1, n):
            p = graph.point(ei, length * k / n)
            if p not in seen:
                seen.add(p)
                pts.append(p)
    return rank(graph, D, points=pts, base=base)


def find_unoccupied_edge(graph: MetricGraph, D: Divisor,
                         open_edges: list[int]) -> int:
    """Given D equivalent to the canonical divisor and disjoint open edges
    whose complement is a tree, return an open edge with no point of D.

    One must exist; if none does, the underlying theorem is falsified and
    an error is raised rather than returning a wrong answer.
    """
    from .graph import canonical_divisor
    if not D.is_effective:
        raise PreconditionError("divisor must be effective")
    if is_equivalent(graph, D, canonical_divisor(graph)) is None:
        raise PreconditionError("divisor is not equivalent to the canonical divisor")
    for ei in open_edges:
        occupied = any((not p.is_vertex) and p.edge == ei and c > 0
                       for p, c in D.items())
        if not occupied:
            return ei
    raise TheoremViolation(
        "every designated open edge carries a point of a canonical divisor")


def riemann_roch_check(graph: MetricGraph, D: Divisor) -> tuple[bool, int, int]:
    """Verify rank(D) - rank(K - D) == deg(D) - g + 1; returns both ranks."""
    from .graph import canonical_divisor
    K = canonical_divisor(graph)
    r1 = rank(graph, D)
    r2 = rank(graph, K - D)
    g = graph.betti()
    return (r1 - r2 == D.degree - g + 1, r1, r2)
