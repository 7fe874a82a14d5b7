"""Reduced divisors, burning, linear equivalence, and rank.

Reduction to a base point runs the metric burning algorithm: fire spreads
from the base, a point survives only if its chip count is at least the
number of burning directions reaching it, and the surviving closed set is
fired toward the base until everything burns.  Debt away from the base is
first paid from the divisor's own chips by the same firing loop (see
``_clear_debt``), in one pass: the debts are set aside, the base lends
at most g chips so that the chips left have degree at least g, and each
debt c*p, in key order, is paid by firing at p until p holds c chips,
which tropical Riemann-Roch guarantees; so the firings depend on the
divisor and the base alone.  Each firing stops as soon as its base
holds the chips it needs, as no firing step takes one off its base.

Burning and firing run on integers.  Every offset is a multiple of 1/L,
where L is the lcm of the graph's ``scale`` (that of its edge lengths),
of the divisor's offsets and of the base's offset; firing moves chips by
distances between such offsets, so they stay on that lattice.  All chips
live in one store, ``_Chips``: a list per vertex and, per edge, a sorted
tuple of (offset in units of 1/L, count) pairs, which burning, firing,
the rank search and the witness solve all read; a call converts to and
from ``Divisor`` once.  The burn runs over the vertices and an interior
base only: an edge, or the part of it on one side of an interior base,
carries fire from end to end when it holds no chips, and otherwise its
chips are read off its burnt ends (see ``_Runs``).  The graph stores
(``_stored``) one lattice per L, its edges scaled once, the runs of each
base on it, the eliminated Laplacian, the bridge classes and the
canonical divisor.  Every call checks the points it is given once, on
integers: ``rank`` reduces D on the lattice it has checked (``_reduce``),
with no second check, and the graph's own vertices, which it reads off
the stored classes, are not checked at all.  ``rank`` runs its whole
depth-first search on these chips, fires in its pre-pass only until the
base holds as many chips as its bound less one and on its last level
only until the base holds a chip, and ends, in its pre-pass or its
search, at its first failure of degree max(deg(D) - g + 1, 1), below
which none can fail.

Only chips move; the witness f with D + div(f) = D' is then solved from
the reduced chips less D's terms by one weighted-Laplacian system (Baker
and Shokrieh, "Chip-firing games, potential theory on graphs, and
spanning trees"), whose matrix is eliminated once, fraction-free, and
stored, so that each solve only replays the row operations on its right side.
"""
from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, inf, lcm

from .errors import GraphError, PreconditionError, ReductionCapError, TheoremViolation
from .graph import (Divisor, Interval, MetricGraph, Point, Region, _shown,
                    canonical_divisor)
from .plfunc import PLFunction

DEFAULT_MAX_STEPS = 10 ** 6

# the graph's store, emptied when it would pass this many entries: a
# lattice under its scale L, a base's burn runs under (L, base), and the
# Laplacian, the bridge classes and the canonical divisor under
# "laplacian", "classes" and "canonical"; seed-1 benchmark runs of
# ``rank`` and ``reduce`` level off at 404 on their genus-3 graph, 398 of
# them runs, after 30,000 ops and more
_STORE_SIZE = 512


def _stored(graph: MetricGraph, key, value):
    """``value``, put in the graph's store under ``key``, emptied first where
    it is full; callers look up ``store.get(key) or`` (no value is falsy)
    and come here on a miss.  No entry refers to another, so a store
    emptied in a call only costs a rebuild."""
    store = graph._store
    if len(store) >= _STORE_SIZE:
        store.clear()
    store[key] = value
    return value


# ---------------------------------------------------------------------------
# the integer core


class _Lattice:
    """The graph with every length in units of 1/L, where L is the lcm of
    the graph's ``scale`` and the denominators of the given points' offsets.

    A point is named by a key: its vertex index, or (edge, offset) with
    the offset an integer strictly inside the edge.  Firing by a corridor
    length never leaves this lattice, so the core needs no rescaling.
    Each call checks every point it is given, on integers, and returns
    the graph's stored lattice of that scale (``_stored``), built where
    the store lacks it.  Points come back from ``_point_at``, and
    distinct keys name distinct points.
    """

    __slots__ = ("graph", "scale", "edges")

    def __new__(cls, graph: MetricGraph, points: list[Point]):
        for p in points:
            graph.check_point(p)
        # a vertex point's offset is 0, of denominator 1
        L = lcm(graph.scale, *(p.offset.denominator for p in points if p.vertex is None))
        lat = graph._store.get(L)
        if lat is None:
            lat = object.__new__(cls)
            lat.graph, lat.scale, k = graph, L, L // graph.scale
            # the graph's edges as (first end, second end, length) in integers
            lat.edges = [(u, v, length * k)
                         for (u, v), length in zip(graph.edge_ends, graph.int_lengths)]
            _stored(graph, L, lat)
        return lat

    def key(self, p: Point):
        if p.vertex is not None:
            return self.graph.vertex_index[p.vertex]
        return (p.edge, p.offset.numerator * (self.scale // p.offset.denominator))

    def point(self, key) -> Point:
        if type(key) is int:
            return self.graph.vertex_points[key]
        return self.graph._point_at(key[0], key[1], self.scale)

    def chips(self, D: Divisor) -> _Chips:
        chips = _Chips(len(self.graph.vertices), len(self.edges))
        for p, c in D.items():
            chips.add(self.key(p), c)
        return chips

    def divisor(self, chips: _Chips) -> Divisor:
        return Divisor._of({self.point(k): c for k, c in chips.items()})

    def runs(self, base) -> _Runs:
        """The runs of ``base``, stored under (L, base), as they depend on
        the lattice's integer edges and on the base alone."""
        key = (self.scale, base)
        return self.graph._store.get(key) or _stored(self.graph, key, _Runs(self, base))


class _Chips:
    """An integer divisor: chips per vertex index and, per edge, the
    sorted tuple of (offset, nonzero count) pairs inside it.  The tuples
    are replaced, never changed, so copies share them.  ``items`` lists
    the chips in key order: vertices by index, then edge and offset."""

    __slots__ = ("at_vertex", "on_edge")

    def __init__(self, n: int, m: int):
        self.at_vertex = [0] * n
        self.on_edge: list[tuple[tuple[int, int], ...]] = [()] * m

    def get(self, key) -> int:
        if type(key) is int:
            return self.at_vertex[key]
        e, k = key
        for o, c in self.on_edge[e]:
            if o == k:
                return c
        return 0

    def add(self, key, c: int) -> None:
        if type(key) is int:
            self.at_vertex[key] += c
            return
        e, k = key
        pairs = self.on_edge[e]
        # offsets are integers, so the pair at k, if any, is pairs[i:j]
        i, j = bisect_left(pairs, (k,)), bisect_left(pairs, (k + 1,))
        if i < j:
            c += pairs[i][1]
        self.on_edge[e] = pairs[:i] + ((k, c),) + pairs[j:] if c else pairs[:i] + pairs[j:]

    def degree(self) -> int:
        return sum(self.at_vertex) + sum(c for pairs in self.on_edge for _k, c in pairs)

    def items(self):
        return ([(i, c) for i, c in enumerate(self.at_vertex) if c]
                + [((e, k), c) for e, pairs in enumerate(self.on_edge) for k, c in pairs])

    def copy(self) -> _Chips:
        new = _Chips.__new__(_Chips)
        new.at_vertex = self.at_vertex[:]
        new.on_edge = self.on_edge[:]
        return new


class _Runs:
    """The edges of a lattice cut at a base into runs, one row (edge, lo,
    hi, a, b, tail_a, tail_b) per run: from node a at offset lo to node b
    at hi.  The nodes are the vertex indices; an interior base is node n
    and splits its edge into two runs, the second appended after the
    edges.  ``base`` is the base's node, and ``cut`` an interior base's
    key or None.  ``inc`` lists each node's runs as (run, node at the
    other end).

    A corridor leaves a run at one end and goes on through valence-two
    vertices up to the base or a vertex of another valence.  Past the
    run's end it depends on the graph and the base only, so a run's row
    holds it for each end, tail_a past a and tail_b past b, as its length
    and its pieces (edge, start, direction, length).  Only an end of
    valence two that is not the base has a corridor past it; ``_tail``,
    called at every end, returns (0, ()) at any other.
    """

    __slots__ = ("runs", "inc", "base", "cut")

    def __init__(self, lat: _Lattice, base):
        n = len(lat.graph.vertices)
        runs = [(e, 0, length, u, v) for e, (u, v, length) in enumerate(lat.edges)]
        self.base, self.cut = base, None
        if type(base) is tuple:
            e, k = self.cut = base
            u, v, length = lat.edges[e]
            runs[e] = (e, 0, k, u, n)
            runs.append((e, k, length, n, v))
            self.base, n = n, n + 1
        self.inc: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        for r, (_e, _lo, _hi, a, b) in enumerate(runs):
            self.inc[a].append((r, b))
            self.inc[b].append((r, a))
        # _tail reads the rows before their tails are added
        self.runs = runs
        self.runs = [(e, lo, hi, a, b, self._tail(r, a), self._tail(r, b))
                     for r, (e, lo, hi, a, b) in enumerate(runs)]

    def _tail(self, r: int, y: int):
        """The corridor past run r's end at node y."""
        pieces, total = [], 0
        while y != self.base and len(self.inc[y]) == 2:
            # no run at a valence-two node other than the base is a loop
            (r1, _y1), (r2, _y2) = self.inc[y]
            r = r2 if r1 == r else r1
            e, lo, hi, a, b = self.runs[r]
            pieces.append((e, lo, 1, hi - lo) if a == y else (e, hi, -1, hi - lo))
            total += hi - lo
            y = b if a == y else a
        # most runs end at the base or a branch vertex; those share one tail
        return (total, tuple(pieces)) if pieces else (0, ())

    def burn(self, chips: _Chips):
        """Burn from the base over the nodes.  Fire crosses a run only if
        it holds no chips; otherwise it stops at the first chip from each
        end.  A node burns once more burning runs reach it than it holds
        chips.

        Returns the (offset, count) pairs strictly inside each run and,
        for each node, its chips less the burning runs that reached it:
        negative iff the node burnt.  A run's lone chip point holding one
        chip also burns when both ends of the run do, but fire reaches
        nothing new through it.
        """
        inside, left = chips.on_edge, chips.at_vertex[:]
        if self.cut is not None:
            e, k = self.cut
            pairs = inside[e]
            inside = inside + [pairs[bisect_left(pairs, (k + 1,)):]]
            inside[e] = pairs[:bisect_left(pairs, (k,))]
            left.append(0)
        left[self.base] = -1
        inc = self.inc
        frontier = [self.base]
        while frontier:
            for r, y in inc[frontier.pop()]:
                if left[y] >= 0 and not inside[r]:
                    left[y] -= 1
                    if left[y] < 0:
                        frontier.append(y)
        return inside, left

    def germs(self, chips: _Chips):
        """Burn, then read off each germ leaving the unburnt set as (key,
        edge, offset, direction, distance to the run's end, tail): the
        unburnt point's key and offset, the direction along the edge in
        which it leaves, and the rest of its corridor.  Returns the germs
        and eps, the length of the shortest corridor (inf if none)."""
        inside, left = self.burn(chips)
        germs, eps = [], inf
        for pairs, (e, lo, hi, a, b, tail_a, tail_b) in zip(inside, self.runs):
            burnt_a, burnt_b = left[a] < 0, left[b] < 0
            if not pairs:
                if burnt_a != burnt_b:
                    tail = tail_a if burnt_a else tail_b
                    germs.append((b, e, hi, -1, hi - lo, tail) if burnt_a else
                                 (a, e, lo, 1, hi - lo, tail))
                    if hi - lo + tail[0] < eps:
                        eps = hi - lo + tail[0]
            elif burnt_a or burnt_b:
                # a lone one-chip point between two burnt ends burns
                if burnt_a and burnt_b and len(pairs) == 1 and pairs[0][1] == 1:
                    continue
                if burnt_a:
                    o = pairs[0][0]
                    germs.append(((e, o), e, o, -1, o - lo, tail_a))
                    if o - lo + tail_a[0] < eps:
                        eps = o - lo + tail_a[0]
                if burnt_b:
                    o = pairs[-1][0]
                    germs.append(((e, o), e, o, 1, hi - o, tail_b))
                    if hi - o + tail_b[0] < eps:
                        eps = hi - o + tail_b[0]
        return germs, eps


def _fire(lat: _Lattice, chips: _Chips, base, budget: list[int],
          until: int | None = None) -> None:
    """Fire ``chips`` toward ``base``, in place, until they burn
    completely: the result is the divisor reduced at the base.  The chips
    must be effective away from the base; each firing step draws one from
    ``budget``.  With ``until`` an int, firing ends as soon as the base
    holds at least ``until`` chips: no step takes one off the base, so
    the reduced divisor holds that many there too, and the chips left
    are a divisor equivalent to the reduced one and effective away from
    the base.

    A step burns the base's runs (``_Runs.burn``) and fires the unburnt
    set by eps.  Each germ leaving it is followed through burnt interior
    chip points and valence-two vertices to the base or a vertex of
    another valence, and eps is the shortest such corridor, so a chip
    crosses a whole corridor in one step.  Fire reaches the inner points
    of a corridor only through its ends, so no corridor ends at an
    unburnt point, and two never meet.  A step replaces an edge's pairs
    only where a chip leaves its germ and where it lands.
    """
    runs = lat.runs(base)
    while True:
        if until is not None and chips.get(base) >= until:
            return
        germs, eps = runs.germs(chips)
        if not germs:
            return
        if budget[0] <= 0:
            raise ReductionCapError("reduction did not finish within its step budget")
        budget[0] -= 1
        for x, e, o, direction, first, (_total, pieces) in germs:
            chips.add(x, -1)
            # the chip lands eps along its corridor: on its own run, or on
            # the first piece of the tail that reaches that far
            rest = eps
            if rest > first:
                rest -= first
                for e, o, direction, length in pieces:
                    if rest <= length:
                        break
                    rest -= length
            k = o + direction * rest
            u, v, length = lat.edges[e]
            chips.add(u if k == 0 else v if k == length else (e, k), 1)


def _clear_debt(lat: _Lattice, chips: _Chips, base, budget: list[int]) -> None:
    """Pay the debt of ``chips`` away from ``base`` = q, in place, from
    their own chips, so that only q may be left in debt.

    Every debt is set aside, q's too, which leaves effective chips, and
    q is lent max(0, g - d) chips, d the degree of ``chips`` less q's
    debt (the other debts counted), so that the chips left once every
    other debt is paid still have degree at least g.  By tropical
    Riemann-Roch (Gathmann and Kerber, "A Riemann-Roch theorem in tropical
    geometry") every divisor of degree at least g is equivalent to an
    effective one, so for each debt c*p, in key order, firing the chips at
    p until p holds c chips succeeds (``TheoremViolation`` if not), and
    the c chips are taken off p.  q then gets back its own debt less the
    loan.  The firings depend on the chips alone, not on the order in
    which a divisor's terms were listed, and every one draws from
    ``budget``.
    """
    debts = [(p, -c) for p, c in chips.items() if c < 0 and p != base]
    if not debts:
        return
    owed = min(chips.get(base), 0)
    loan = max(0, lat.graph.betti() - (chips.degree() - owed))
    for p, c in debts:
        chips.add(p, c)
    chips.add(base, loan - owed)
    for p, c in debts:
        _fire(lat, chips, p, budget, until=c)
        if chips.get(p) < c:
            raise TheoremViolation(f"{c} chips of debt at {lat.point(p)} not paid "
                                   f"from a divisor of degree at least g")
        chips.add(p, -c)
    chips.add(base, owed - loan)


def _reduce(lat: _Lattice, chips: _Chips, base) -> int:
    """Reduce ``chips`` at the key ``base``, in place, as ``v_reduce``
    describes (debt first, one step budget, ``TheoremViolation`` for more
    than g chips off the base), and return the firing steps taken."""
    budget = [cap := DEFAULT_MAX_STEPS]
    _clear_debt(lat, chips, base, budget)
    _fire(lat, chips, base, budget)
    g = lat.graph.betti()
    if (off := chips.degree() - chips.get(base)) > g:
        raise TheoremViolation(f"{off} chips off the base after reducing at "
                               f"{lat.point(base)}, more than g = {g}")
    return cap - budget[0]


# ---------------------------------------------------------------------------
# burning and reduction


def dhar_unburnt(graph: MetricGraph, D: Divisor, base: Point) -> Region:
    """The maximal closed set that survives burning from ``base``; empty iff
    D is reduced at the base.

    This is the burn that ``v_reduce`` runs before every firing step
    (``_Runs.burn``).  On each run, the points between its ends and its
    chips are read off the burnt ends: a run without chips burns iff an
    end does, and in a run with chips only a lone one-chip point between
    two burnt ends burns.  Requires D effective away from the base point
    and every point on the graph.
    """
    lat = _Lattice(graph, [base, *D.support()])
    for p, c in D.items():
        if c < 0 and p != base:
            raise PreconditionError(f"divisor has debt {c} at {p} away from the base")
    chips, runs = lat.chips(D), lat.runs(lat.key(base))
    inside, left = runs.burn(chips)
    L = lat.scale
    # the unburnt vertices and chip points by key, and those that end an interval
    unburnt = {x for x in range(len(graph.vertices)) if left[x] >= 0}
    ends, segs = set(), []
    for pairs, (e, lo, hi, a, b, _tail_a, _tail_b) in zip(inside, runs.runs):
        burnt_a, burnt_b = left[a] < 0, left[b] < 0
        if burnt_a and burnt_b and (not pairs or len(pairs) == 1 and pairs[0][1] == 1):
            continue
        unburnt.update((e, k) for k, _c in pairs)
        stops = [(lo, a, burnt_a), *((k, (e, k), False) for k, _c in pairs), (hi, b, burnt_b)]
        for (k1, x1, b1), (k2, x2, b2) in zip(stops, stops[1:]):
            if not (b1 or b2):
                segs.append((e, k1, k2))
                ends.update((x1, x2))
    intervals = [Interval(e, Fraction(k1, L), Fraction(k2, L)) for e, k1, k2 in sorted(segs)]
    return Region(graph, intervals, map(lat.point, unburnt - ends))


@dataclass
class ReductionResult:
    reduced: Divisor
    witness: PLFunction | None
    steps: int


def _exact(num: int, den: int) -> int:
    """num / den, an integer whenever the divisor being solved for is
    principal."""
    q, r = divmod(num, den)
    if r:
        raise GraphError("the divisor is not principal")
    return q


def _laplacian(graph: MetricGraph):
    """The reduced weighted Laplacian of ``graph``, eliminated once and
    kept in its store: (P, weights, ops, upper).  P is the lcm of
    ``int_lengths``, and an edge of length l weighs P/l.  The matrix is
    positive definite, so elimination needs no pivoting, and it is
    fraction-free: a row becomes a times itself minus m times the pivot
    row, then is divided by the gcd d of its entries, and ``ops`` lists
    (row, pivot, a, m, d).  Rows keep their nonzero columns only, and the
    pattern stays symmetric, so the rows a pivot updates are its row's
    later columns, and a chain, almost tridiagonal in vertex order, fills
    in nothing, and leaves no entry left of the diagonal.  ``upper`` holds
    the rows left, last first, as (row, diagonal, later entries).  Each m
    is an entry off the diagonal, and these stay negative: sums of -P/l at
    first, then a*row[j] - m*pivot[j] with a > 0 > m, pivot[j] < 0 and
    row[j] <= 0, over a gcd > 0."""
    n = len(graph.vertices)
    P = lcm(*graph.int_lengths)
    weights = [P // length for length in graph.int_lengths]
    rows: list[dict[int, int]] = [{} for _ in range(n)]
    for (i, j), w in zip(graph.edge_ends, weights):
        for a, b in ((i, j), (j, i)):
            if a and a != b:
                rows[a][a] = rows[a].get(a, 0) + w
                if b:
                    rows[a][b] = rows[a].get(b, 0) - w
    ops = []
    for k in range(1, n):
        pivot = rows[k]
        for i in [i for i in pivot if i > k]:
            row = rows[i]
            m = row.pop(k)
            a = pivot[k]
            for j in row:
                row[j] *= a
            for j, b in pivot.items():
                if j > k:
                    row[j] = row.get(j, 0) - m * b
            d = gcd(*row.values())
            rows[i] = {j: x // d for j, x in row.items()}
            ops.append((i, k, a, m, d))
    upper = [(k, rows[k].pop(k), tuple(rows[k].items())) for k in range(n - 1, 0, -1)]
    return P, weights, ops, upper


def _potential(lat: _Lattice, chips: _Chips, q) -> PLFunction:
    """The f with div(f) = E and f(q) = 0, for E the divisor ``chips`` on
    the lattice ``lat``, which it leaves unchanged, and q a key of that
    lattice; ``GraphError`` if E is not principal.

    f is affine between the chips of E on each edge, so its vertex values
    determine it.  They solve the weighted Laplacian (weight 1/l per edge
    of length l) with the first vertex pinned to 0, where a chip c at
    offset x sends c*(l-x)/l to the edge's first end and c*x/l to its
    second; the first vertex's equation, dropped, holds iff deg E = 0.
    The system is solved on the integers of the lattice: with lengths
    and offsets in units of 1/L and P the lcm of the lengths, every
    equation is multiplied by P, so the weights P/l and the right-hand
    sides are integers, and the unknowns are L times f's vertex values.
    Those are integers when E is principal, as f then has integer slopes
    and breakpoints on the lattice; a division that leaves a remainder
    proves E is not.  The weights are the same at every L, so the matrix
    is eliminated once and stored (``_laplacian``); a call replays its row
    updates on the right-hand side, each division exact or raising, and
    substitutes back.

    Each edge is then written as ``PLFunction.scaled`` holds it and taken
    as is (``PLFunction._of``): its breakpoints are its ends and its chips,
    where the slope drops by a nonzero count, so none is collinear; its
    values are shifted to f(q) = 0 and all is divided by the gcd of L, the
    offsets and the values, as ``_normalize_edge`` does.  Each edge must
    reach its far end at the value solved there, or ``TheoremViolation``.
    """
    degree = chips.degree()
    if degree != 0:
        raise GraphError(f"a divisor of degree {degree} is not principal")
    graph = lat.graph
    P, weights, ops, upper = (graph._store.get("laplacian")
                              or _stored(graph, "laplacian", _laplacian(graph)))
    P *= lat.scale // graph.scale
    rhs = [c * P for c in chips.at_vertex]
    for (i, j, length), on_edge, w in zip(lat.edges, chips.on_edge, weights):
        for x, c in on_edge:
            rhs[i] += c * (length - x) * w
            rhs[j] += c * x * w
    for i, k, a, m, d in ops:
        rhs[i] = a * rhs[i] - m * rhs[k] if d == 1 else _exact(a * rhs[i] - m * rhs[k], d)
    val = [0] * len(rhs)
    for k, diag, later in upper:
        val[k] = _exact(rhs[k] - sum(a * val[j] for j, a in later), diag)
    # f(q) = 0; an interior base's value is read off its edge: its first
    # end's value, the slope leaving that end and the chips passed
    if type(q) is int:
        shift = val[q]
    else:
        e, k = q
        i, j, length = lat.edges[e]
        on_edge = chips.on_edge[e]
        slope = _exact(val[j] - val[i] + sum(c * (length - x) for x, c in on_edge), length)
        shift = val[i] + slope * k - sum(c * (k - x) for x, c in on_edge if x < k)
    val = [y - shift for y in val]
    # each edge's breakpoints, offsets and values in units of 1/L
    L, scaled = lat.scale, []
    for (i, j, length), on_edge in zip(lat.edges, chips.on_edge):
        # the slope leaving the first end; each chip c passed lowers it by c
        slope = _exact(val[j] - val[i] + sum(c * (length - x) for x, c in on_edge), length)
        o, y = 0, val[i]
        O, V = [0], [y]
        for x, c in on_edge:
            y += slope * (x - o)
            O.append(x)
            V.append(y)
            o, slope = x, slope - c
        y += slope * (length - o)
        if y != val[j]:
            raise TheoremViolation(f"the witness solved for {lat.divisor(chips)} is "
                                   f"discontinuous at vertex {graph.vertices[j]}")
        O.append(length)
        V.append(y)
        g = gcd(L, *O, *V)
        scaled.append((L // g, tuple([o // g for o in O]), tuple([y // g for y in V])) if g > 1
                      else (L, tuple(O), tuple(V)))
    return PLFunction._of(graph, tuple(scaled))


def v_reduce(graph: MetricGraph, D: Divisor, base: Point,
             track_witness: bool = True) -> ReductionResult:
    """The unique divisor equivalent to D that is reduced at ``base``,
    together with (optionally) a witness f with D + div(f) the reduced
    divisor and f(base) = 0.

    The firing loop moves chips only; the witness is solved afterwards
    from the reduced chips less D's terms, as it depends on nothing else.
    ``steps`` counts every firing step: those that pay the debt away from
    the base, one firing per debt point, and those that then reduce at
    the base; ``DEFAULT_MAX_STEPS`` bounds them all.  Only ``steps`` depends on
    how the debt is paid, as the reduced divisor is unique, and it too
    depends only on D and the base, not on the order of D's terms
    (``_clear_debt``).  A point of D or a base that the graph does not
    have raises ``GraphError``.  A reduced divisor holds at most g chips
    off its base (the lemma under ``rank``'s floor); a reduction that
    leaves more raises ``TheoremViolation``.
    """
    lat = _Lattice(graph, [base, *D.support()])
    chips, q = lat.chips(D), lat.key(base)
    steps = _reduce(lat, chips, q)
    red = lat.divisor(chips)
    witness = None
    if track_witness:
        # the chips become red - D, on the lattice of D and the base
        for p, c in D.items():
            chips.add(lat.key(p), -c)
        witness = _potential(lat, chips, q)
    return ReductionResult(red, witness, steps)


def is_reduced(graph: MetricGraph, D: Divisor, base: Point) -> bool:
    """Whether D is effective away from ``base`` and burns completely from
    it: the test that ends ``_fire``.  The lattice is built first, so that
    a point the graph lacks raises ``GraphError`` whatever its coefficient."""
    lat = _Lattice(graph, [base, *D.support()])
    if any(c < 0 for p, c in D.items() if p != base):
        return False
    return not lat.runs(lat.key(base)).germs(lat.chips(D))[0]


def default_base(graph: MetricGraph) -> Point:
    """Lexicographically first vertex name, the conventional base point."""
    return graph.vertex_point(min(graph.vertices))


def is_equivalent(graph: MetricGraph, D1: Divisor, D2: Divisor) -> PLFunction | None:
    """If D1 ~ D2, the witness f with D2 = D1 + div(f) that vanishes at
    the lexicographically first vertex; otherwise None.  Nothing is
    reduced: ``_potential`` finds f exactly when D2 - D1 is principal."""
    base = default_base(graph)
    # outside the try, so that a point the graph lacks still raises
    lat = _Lattice(graph, [base, *D1.support(), *D2.support()])
    try:
        return _potential(lat, lat.chips(D2 - D1), lat.key(base))
    except GraphError:
        return None


def effective_class(graph: MetricGraph, D: Divisor) -> bool:
    """Whether D is linearly equivalent to an effective divisor."""
    base = default_base(graph)
    red = v_reduce(graph, D, base, track_witness=False).reduced
    return red.coeff(base) >= 0


# ---------------------------------------------------------------------------
# rank


def _classes(graph: MetricGraph):
    """(vrep, erep), kept in the graph's store: vrep[x] is the least vertex
    joined to vertex x by bridges, erep[e] that vertex for a bridge e, else
    None, as for a self-loop.  Points so joined are equivalent: the function
    0 on p's side of a bridge pq, of slope 1 along it and constant on q's
    side has the divisor q - p, and stopped at an inner point x, x - p."""
    ends = graph.edge_ends
    bridges = {e for e, (u, v) in enumerate(ends) if u != v and not graph._connected({e})}
    vrep = list(range(len(graph.vertices)))
    # each pass carries every least index at least one bridge further
    for _ in bridges:
        for e in bridges:
            u, v = ends[e]
            vrep[u] = vrep[v] = min(vrep[u], vrep[v])
    return vrep, [vrep[u] if e in bridges else None for e, (u, _v) in enumerate(ends)]


def default_rank_points(graph: MetricGraph) -> list[Point]:
    """A rank-determining set: the vertex set of a loopless model.

    The vertices of any loopless model determine rank; only self-loop
    edges need an extra interior point to break the loop.  Parallel edges
    are fine as they stand.
    """
    return [*graph.vertex_points, *_loop_points(graph)]


def _loop_points(graph: MetricGraph) -> list[Point]:
    """The midpoint of each self-loop, in edge order."""
    return [graph._point_at(ei, graph.int_lengths[ei], 2 * graph.scale)
            for ei, (u, v) in enumerate(graph.edge_ends) if u == v]


def rank(graph: MetricGraph, D: Divisor,
         points: list[Point] | None = None, *, _floor: bool = True) -> int:
    """Baker-Norine rank, computed over a rank-determining point set.

    rank(D) >= r iff D - E has an effective representative for every
    effective E of degree r supported on the point set.  The search walks
    nondecreasing index multisets depth-first, re-reducing incrementally,
    and prunes with the fact that once D - E fails, so does every
    extension of E.  It runs on the integer core over one lattice, built,
    with each of its points checked once, before anything is reduced:
    D is reduced at the base on it (``_reduce``), and from there the DFS
    moves ``_Chips`` with no ``Divisor`` and no point check in between.
    A node of the search is an effective representative cur of D minus
    the multiset chosen so far, and a child takes one more point k off
    it.  Each point is taken
    as its bridge class's vertex (``_classes``), each class once: swapping
    p' ~ p for p in E keeps the class of D - E.  With no point set given,
    the keys are read off the stored classes, one per class of vertices,
    followed by each self-loop's midpoint, which alone is checked and
    keyed on the lattice; the result is that of ``default_rank_points``
    given as the point set.  With no memo, a node recurs only for
    equivalent multisets of classes.  A node reduces nothing twice:

    - a divisor of negative degree has rank -1 with nothing reduced, as
      no divisor of negative degree is effective;
    - a child k where cur has no chip is red_k(cur) - k, as a burn from
      k does not look at the chips on k, and red_k(cur) is fired from the
      reduction of cur at the sibling before, in place on the node's one
      copy of cur, as the reduced divisor is the same from any
      representative; at depth 0 these are the pre-pass's
      representatives, each fired from the one before, starting at the
      reduction red0 at ``default_base(graph)``.  The pre-pass fires at k
      only until k holds best_fail - 1 chips, as only a coefficient below
      that lowers the bound, so a depth-0 child may start from a
      representative that is not reduced at k; it is still effective and
      holds a chip at k, which is all a child needs;
    - on the last level (``depth + 2 >= best_fail``) a child only needs
      a chip at k: a k where cur has one passes with no copy, and red is
      fired from k's sibling with ``until=1``, until k holds a chip, not
      to the end, as firing never takes a chip off its base.  The red
      left is still an effective representative of cur, so the next
      sibling fires on from it.

    The pre-pass and the search end at the first failure of degree
    max(deg(D) - g + 1, 1), the floor: the pre-pass checks before its
    first firing and after each, and the search, if it starts, stops
    there.  No E of degree 0 fails, as red0 is effective, and rank(D) >=
    deg(D) - g, so no E of degree up to deg(D) - g fails either.  That
    rests on the lemma that a divisor reduced at q holds at most g chips
    off q (Baker and Norine, "Riemann-Roch and Abel-Jacobi theory on a
    finite graph"; Hladky, Kral and Norine, "Rank of divisors on tropical
    curves", on metric graphs).  Dhar's burn runs on a model subdivided at the chips
    and at q, and a point p != q burns only once more directions reach
    it than it holds chips, so D(p) <= in(p) - 1, in(p) counting the
    edges along which fire reached p before it burnt.  Each edge gives
    at most one such incoming direction, so the sum over the |V| - 1
    points other than q is at most |E| - |V| + 1 = g.  Then D - E reduced
    at q holds at least deg(D) - deg(E) - g chips at q.  ``_reduce``
    checks the lemma on each reduction it makes: ``v_reduce``'s, and
    ``rank``'s own of D at the base.  ``_floor=False`` keeps the floor at
    1 and searches every level above it, for ``rank_subdivision_oracle``.

    The graph stores its lattices, their runs and the bridge classes
    (``_stored``), so repeated calls on one graph, such as the reduction
    and the two ranks of ``riemann_roch_check``, burn on the lattices and
    runs of the first; ``riemann_roch_check`` takes the canonical divisor
    from there too.

    An empty point set raises ``PreconditionError``, a point the graph
    lacks ``GraphError``.
    """
    if points is not None and not points:
        raise PreconditionError("rank needs a nonempty point set")
    base = default_base(graph)
    # the default set's vertices are the graph's own: their keys are read
    # off the classes, and only its self-loop midpoints are checked
    checked = _loop_points(graph) if points is None else points
    lat = _Lattice(graph, [base, *D.support(), *checked])
    vrep, erep = graph._store.get("classes") or _stored(graph, "classes", _classes(graph))
    keys = [*dict.fromkeys(vrep)] if points is None else []
    keys += dict.fromkeys(vrep[k] if type(k) is int else k if erep[k[0]] is None
                          else erep[k[0]] for k in map(lat.key, checked))
    if D.degree < 0:
        return -1
    # D is reduced on the lattice, which holds its support and the base
    red0, q = lat.chips(D), lat.key(base)
    _reduce(lat, red0, q)
    if red0.get(q) < 0:
        return -1
    # the rank of a divisor reduced at p is at most its coefficient at p,
    # and any E of degree deg(D)+1 drives the degree negative; both bound
    # the depth the search needs to certify.  red0 is effective, so its
    # reductions need no debt moved, and no E of degree 0 fails; nor does
    # any E below the Riemann floor (see above)
    floor = max(D.degree - graph.betti() + 1, 1) if _floor else 1
    best_fail = D.degree + 1
    first: list[_Chips] = []
    red = red0
    for k in keys:
        if best_fail <= floor:
            return best_fail - 1
        if k == q:
            red = red0
        else:
            red = red.copy()
            _fire(lat, red, k, [DEFAULT_MAX_STEPS], until=best_fail - 1)
        first.append(red)
        best_fail = min(best_fail, red.get(k) + 1)
    if best_fail <= floor:
        return best_fail - 1

    def dfs(cur: _Chips, start: int, depth: int):
        # cur is an effective representative of D minus the multiset chosen
        # so far; a point is taken off only where it holds a chip, so no
        # firing ever meets debt
        nonlocal best_fail
        # cur reduced (on a leaf, fired) at the latest point where it has
        # no chip, cur until then
        red = cur
        for i in range(start, len(keys)):
            k = keys[i]
            # on the last level only whether the child is effective counts
            leaf = depth + 2 >= best_fail
            # with a chip present the child is effective as it stands
            if cur.get(k) > 0:
                if leaf:
                    continue
                nxt = cur.copy()
            else:
                if depth == 0:
                    red = first[i]
                else:
                    # once copied off cur, red is this node's own
                    if red is cur:
                        red = red.copy()
                    _fire(lat, red, k, [DEFAULT_MAX_STEPS],
                          until=1 if leaf else None)
                if red.get(k) <= 0:
                    best_fail = depth + 1
                    return
                if leaf:
                    continue
                nxt = red.copy()
            nxt.add(k, -1)
            dfs(nxt, i, depth + 1)
            # a failure of the floor's degree ends the search
            if best_fail <= floor:
                return

    dfs(red0, 0, 0)
    return best_fail - 1


def rank_subdivision_oracle(graph: MetricGraph, D: Divisor, n: int = 8) -> int:
    """Independent rank computation over the n-fold subdivision points of
    every edge, for cross-checking the default point set.  ``n`` must be
    an int >= 2 (``PreconditionError``): the vertices alone need not
    determine rank when the graph has a self-loop.  It takes no Riemann
    floor (see ``rank``), as an oracle that took the same early exit
    would check nothing above it, only the floor of 1: a failure of
    degree 1 leaves rank 0 whatever the later points give, so stopping
    there skips no level that could fail."""
    if type(n) is not int or n < 2:
        raise PreconditionError(f"the subdivision needs an int n >= 2, got {_shown(n)}")
    pts = list(graph.vertex_points)
    for ei, length in enumerate(graph.int_lengths):
        pts += [graph._point_at(ei, length * k, graph.scale * n) for k in range(1, n)]
    return rank(graph, D, points=pts, _floor=False)


def find_unoccupied_edge(graph: MetricGraph, D: Divisor,
                         open_edges: list[int]) -> int:
    """Given D equivalent to the canonical divisor and disjoint open edges
    whose complement is a tree, return an open edge with no point of D.

    One must exist; if none does, the underlying theorem is falsified and
    an error is raised rather than returning a wrong answer.  An entry
    that is not an edge index of the graph raises ``GraphError``; unless
    there are g distinct entries whose complement is connected (so a
    tree), ``PreconditionError``.
    """
    if not D.is_effective:
        raise PreconditionError("divisor must be effective")
    if is_equivalent(graph, D, canonical_divisor(graph)) is None:
        raise PreconditionError("divisor is not equivalent to the canonical divisor")
    chosen = set(map(graph.edge_index, open_edges))
    if len(chosen) != len(open_edges) or len(chosen) != graph.betti():
        raise PreconditionError(
            f"need {graph.betti()} distinct open edges, got {list(open_edges)}")
    if not graph._connected(chosen):
        raise PreconditionError(f"removing edges {sorted(chosen)} disconnects the graph")
    for ei in open_edges:
        if not any(p.edge == ei for p in D.support()):
            return ei
    raise TheoremViolation(
        "every designated open edge carries a point of a canonical divisor")


def riemann_roch_check(graph: MetricGraph, D: Divisor) -> tuple[bool, int, int]:
    """Verify rank(D) - rank(K - D) == deg(D) - g + 1; returns both ranks.

    A D of degree at least 0 is reduced once, at ``default_base(graph)``,
    and both ranks are taken from its reduced representative red, as rank
    is a class invariant: red has no debt away from the base to clear, and
    K - red has debt, besides K's -1 at each leaf, at no more than g
    points away from the base, as red holds at most g chips off it, where
    K - D has debt at every chip of D.  A D of negative degree is not
    reduced: its rank is -1, and K - D is ranked as it stands."""
    K = graph._store.get("canonical") or _stored(graph, "canonical", canonical_divisor(graph))
    if D.degree >= 0:
        D = v_reduce(graph, D, default_base(graph), track_witness=False).reduced
    r1 = rank(graph, D)
    r2 = rank(graph, K - D)
    g = graph.betti()
    return (r1 - r2 == D.degree - g + 1, r1, r2)
