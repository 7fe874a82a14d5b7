"""Reduced divisors, burning, linear equivalence, and rank.

Reduction to a base point runs the metric burning algorithm: fire spreads
from the base, a point survives only if its chip count is at least the
number of burning directions reaching it, and the surviving closed set is
fired toward the base until everything burns.  Debt away from the base is
first moved onto the base: by tropical Riemann-Roch, -p is equivalent to
Z_p - (g+1)*q for an effective Z_p, the p-reduced form of (g+1)*q - p,
which the same firing loop computes (see ``_clear_debt``).

Only chips move; the witness f with D + div(f) = D' is then solved from
D' - D by one weighted-Laplacian system (Baker and Shokrieh, "Chip-firing
games, potential theory on graphs, and spanning trees").
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import PreconditionError, ReductionCapError, TheoremViolation
from .graph import Divisor, Interval, MetricGraph, Point, Region
from .plfunc import PLFunction, _value_on

DEFAULT_MAX_STEPS = 10 ** 6


# ---------------------------------------------------------------------------
# burning on the subdivided model


@dataclass
class BurnResult:
    all_burnt: bool
    unburnt: set[Point]
    # outgoing germs of the unburnt set: (node, edge, offset, direction,
    # length of the burnt corridor ahead)
    germs: list[tuple[Point, int, Fraction, int, Fraction]]
    # segments with both endpoints unburnt: (edge, lo, hi)
    unburnt_segments: list[tuple[int, Fraction, Fraction]]
    # per germ, the burnt corridor it faces as a list of (edge, lo, hi,
    # direction) pieces, walked from the germ's node
    walks: list[list[tuple[int, Fraction, Fraction, int]]]


def _model_segments(graph: MetricGraph, cuts: frozenset[Point]):
    """Subdivide each edge at the interior points ``cuts``: the segments,
    the adjacency and the segments at each node of the model.

    Built once per cut set through the graph's bounded ``memo``: during a
    rank search the same support patterns recur many times.
    """
    offsets: dict[int, list[Fraction]] = {}
    for p in cuts:
        offsets.setdefault(p.edge, []).append(p.offset)
    segments = []
    for ei in range(len(graph.edges)):
        offs = [Fraction(0)] + sorted(offsets.get(ei, ())) + [graph.edge_length(ei)]
        for lo, hi in zip(offs, offs[1:]):
            segments.append((ei, lo, hi, graph.point(ei, lo), graph.point(ei, hi)))
    adj: dict[Point, list[Point]] = {}
    incident: dict[Point, list[int]] = {}
    for si, (_ei, _lo, _hi, a, b) in enumerate(segments):
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
        incident.setdefault(a, []).append(si)
        incident.setdefault(b, []).append(si)
    return segments, adj, incident


def dhar_burn(graph: MetricGraph, D: Divisor, base: Point) -> BurnResult:
    """One pass of the burning algorithm from ``base``.

    Requires D effective away from the base point.  Each germ of the
    unburnt set is continued through burnt valence-two nodes, so a firing
    step can carry a chip across a whole burnt corridor instead of one
    segment at a time.
    """
    cuts = {p for p in D.support() if not p.is_vertex}
    if not base.is_vertex:
        cuts.add(base)
    segments, adj, incident = graph.memo(frozenset(cuts), _model_segments)
    for p, c in D.items():
        if c < 0 and p != base:
            raise PreconditionError(f"divisor has debt {c} at {p} away from the base")

    burnt: set[Point] = {base}
    arrivals: dict[Point, int] = {}
    coeff = D._coeffs.get
    frontier = [base]
    while frontier:
        x = frontier.pop()
        for y in adj[x]:
            if y in burnt:
                continue
            a = arrivals.get(y, 0) + 1
            arrivals[y] = a
            if a > coeff(y, 0):
                burnt.add(y)
                frontier.append(y)

    unburnt = adj.keys() - burnt
    germs: list[tuple[Point, int, Fraction, int, Fraction]] = []
    unb_segs: list[tuple[int, Fraction, Fraction]] = []
    walks: list[list[tuple[int, Fraction, Fraction, int]]] = []
    for si, (ei, lo, hi, a, b) in enumerate(segments):
        a_in, b_in = a in unburnt, b in unburnt
        if a_in and b_in:
            unb_segs.append((ei, lo, hi))
        elif a_in or b_in:
            germ = (a, ei, lo, +1) if a_in else (b, ei, hi, -1)
            walk: list[tuple[int, Fraction, Fraction, int]] = []
            total = Fraction(0)
            s, prev = si, germ[0]
            while True:
                e, o1, o2, u, v = segments[s]
                nxt = v if prev == u else u
                walk.append((e, o1, o2, +1 if prev == u else -1))
                total += o2 - o1
                # fire reaches the inner nodes of a corridor only through its
                # ends, so it ends at the base or a branch node, never at an
                # unburnt one, and the ramps of two germs never meet
                if nxt == base or len(incident[nxt]) != 2:
                    break
                s1, s2 = incident[nxt]
                s, prev = (s2 if s == s1 else s1), nxt
            germs.append(germ + (total,))
            walks.append(walk)
    return BurnResult(not unburnt, unburnt, germs, unb_segs, walks)


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


def _firing_divisor(graph: MetricGraph, burn: BurnResult, eps: Fraction) -> Divisor:
    """div of the firing step min(dist(., unburnt set), eps): a chip leaves
    the unburnt set along each germ and lands eps down its corridor.  Needs
    eps at most every germ's length."""
    terms: list[tuple[Point, int]] = []
    for (x, _ei, _off, _d, _l), walk in zip(burn.germs, burn.walks):
        terms.append((x, -1))
        remaining = eps
        for (ei, lo, hi, d) in walk:
            if remaining <= hi - lo:
                pos = lo + remaining if d > 0 else hi - remaining
                terms.append((graph.point(ei, pos), +1))
                break
            remaining -= hi - lo
    return Divisor(terms)


# ---------------------------------------------------------------------------
# reduction


@dataclass
class ReductionResult:
    reduced: Divisor
    witness: PLFunction | None
    steps: int


def _fire(graph: MetricGraph, D: Divisor, base: Point, budget: list[int]) -> Divisor:
    """Fire D toward ``base`` until it burns completely: the divisor
    equivalent to D that is reduced at the base.  D must be effective away
    from the base; each firing step draws one from ``budget``."""
    while not (burn := dhar_burn(graph, D, base)).all_burnt:
        if budget[0] <= 0:
            raise ReductionCapError("reduction did not finish within its step budget")
        budget[0] -= 1
        eps = min(l for (_x, _ei, _off, _d, l) in burn.germs)
        D = D + _firing_divisor(graph, burn, eps)
    return D


def _clear_debt(graph: MetricGraph, D: Divisor, base: Point,
                budget: list[int]) -> Divisor:
    """An equivalent divisor whose only debt sits at the base q.

    For a debt point p != q, the divisor (g+1)*q - p has degree g, so by
    tropical Riemann-Roch (Gathmann and Kerber, "A Riemann-Roch theorem in
    tropical geometry") it has rank at least 0 and its p-reduced form Z_p
    is effective.  Its only debt sits at its own base p, so ``_fire``
    computes Z_p directly, with no clearing of its own, drawing from
    ``budget``.  As p + Z_p - (g+1)*q is principal, each debt c*p (c < 0)
    is replaced by -c*(Z_p - (g+1)*q), which is effective away from q.
    """
    debts = [(p, c) for p, c in D.items() if c < 0 and p != base]
    top = Divisor({base: graph.betti() + 1})
    for p, c in debts:
        at_p = Divisor({p: 1})
        z = _fire(graph, top - at_p, p, budget)
        if z.coeff(p) < 0:
            raise TheoremViolation(
                f"(g+1)*q - p has no effective representative for p = {p}")
        D = D + (at_p + z - top) * -c
    return D


def _potential(graph: MetricGraph, E: Divisor, base: Point) -> PLFunction:
    """The f with div(f) = E and f(base) = 0, for E principal.

    f is affine between the chips of E on each edge, so its vertex values
    determine it.  They solve the weighted Laplacian (weight 1/L per edge
    of length L) with the first vertex pinned to 0, where a chip c at
    offset x sends c*(L-x)/L to the edge's first end and c*x/L to its
    second.  The reduced Laplacian is positive definite, so exact
    elimination needs no pivoting.
    """
    index = {v: i for i, v in enumerate(graph.vertices)}
    n = len(index)
    # the Laplacian, each row augmented with its vertex's share of E
    rows = [[Fraction(0)] * n + [Fraction(E.coeff(Point.at_vertex(v)))]
            for v in graph.vertices]
    chips: dict[int, list[tuple[Fraction, int]]] = {ei: [] for ei in range(len(graph.edges))}
    for p, c in sorted(E.items(), key=lambda t: t[0].sort_key()):
        if not p.is_vertex:
            chips[p.edge].append((p.offset, c))
    for ei, (u, v, length) in enumerate(graph.edges):
        for i, j in ((index[u], index[v]), (index[v], index[u])):
            rows[i][i] += 1 / length
            rows[i][j] -= 1 / length
        for x, c in chips[ei]:
            rows[index[u]][n] += c * (length - x) / length
            rows[index[v]][n] += c * x / length
    for k in range(1, n):
        for i in range(k + 1, n):
            # the Laplacian is sparse: most rows need no elimination step
            if rows[i][k]:
                m = rows[i][k] / rows[k][k]
                rows[i] = [a - m * b for a, b in zip(rows[i], rows[k])]
    val = [Fraction(0)] * n
    for k in range(n - 1, 0, -1):
        val[k] = (rows[k][n] - sum(rows[k][j] * val[j] for j in range(k + 1, n))) / rows[k][k]
    data: dict[int, list[tuple[Fraction, Fraction]]] = {}
    for ei, (u, v, length) in enumerate(graph.edges):
        # the slope leaving u; each chip c passed lowers it by c
        o, y = Fraction(0), val[index[u]]
        slope = (val[index[v]] - y + sum(c * (length - x) for x, c in chips[ei])) / length
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
    included, and ``max_steps`` bounds them all.
    """
    graph.check_point(base)
    budget = [max_steps]
    red = _fire(graph, _clear_debt(graph, D, base, budget), base, budget)
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
