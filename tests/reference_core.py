"""Test-only references for the reduction core.

The burn and firing loop as they were before burning per edge: every
firing step rebuilds the model subdividing each edge at the chips'
interior points and at the base, and burns it node by node, kept
unchanged as the reference for ``tropdiv.reduce``'s.  And ``twist``,
``chainbn.build_Dj``'s D_j by that reference loop rather than by
``v_reduce``; and ``tableau_divisor``,
``chainbn.tableau_to_divisor`` as it was before the integer chips: each
chip placed by ``ChainOfLoops.ccw_point`` at a ``Fraction`` distance.
And ``rank_dfs``, ``reduce.rank``'s search as it was before it stopped
repeating reductions: every point's reduction fired from the reduction
at the base, every child without a chip fired, and every node searched
as often as the walk reaches it, over every point it is given; it
reduces on the reference loop alone, its debt paid by a loan of its own
(``_reduce``).  And ``sorted_tableaux``,
``chainbn.enumerate_tableaux`` as it was before it streamed: the whole
list, sorted by the row-concatenated entries.  And ``vertex_distances``,
``distance`` and ``distance_function``, the graph's distances as they
were before its integer form: Dijkstra on ``Fraction``s by vertex name,
and each edge of a distance function at the lcm of its own values'
denominators.  And ``potential``, ``reduce._potential`` as it was
before the graph kept its Laplacian eliminated: every call builds the
weighted Laplacian at the lattice's scale and eliminates it with the
right-hand side, each row divided by the gcd of its entries and its
right-hand side.  And ``rank_points``, a rank-determining set of its
own, so that a fault in ``reduce.default_rank_points`` does not hide
in ``rank_dfs`` as well."""
from __future__ import annotations

import heapq
from fractions import Fraction
from math import gcd, lcm

from tropdiv.chainbn import Tableau, tableau_to_dyck
from tropdiv.errors import GraphError, PreconditionError, ReductionCapError, TheoremViolation
from tropdiv.graph import Divisor, Interval, Region
from tropdiv.plfunc import PLFunction, _envelope_edge, lower_envelope
from tropdiv.reduce import DEFAULT_MAX_STEPS, _Chips, _Lattice, default_base


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
    for e, pairs in enumerate(chips.on_edge):
        for k, _c in pairs:
            cuts.setdefault(e, []).append(k)
    if type(base) is tuple and not chips.get(base):
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
            count.append(chips.get(key))
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


def _fire(lat: _Lattice, chips: _Chips, base, budget: list[int],
          until: int | None = None) -> None:
    """Fire ``chips`` toward ``base``, in place, until they burn
    completely: the result is the divisor reduced at the base.  The chips
    must be effective away from the base; each firing step draws one from
    ``budget``.  With ``until`` an int, firing ends as soon as the base
    holds at least ``until`` chips.

    A step fires the unburnt set by eps.  Each germ leaving it is followed
    through burnt valence-two nodes to the base or a branch node, and eps
    is the shortest such corridor, so a chip crosses a whole corridor in
    one step.  Fire reaches the inner nodes of a corridor only through its
    ends, so no corridor ends at an unburnt node, and two never meet.
    """
    while True:
        if until is not None and chips.get(base) >= until:
            return
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


def dhar_unburnt(graph, D, base) -> Region:
    """``reduce.dhar_unburnt`` on the reference burn: the segments with
    both ends unburnt, and the unburnt nodes that end none of them."""
    lat = _Lattice(graph, [base, *D.support()])
    for p, c in D.items():
        if c < 0 and p != base:
            raise PreconditionError(f"divisor has debt {c} at {p} away from the base")
    segs, _inc, keys, burnt, _bid = _burn(lat, lat.chips(D), lat.key(base))
    L = lat.scale
    unb_segs = [(e, lo, hi, a, b) for (e, lo, hi, a, b) in segs if not (burnt[a] or burnt[b])]
    ends = {x for (_e, _lo, _hi, a, b) in unb_segs for x in (a, b)}
    return Region(graph, [Interval(e, Fraction(lo, L), Fraction(hi, L))
                          for (e, lo, hi, _a, _b) in unb_segs],
                  [lat.point(k) for x, k in enumerate(keys) if not burnt[x] and x not in ends])


def twist(D, chain, j: int, r: int) -> Divisor:
    """D_j, the divisor equivalent to D with D_j - j*v_1 - (r-j)*w_g
    effective: D - j*v_1 - (r-j)*w_g, effective away from w_g, fired
    toward w_g by the reference loop above until it burns completely,
    plus j*v_1 + (r-j)*w_g."""
    wg = chain.w(chain.g)
    shift = Divisor({chain.v(1): j, wg: r - j})
    lat = _Lattice(chain.graph, [wg, *D.support(), *shift.support()])
    chips = lat.chips(D - shift)
    _fire(lat, chips, lat.key(wg), [DEFAULT_MAX_STEPS])
    reduced = lat.divisor(chips)
    if not reduced.is_effective:
        raise TheoremViolation("twisted representative failed to be effective")
    return reduced + shift


def tableau_divisor(T, chain):
    """r chips at v_1, and one on loop i at ``chain.ccw_point(i,
    p_{i-1}(j) * m_i)`` whenever entry i sits in column j < r."""
    r = T.cols - 1
    path = tableau_to_dyck(T)
    coeffs = [(chain.v(1), r)] if r else []
    for i in range(1, T.size + 1):
        _row, col = T.position(i)
        if col < r:
            dist = Fraction(path[i - 1][col]) * chain.m[i - 1]
            coeffs.append((chain.ccw_point(i, dist), 1))
    return Divisor(coeffs)


def rank_points(graph) -> list:
    """Every vertex point, and the point a third of the way along each
    self-loop: the vertices of a loopless model, built from the public
    API alone."""
    pts = list(graph.vertex_points)
    for ei, (u, v, length) in enumerate(graph.edges):
        if u == v:
            pts.append(graph.point(ei, length / 3))
    return pts


def _reduce(lat: _Lattice, chips: _Chips, q) -> None:
    """``chips`` reduced at ``q``, in place, on the reference loop.  The
    debts are set aside and q is lent g chips more than the debts away
    from it, so that by tropical Riemann-Roch firing toward each such debt
    c*p until p holds c chips succeeds; the loan and q's own debt are then
    taken back and the chips fired toward q."""
    owed = max(0, -chips.get(q))
    debts = [(p, -c) for p, c in chips.items() if c < 0 and p != q]
    loan = lat.graph.betti() + sum(c for _p, c in debts)
    for p, c in debts:
        chips.add(p, c)
    chips.add(q, loan + owed)
    for p, c in debts:
        _fire(lat, chips, p, [DEFAULT_MAX_STEPS], until=c)
        if chips.get(p) < c:
            raise TheoremViolation(f"{c} chips of debt at {p} not paid")
        chips.add(p, -c)
    chips.add(q, -loan - owed)
    _fire(lat, chips, q, [DEFAULT_MAX_STEPS])


def rank_dfs(graph, D, points=None, base=None) -> int:
    """``reduce.rank`` by the depth-first search over nondecreasing index
    multisets, pruned once D - E fails, with no reduction reused.  Every
    reduction, the one at the base too, runs on the reference loop, so
    no rank comparison shares a firing loop with ``rank``."""
    if points is None:
        points = rank_points(graph)
    if not points:
        raise PreconditionError("rank needs a nonempty point set")
    if base is None:
        base = default_base(graph)
    lat = _Lattice(graph, [base, *D.support(), *points])
    keys = [lat.key(p) for p in points]
    red0 = lat.chips(D)
    _reduce(lat, red0, lat.key(base))
    if red0.get(lat.key(base)) < 0:
        return -1
    best_fail = D.degree + 1
    for k in keys:
        red_p = red0.copy()
        _fire(lat, red_p, k, [DEFAULT_MAX_STEPS])
        best_fail = min(best_fail, red_p.get(k) + 1)

    def dfs(cur: _Chips, start: int, depth: int):
        nonlocal best_fail
        if depth + 1 >= best_fail:
            return
        for i in range(start, len(keys)):
            k = keys[i]
            nxt = cur.copy()
            nxt.add(k, -1)
            if cur.get(k) < 1:
                _fire(lat, nxt, k, [DEFAULT_MAX_STEPS])
                if nxt.get(k) < 0:
                    best_fail = depth + 1
                    return
            dfs(nxt, i, depth + 1)
            if depth + 1 >= best_fail:
                return

    dfs(red0, 0, 0)
    return best_fail - 1


def sorted_tableaux(rows: int, cols: int) -> list[Tableau]:
    """All rectangular standard tableaux, in lexicographic order of the
    row-concatenated entry sequence."""
    n = rows * cols
    out: list[Tableau] = []
    grid = [[0] * cols for _ in range(rows)]

    def place(i: int):
        if i > n:
            out.append(Tableau(tuple(tuple(row) for row in grid)))
            return
        for r in range(rows):
            for c in range(cols):
                if grid[r][c]:
                    continue
                if c > 0 and not grid[r][c - 1]:
                    continue
                if r > 0 and not grid[r - 1][c]:
                    continue
                grid[r][c] = i
                place(i + 1)
                grid[r][c] = 0

    place(1)
    out.sort(key=lambda t: t.entries)
    return out


def vertex_distances(graph, src) -> dict[str, Fraction]:
    """Exact shortest-path distance from ``src`` to every vertex."""
    incidence: dict[str, list[tuple[int, int]]] = {v: [] for v in graph.vertices}
    for ei, (u, v, _l) in enumerate(graph.edges):
        incidence[u].append((ei, 0))
        incidence[v].append((ei, 1))
    dist: dict[str, Fraction] = {}
    heap: list[tuple[Fraction, str]] = []
    if src.is_vertex:
        heapq.heappush(heap, (Fraction(0), src.vertex))
    else:
        u, v, length = graph.edges[src.edge]
        heapq.heappush(heap, (src.offset, u))
        heapq.heappush(heap, (length - src.offset, v))
    while heap:
        d, x = heapq.heappop(heap)
        if x in dist:
            continue
        dist[x] = d
        for (ei, side) in incidence[x]:
            u, v, length = graph.edges[ei]
            y = v if side == 0 else u
            if y not in dist:
                heapq.heappush(heap, (d + length, y))
    return dist


def distance(graph, p, q) -> Fraction:
    """Exact shortest-path distance between ``p`` and ``q``."""
    dv = vertex_distances(graph, p)
    if q.is_vertex:
        return dv[q.vertex]
    u, v, length = graph.edges[q.edge]
    best = min(dv[u] + q.offset, dv[v] + (length - q.offset))
    if not p.is_vertex and p.edge == q.edge:
        best = min(best, abs(p.offset - q.offset))
    return best


def distance_function(graph, p, cap=None) -> PLFunction:
    """x -> dist(x, p), optionally capped at ``cap``."""
    dv = vertex_distances(graph, p)
    edges = []
    for ei, (u, v, length) in enumerate(graph.edges):
        off = p.offset if not p.is_vertex and p.edge == ei else None
        xs = [x for x in (length, dv[u], dv[v], off, cap) if x is not None]
        S = lcm(*(x.denominator for x in xs))
        L, du, dw = (x.numerator * (S // x.denominator) for x in (length, dv[u], dv[v]))
        # around-the-graph candidates through either endpoint
        pieces = [(S, (0, L), (du, du + L)), (S, (0, L), (dw + L, dw))]
        if off is not None:
            # straight to p along the edge
            x = off.numerator * (S // off.denominator)
            pieces.append((S, (0, x, L), (x, 0, L - x)))
        if cap is not None:
            c = cap.numerator * (S // cap.denominator)
            pieces.append((S, (0, L), (c, c)))
        edges.append(_envelope_edge(*lower_envelope(pieces, [0] * len(pieces))))
    return PLFunction._from_ints(graph, edges)


def _exact(num: int, den: int) -> int:
    """num / den, an integer whenever the divisor being solved for is
    principal."""
    q, r = divmod(num, den)
    if r:
        raise GraphError("the divisor is not principal")
    return q


def potential(lat: _Lattice, chips: _Chips, q) -> PLFunction:
    """The f with div(f) = E and f(q) = 0, for E the divisor ``chips`` on
    the lattice ``lat``, which it consumes, and q a key of that lattice;
    ``GraphError`` if E is not principal.  The Laplacian, its weights
    P/l with P the lcm of the lattice's lengths, is built and eliminated
    fraction-free on every call, right-hand side included."""
    degree = chips.degree()
    if degree != 0:
        raise GraphError(f"a divisor of degree {degree} is not principal")
    graph = lat.graph
    n = len(graph.vertices)
    P = lcm(*(length for (_u, _v, length) in lat.edges))
    rows: list[dict[int, int]] = [{} for _ in range(n)]
    rhs = [c * P for c in chips.at_vertex]
    # an interior base is a chipless breakpoint, its value read off the walk
    if type(q) is tuple:
        chips.on_edge[q[0]] = tuple(sorted(chips.on_edge[q[0]] + ((q[1], 0),)))
    for (i, j, length), on_edge in zip(lat.edges, chips.on_edge):
        w = P // length
        for a, b in ((i, j), (j, i)):
            if a and a != b:
                rows[a][a] = rows[a].get(a, 0) + w
                if b:
                    rows[a][b] = rows[a].get(b, 0) - w
        for x, c in on_edge:
            rhs[i] += c * (length - x) * w
            rhs[j] += c * x * w
    for k in range(1, n):
        pivot = rows[k]
        for i in [i for i in pivot if i > k]:
            row = rows[i]
            m = row.pop(k)
            if m:
                a = pivot[k]
                for j in row:
                    row[j] *= a
                for j, b in pivot.items():
                    if j > k:
                        row[j] = row.get(j, 0) - m * b
                rhs[i] = a * rhs[i] - m * rhs[k]
                d = gcd(rhs[i], *row.values())
                if d > 1:
                    for j in row:
                        row[j] //= d
                    rhs[i] //= d
    val = [0] * n
    for k in range(n - 1, 0, -1):
        row = rows[k]
        val[k] = _exact(rhs[k] - sum(a * val[j] for j, a in row.items() if j > k), row[k])
    # each edge's breakpoints, offsets and values in units of 1/L
    data: list[list[tuple[int, int]]] = []
    for (i, j, length), on_edge in zip(lat.edges, chips.on_edge):
        # the slope leaving the first end; each chip c passed lowers it by c
        slope = _exact(val[j] - val[i] + sum(c * (length - x) for x, c in on_edge), length)
        o, y = 0, val[i]
        pts = [(0, y)]
        for x, c in on_edge:
            y += slope * (x - o)
            pts.append((x, y))
            o, slope = x, slope - c
        pts.append((length, y + slope * (length - o)))
        data.append(pts)
    shift = val[q] if type(q) is int else next(y for (x, y) in data[q[0]] if x == q[1])
    return PLFunction._from_ints(graph, [(lat.scale, [(x, y - shift) for (x, y) in pts])
                                         for pts in data])
