"""Tropical dependence and independence of piecewise-linear functions.

A family f_1..f_n is tropically dependent if there are constants b_j, some
of them possibly +infinity (the function left out), such that
min_j(f_j + b_j) is attained at least twice at every point of the graph.

- ``verify_dependence`` and ``unique_min_locus`` check given offsets, and
  ``find_dependence`` searches for them, incompletely.
- ``verify_independence`` checks an ``IndependenceCertificate``, and
  ``strict_offsets`` finds its offsets for a given matching.
"""
from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import lcm
from operator import add
from typing import Sequence

from .errors import PreconditionError, SearchCapError
from .graph import Interval, MetricGraph, Point, Region, _rat
from .plfunc import PLFunction, _grid, _same_graph, lower_envelope

MAX_FAMILY = 12


def _common_graph(funcs: Sequence[PLFunction]) -> MetricGraph:
    if len(funcs) < 2:
        raise PreconditionError("need at least two functions")
    return _same_graph(funcs)


def _exact(x):
    """An int as it is, any other exact rational as a ``Fraction``; a
    float raises ``PreconditionError``."""
    return x if type(x) is int else _rat(x, PreconditionError)


def _cells(funcs: Sequence[PLFunction], offsets: Sequence):
    """(edge, S, lo, hi, indices attaining the minimum on the whole cell)
    for every cell of the lower envelope of funcs[j] + offsets[j], with
    lo and hi in units of 1/S."""
    graph = _common_graph(funcs)
    if len(funcs) != len(offsets):
        raise PreconditionError("need one offset per function")
    offsets = [_exact(b) for b in offsets]
    for ei in range(len(graph.edges)):
        S, env = lower_envelope([f.scaled[ei] for f in funcs], offsets)
        for (lo, _v, a), (hi, _w, b) in zip(env, env[1:]):
            yield ei, S, lo, hi, a & b


def verify_dependence(funcs: Sequence[PLFunction],
                      offsets: Sequence) -> tuple[bool, Point | None]:
    """Whether min_j(funcs[j] + offsets[j]) is attained at least twice
    everywhere; on failure, also a point where it is attained only once."""
    for (ei, S, lo, hi, attain) in _cells(funcs, offsets):
        if len(attain) < 2:
            return False, funcs[0].graph.point(ei, Fraction(lo + hi, 2 * S))
    return True, None


def unique_min_locus(funcs: Sequence[PLFunction], offsets: Sequence) -> Region:
    """The open set where the minimum is attained by exactly one function;
    empty exactly when the offsets give a tropical dependence."""
    intervals = [Interval(ei, Fraction(lo, S), Fraction(hi, S), False, False)
                 for (ei, S, lo, hi, attain) in _cells(funcs, offsets)
                 if len(attain) == 1]
    return Region(funcs[0].graph, intervals)


@dataclass(frozen=True)
class DependenceCertificate:
    """Offsets realizing a dependence; None marks a function pushed to
    infinity (never minimal, effectively omitted from the family)."""

    offsets: tuple[Fraction | None, ...]

    @property
    def active(self) -> tuple[int, ...]:
        return tuple(j for j, b in enumerate(self.offsets) if b is not None)


@dataclass
class IndependenceReport:
    """What ``find_dependence`` did: the number of candidate offset vectors
    it tried."""

    candidates_tried: int = 0


def _pair_tables(funcs: Sequence[PLFunction]):
    """``(den, crit, box, probes)``: the tables ``find_dependence`` reads,
    as integers in units of 1/den.  Each edge is walked once, at the lcm S
    of the functions' scales there, giving every function's values at the
    sorted union of their breakpoint offsets; den is the lcm of every
    edge's S.  Between grid points f_j - f_k is affine, so
    ``crit[(j, k)]`` (the values it takes on a positive-length segment)
    are its equal consecutive entries on one edge and ``box[(j, k)]`` runs
    from its least to its greatest entry.  ``probes[j]`` holds f_j at each
    vertex's first edge coordinate, as ``PLFunction.__call__`` reads it.
    No difference of two functions is built as a ``PLFunction``."""
    graph = funcs[0].graph
    grids = []
    for ei in range(len(graph.edges)):
        pieces = [f.scaled[ei] for f in funcs]
        S = lcm(*(p[0] for p in pieces))
        grids.append((S, _grid(pieces, S)[1]))
    den = lcm(*(S for (S, _cols) in grids))
    grids = [[[v * (den // S) for v in col] for col in cols] for (S, cols) in grids]
    crit, box = {}, {}
    for j, k in combinations(range(len(funcs)), 2):
        diffs = [[a - b for a, b in zip(cols[j], cols[k])] for cols in grids]
        values = sorted({d for row in diffs for d, e in zip(row, row[1:]) if d == e})
        lo, hi = min(map(min, diffs)), max(map(max, diffs))
        crit[(j, k)], crit[(k, j)] = values, [-v for v in reversed(values)]
        box[(j, k)], box[(k, j)] = range(lo, hi + 1), range(-hi, 1 - lo)
    probes = [[] for _ in funcs]
    for v in graph.vertices:
        ei, off = graph.edge_coordinates(graph.vertex_point(v))[0]
        for probe, col in zip(probes, grids[ei]):
            probe.append(col[0 if off == 0 else -1])
    return den, crit, box, probes


def _grow(subset: tuple[int, ...], crit, box, max_candidates: int
          ) -> list[tuple[int, ...]]:
    """The sorted offset vectors ``find_dependence`` tries on ``subset``.

    Position 0's offset is 0.  A level attaches one more position kpos to
    an assigned jpos through a critical value v of
    ``crit[(subset[jpos], subset[kpos])]``, b_k = b_j + v, keeping b_k
    only if b_k - b_i lies in ``box[(subset[i], subset[kpos])]`` for
    every assigned i.  Each box is a ``range``, so the admissible b_k form
    one interval [lo, hi), and the critical values that land in it are
    one slice of the sorted list, found by bisection.  Every such value
    passes the per-value box test, so the level sets are those of
    testing each value against each assigned position.  Raises
    ``SearchCapError`` once a level holds more than ``max_candidates``
    distinct partial assignments."""
    size = len(subset)
    # a level's partial assignments, grouped by their assigned positions
    # (ascending, from 0): the offsets at those positions, in that order
    current: dict[tuple[int, ...], set[tuple[int, ...]]] = {(0,): {(0,)}}
    for _level in range(1, size):
        nxt: dict[tuple[int, ...], set[tuple[int, ...]]] = {}
        count = 0
        for assigned, offsets in current.items():
            for kpos in range(1, size):
                if kpos in assigned:
                    continue
                k = subset[kpos]
                r = bisect_left(assigned, kpos)
                pairs = [(subset[i], k) for i in assigned]
                starts = [box[p].start for p in pairs]
                stops = [box[p].stop for p in pairs]
                crits = [crit[p] for p in pairs]
                out = nxt.setdefault(assigned[:r] + (kpos,) + assigned[r:], set())
                before = len(out)
                for a in offsets:
                    lo = max(map(add, a, starts))
                    hi = min(map(add, a, stops))
                    if lo >= hi:
                        continue
                    head, tail = a[:r], a[r:]
                    out.update([head + (bk,) + tail for bk in {
                        b + v for b, values in zip(a, crits)
                        for v in values[bisect_left(values, lo - b):
                                        bisect_left(values, hi - b)]}])
                count += len(out) - before
                if count > max_candidates:
                    raise SearchCapError(max_candidates)
        current = nxt
    return sorted(current.get(tuple(range(size)), ()))


def find_dependence(funcs: Sequence[PLFunction],
                    max_candidates: int = 200_000,
                    report: IndependenceReport | None = None
                    ) -> DependenceCertificate | None:
    """Search for a tropical dependence among the functions.

    Subsets of the family are scanned by size then lexicographic order.
    Within a subset the first function's offset is fixed to 0 and the
    remaining offsets are propagated through the pairwise critical sets:
    every assignment in which each new function is pinned to an already
    assigned one is generated (all spanning-tree-shaped constraint
    systems), deduplicated, and verified in sorted order.

    Why the critical sets.  In a dependence of minimal support (no
    proper subset of the active functions is dependent with the same
    offsets), every active function attains the minimum on a set with
    nonempty interior.  Proof: let m = min_j(f_j + b_j) and suppose the
    contact set C of an active f has empty interior.  Drop f.  Off C the
    minimum and the functions attaining it do not change, so it is still
    attained twice.  A point x of C is a limit of points outside C, at
    each of which two of the other functions attain m; the family is
    finite, so one pair of them does so along a sequence tending to x,
    and attaining m is a closed condition, so that pair attains m(x) at
    x as well.  The remaining functions are dependent with the same
    offsets, against minimality.  So the contact set of each active f
    holds a segment, at every point of which another function attains m;
    finitely many piecewise-linear differences cover it, so f coincides
    with one other active function on a smaller segment, where their
    difference is constant: b_k - b_j is a critical value of f_j - f_k.  The search links these coincidences
    into spanning trees only, so a dependence in which some functions
    meet the others only at isolated points (they hand off from one
    coincidence to another there) can be missed, as the dependence of
    four functions on one edge in the tests is: ``None`` means that no
    candidate passed, not that the family is independent.
    ``verify_independence`` proves independence.

    The box.  In a minimal dependence no function lies strictly above
    another everywhere, so b_k - b_j stays within the range of
    f_j - f_k, the box; assignments outside it reduce to a smaller
    subset.  ``_grow`` applies it as interval arithmetic: for each
    partial assignment and unassigned position the boxes against the
    assigned positions intersect to one interval of admissible offsets,
    and the critical values landing in it are a bisected slice of a
    sorted list, so no value is tested against the assigned positions
    one by one.

    ``max_candidates`` bounds the distinct partial assignments at one
    level of one subset, not the total number of candidates tried: a
    level holding more raises ``SearchCapError``.  A family of more than
    ``MAX_FAMILY`` functions raises it before any candidate is tried.

    The search runs on integers: ``_pair_tables`` reads the family's
    values on a grid of breakpoint offsets, scaled by one ``den > 0``.
    Offsets are sums of critical values, so they scale to integers too,
    and scaling keeps equality and order: the candidates, their order and
    count, and the certificate are those of the search on exact
    rationals.  A candidate that passes the vertex probes is divided by
    ``den`` and checked exactly by ``verify_dependence``.
    """
    graph = _common_graph(funcs)
    n = len(funcs)
    if n > MAX_FAMILY:
        raise SearchCapError(MAX_FAMILY, f"dependence search takes at most "
                             f"{MAX_FAMILY} functions, got a family of {n}")
    # crit[(j, k)]: candidate values of b_k - b_j; box[(j, k)]: the range
    # of f_j - f_k, which holds b_k - b_j in a minimal dependence
    den, crit, box, vals = _pair_tables(funcs)

    # cheap rejection: a dependence needs the pointwise minimum attained
    # twice at every vertex, which candidate vectors rarely manage; rows
    # holds the subset's values at each vertex
    def probe_ok(rows: list[list[int]], b: tuple[int, ...]) -> bool:
        for row in rows:
            at = list(map(add, row, b))
            if at.count(min(at)) < 2:
                return False
        return True

    def full_check(subset, assignment):
        sub_funcs = [funcs[j] for j in subset]
        assignment = [Fraction(b, den) for b in assignment]
        if not verify_dependence(sub_funcs, assignment)[0]:
            return None
        offsets: list[Fraction | None] = [None] * n
        for jpos, j in enumerate(subset):
            offsets[j] = assignment[jpos]
        return DependenceCertificate(tuple(offsets))

    for size in range(2, n + 1):
        for subset in combinations(range(n), size):
            rows = [[vals[j][pi] for j in subset] for pi in range(len(graph.vertices))]
            for assignment in _grow(subset, crit, box, max_candidates):
                if report is not None:
                    report.candidates_tried += 1
                if not probe_ok(rows, assignment):
                    continue
                cert = full_check(subset, assignment)
                if cert is not None:
                    return cert
    return None


# ---------------------------------------------------------------------------
# independence certificates


@dataclass(frozen=True)
class IndependenceCertificate:
    """Points p_i, a permutation sigma (point i is matched to function
    sigma[i]) and offsets b such that sigma[i] is the only c attaining
    min_c(funcs[c](p_i) + b[c]); see ``verify_independence``."""

    points: tuple[Point, ...]
    permutation: tuple[int, ...]
    offsets: tuple[Fraction, ...]


def strict_offsets(matrix: Sequence[Sequence], permutation: Sequence[int]
                   ) -> tuple[tuple[Fraction, ...] | None, tuple[int, ...] | None]:
    """``(offsets, None)`` if ``permutation`` (sigma) is the only
    permutation minimising sum_i M[i][sigma[i]], the min-plus permanent;
    otherwise ``(None, tau)``, tau != sigma of no greater sum.  Offsets b
    are strict: M[i][sigma[i]] + b[sigma[i]] < M[i][c] + b[c], c != sigma[i].

    In the exchange graph of sigma an arc j -> j' weighs
    w = M[i][j'] - M[i][j], i = sigma^-1(j).  Every tau != sigma is sigma
    followed by disjoint simple cycles of this graph and costs their
    weight more, so sigma is the unique minimiser iff every cycle weighs
    more than 0 (Butkovic, "Max-linear Systems: Theory and Algorithms").
    Over one denominator den, arcs weigh n*den*w - 1 here, so a cycle of
    k <= n arcs and weight W weighs n*den*W - k, negative iff W <= 0.
    Bellman-Ford runs in rounds from d = 0, scanning rows last to first
    (on every rho = 0 matrix of ``chainbn`` tried, one round settles and
    a second confirms).  If a round relaxes nothing (by round n, without
    a negative cycle), b = -d / (n*den) has b[j] - b[j'] < w on every arc.
    Otherwise let v be the last column round n relaxes: d[v] is below the
    weight of every path of at most n - 1 arcs to v, but at least that of
    v's chain of predecessors if the chain is a path from an unrelaxed
    column.  So it is not, and n steps back along it land on a cycle of
    predecessors, which weighs less than 0, as every such cycle does.
    That cycle is tau.  Entries are exact rationals and sigma's are ints
    (a float raises ``PreconditionError``).
    """
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise PreconditionError("matrix must be square")
    # 0.0 and False sort equal to 0 but are no int column index
    if any(type(j) is not int for j in permutation) or sorted(permutation) != list(range(n)):
        raise PreconditionError("not a permutation of the matrix's columns")
    M = [[_exact(x) for x in row] for row in matrix]
    scale = n * lcm(*(x.denominator for row in M for x in row))
    arcs = []   # (a, out): out[c] weighs a -> c, 0 (no arc) for c = a
    for row, a in zip(reversed(M), reversed(permutation)):
        row = [x.numerator * (scale // x.denominator) for x in row]
        arcs.append((a, [x - row[a] - (c != a) for c, x in enumerate(row)]))
    d, pred = [0] * n, [None] * n
    for _round in range(max(n, 1)):
        last = None
        for a, out in arcs:
            da = d[a]
            for c, w in enumerate(out):
                if da + w < d[c]:
                    d[c], pred[c], last = da + w, a, c
        if last is None:
            return tuple(Fraction(-x, scale) for x in d), None
    for _step in range(n):
        last = pred[last]
    move, c = list(range(n)), last  # move[j]: where the row matched to j goes
    while move[pred[c]] == pred[c]:
        move[pred[c]], c = c, pred[c]
    return None, tuple(move[j] for j in permutation)


def verify_independence(funcs: Sequence[PLFunction],
                        cert: IndependenceCertificate) -> bool:
    """Whether the certificate proves the family tropically independent,
    that is, M[i][sigma[i]] + b[sigma[i]] < M[i][c] + b[c] for every i and
    c != sigma[i], with M[i][j] = funcs[j](p_i) and the points p_i, sigma
    and b of ``cert``: n^2 comparisons, with no graph algorithm.  A
    certificate of another size, or whose permutation holds anything but
    ints, is rejected.

    Soundness.  For any permutation tau != sigma, summing the inequalities
    with c = tau[i] over the rows where tau[i] != sigma[i] cancels the
    offsets: sigma is the only permutation minimising the min-plus
    permanent of M.  A square matrix is tropically singular (its permanent
    is attained at least twice) iff its rows lie on one tropical
    hyperplane {x : min_j(x_j + b_j) attained at least twice} with finite
    b (Richter-Gebert, Sturmfels and Theobald, "First steps in tropical
    geometry", Lemma 5.1).  A dependence with offsets b attains the
    minimum twice at every point, so in particular at each p_i: the rows
    of M lie on the hyperplane of b.  If the dependence uses only a subset
    S of the family (the other offsets infinite), give the columns outside
    S finite offsets so large that they never attain the minimum at any
    p_i; the minimum of every row is unchanged, so the rows still lie on a
    tropical hyperplane.  Either way M is singular.  A nonsingular M thus
    rules out every dependence, including those on subsets.
    """
    graph = _common_graph(funcs)
    n = len(funcs)
    if (len(cert.points) != n or len(cert.offsets) != n
            or any(type(j) is not int for j in cert.permutation)
            or sorted(cert.permutation) != list(range(n))):
        return False
    for p in cert.points:
        graph.check_point(p)
    offsets = [_exact(b) for b in cert.offsets]
    rows = ([f(p) + b for f, b in zip(funcs, offsets)] for p in cert.points)
    return all(row[s] < x for row, s in zip(rows, cert.permutation)
               for c, x in enumerate(row) if c != s)
