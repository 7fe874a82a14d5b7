"""Tropical dependence and independence of piecewise-linear functions.

A family f_1..f_n is tropically dependent if there are constants b_j, some
of them possibly +infinity (the function left out), such that
min_j(f_j + b_j) is attained at least twice at every point of the graph.

- ``verify_dependence`` checks given offsets cell-by-cell on the exact
  lower envelope.
- ``verify_independence`` proves independence from a certificate: points
  p_1..p_n and a permutation that is the unique minimiser of the min-plus
  permanent of M_ij = f_j(p_i), as ``competing_permutation`` checks in
  O(n^3).  ``chainbn`` reads one off the empty-cell table of a tableau.
- ``find_dependence`` searches for offsets through the critical values of
  pairwise differences.  The search is not complete: it misses
  dependences in which coincident pairs of functions meet only at
  isolated points (a four-function example on one edge is in the tests),
  so a search that finds nothing proves nothing.

All of it runs on the integers of ``PLFunction.scaled``.  ``_pair_tables``
walks each edge of the family once, at the lcm of the functions' scales
there, and gives every function's values at the union of their
breakpoints as integers over one common denominator.  Scaling keeps
equality and order, so the dependence search tries the candidates of the
search on exact rationals in the same order.  ``competing_permutation``
puts its matrix over one common denominator, and the envelope checks run
on ``plfunc.lower_envelope``, which is integer as well.
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
    vertex's first edge coordinate, as ``PLFunction.__call__`` reads it."""
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
    coincidence to another there) can be missed: ``None`` means that no
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
    """Points p_0..p_{n-1} and a permutation sigma such that sigma is the
    only permutation minimising sum_i M[i][sigma[i]], where
    M[i][j] = funcs[j](points[i]): point i is matched to function
    sigma[i].  ``verify_independence`` explains why this proves the
    family independent."""

    points: tuple[Point, ...]
    permutation: tuple[int, ...]


def competing_permutation(matrix: Sequence[Sequence],
                          permutation: Sequence[int]) -> tuple[int, ...] | None:
    """None if ``permutation`` (sigma) is the only permutation minimising
    sum_i matrix[i][sigma[i]], the min-plus permanent (then the square
    matrix is tropically nonsingular); otherwise a permutation
    tau != sigma whose sum is no greater.

    The exchange graph of sigma has the columns as nodes and, for j != j',
    an arc j -> j' of weight M[sigma^-1(j)][j'] - M[sigma^-1(j)][j]: the
    change in cost when the row matched to j moves to j'.  Any tau != sigma
    is sigma followed by the disjoint cycles of tau o sigma^-1 that are
    not fixed points, each a simple cycle of the exchange graph, and
    cost(tau) - cost(sigma) is the sum of their weights; conversely every
    simple cycle is such a tau.  So sigma is the unique minimiser iff
    every simple cycle weighs more than 0 (strong regularity in max-plus
    algebra; Butkovic, "Max-linear Systems: Theory and Algorithms").

    Floyd-Warshall finds such a cycle in O(n^3) exact steps, for any n.
    Phase m relaxes the paths through node m; ``nxt[a][b]`` is the node
    after a on the path that ``dist[a][b]`` weighs.  Call a cycle m-low if
    at most one of its nodes is >= m, and suppose that every m-low cycle
    weighs more than 0 when phase m starts (for m = 0, as a cycle has two
    nodes).  Then ``dist[a][b]`` is the least weight of a path a -> b with
    inner nodes < m and ``nxt`` traces one, by the usual invariant of
    Floyd-Warshall with path reconstruction.  Before relaxing, phase m
    joins the traced paths P: a -> m and Q: m -> a for each a != m.  A
    join of weight <= 0 is a simple cycle, which gives tau: if P and Q
    shared a node x, P + Q would split at x into closed walks through a
    and through m, all other nodes < m, so into m-low cycles of positive
    weight.  If no join weighs <= 0, every (m+1)-low cycle weighs more
    than 0: one through m and some a > m weighs dist[a][m] + dist[m][a]
    or more.  With 0 on the diagonal, relaxing through m then changes
    neither row m, column m nor the diagonal.

    Entries are exact rationals (a float raises ``PreconditionError``),
    put over one denominator so that the relaxation runs on ints.
    """
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise PreconditionError("matrix must be square")
    if sorted(permutation) != list(range(n)):
        raise PreconditionError("not a permutation of the matrix's columns")
    M = [[_exact(x) for x in row] for row in matrix]
    den = lcm(*(x.denominator for row in M for x in row))
    dist = [None] * n       # dist[a]: the arcs out of column a
    for row, a in zip(M, permutation):
        row = [x.numerator * (den // x.denominator) for x in row]
        dist[a] = [x - row[a] for x in row]
    nxt = [list(range(n)) for _ in range(n)]
    for m in range(n):
        dm = dist[m]
        for a in range(n):
            if a != m and dist[a][m] + dm[a] <= 0:
                move = list(range(n))   # the column each column's row moves to
                for x, end in ((a, m), (m, a)):     # along P, then along Q
                    while x != end:
                        move[x] = nxt[x][end]
                        x = move[x]
                return tuple(move[j] for j in permutation)
        for a in range(n):
            da, na = dist[a], nxt[a]
            am, via = da[m], na[m]
            for b, mb in enumerate(dm):
                if am + mb < da[b]:
                    da[b] = am + mb
                    na[b] = via
    return None


def is_unique_minimiser(matrix: Sequence[Sequence],
                        permutation: Sequence[int]) -> bool:
    """Whether ``competing_permutation`` finds no rival to ``permutation``."""
    return competing_permutation(matrix, permutation) is None


def verify_independence(funcs: Sequence[PLFunction],
                        cert: IndependenceCertificate) -> bool:
    """Whether the certificate proves the family tropically independent:
    the matrix M[i][j] = funcs[j](cert.points[i]) must have
    ``cert.permutation`` as its unique min-plus permanent minimiser.

    Soundness.  A square matrix is tropically singular (its permanent is
    attained at least twice) iff its rows lie on one tropical hyperplane
    {x : min_j(x_j + b_j) attained at least twice} with finite b
    (Richter-Gebert, Sturmfels and Theobald, "First steps in tropical
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
    if len(cert.points) != n or sorted(cert.permutation) != list(range(n)):
        return False
    for p in cert.points:
        graph.check_point(p)
    return is_unique_minimiser([[f(p) for f in funcs] for p in cert.points],
                               cert.permutation)
