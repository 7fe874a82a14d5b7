"""Tropical dependence and independence of piecewise-linear functions.

A family f_1..f_n is tropically dependent if there are constants b_j, some
of them possibly +infinity (the function left out), such that
min_j(f_j + b_j) is attained at least twice at every point of the graph.

- ``verify_dependence`` checks given offsets cell-by-cell on the exact
  lower envelope.
- ``find_independence_certificate`` proves independence: it looks for
  points p_1..p_n at which the matrix M_ij = f_j(p_i) is tropically
  nonsingular, and ``verify_independence`` re-checks such a certificate.
- ``find_dependence`` searches for offsets through the critical values of
  pairwise differences.  The search is not complete: it misses
  dependences in which coincident pairs of functions meet only at
  isolated points (a four-function example on one edge is in the tests),
  so a search that finds nothing proves nothing.

All of it runs on the integers of ``PLFunction.scaled``.  ``_family_grid``
walks each edge of the family once, at the lcm of the functions' scales
there, and gives every function's values at the union of their
breakpoints as integers over one common denominator.  Scaling keeps
equality and order, so the dependence search tries the candidates of the
search on exact rationals in the same order, and the certificate search
draws the same points and finds the same permutation.  The envelope
checks run on ``plfunc.lower_envelope``, which is integer too.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import lcm
from typing import Sequence

from .errors import PreconditionError, SearchCapError
from .graph import Interval, MetricGraph, Point, Region, _rat
from .plfunc import (PLFunction, _grid, _same_graph, lower_envelope,
                     min_combination)
from .sampling import SplitMix64

MAX_FAMILY = 12
# point sets tried by find_independence_certificate before it gives up;
# the rho = 0 tableaux tried, up to genus 9, needed at most 26
CERTIFICATE_DRAWS = 200
# a fixed seed keeps certificates, and so reports, reproducible
CERTIFICATE_SEED = 0x5EED_CE27


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
    theta: PLFunction

    @property
    def active(self) -> tuple[int, ...]:
        return tuple(j for j, b in enumerate(self.offsets) if b is not None)


@dataclass
class IndependenceReport:
    """What a search did: from ``find_dependence``, the number of
    candidate offset vectors tried; from ``find_independence_certificate``,
    the number of point sets drawn."""

    candidates_tried: int = 0
    draws: int = 0


def _family_grid(funcs: Sequence[PLFunction]):
    """``(den, grids, at_vertex)``.  ``grids[ei]`` is ``(S, offsets,
    values)`` on edge ``ei``: S is the lcm of the functions' scales there,
    ``offsets`` the sorted union of their breakpoint offsets in units of
    1/S, and ``values[j]`` f_j at those offsets in units of 1/den, den the
    lcm of every edge's S.  ``at_vertex[v]`` holds every function's value
    at vertex v's first edge coordinate, as ``PLFunction.__call__`` reads
    it."""
    graph = funcs[0].graph
    grids = []
    for ei in range(len(graph.edges)):
        pieces = [f.scaled[ei] for f in funcs]
        S = lcm(*(p[0] for p in pieces))
        grids.append((S, *_grid(pieces, S)))
    den = lcm(*(S for (S, _x, _v) in grids))
    grids = [(S, offs, [[v * (den // S) for v in col] for col in cols])
             for (S, offs, cols) in grids]
    at_vertex = []
    for v in graph.vertices:
        ei, off = graph.edge_coordinates(graph.vertex_point(v))[0]
        at_vertex.append([col[0 if off == 0 else -1] for col in grids[ei][2]])
    return den, grids, at_vertex


def _pair_tables(funcs: Sequence[PLFunction]):
    """``(den, crit, box, probes)``: the tables ``find_dependence`` reads,
    in units of 1/den, from ``_family_grid``.  Between grid points
    f_j - f_k is affine, so ``crit[(j, k)]`` (the values it takes on a
    positive-length segment) are its equal consecutive entries on one
    edge and ``box[(j, k)]`` runs from its least to its greatest entry;
    ``probes[j]`` holds f_j at each vertex."""
    den, grids, at_vertex = _family_grid(funcs)
    crit, box = {}, {}
    for j, k in combinations(range(len(funcs)), 2):
        diffs = [[a - b for a, b in zip(cols[j], cols[k])] for (_S, _x, cols) in grids]
        values = sorted({d for row in diffs for d, e in zip(row, row[1:]) if d == e})
        lo, hi = min(map(min, diffs)), max(map(max, diffs))
        crit[(j, k)], crit[(k, j)] = values, [-v for v in reversed(values)]
        box[(j, k)], box[(k, j)] = range(lo, hi + 1), range(-hi, 1 - lo)
    probes = [list(col) for col in zip(*at_vertex)]
    return den, crit, box, probes


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
    systems), deduplicated, and verified.  Only offsets tied together by
    a spanning tree of pairs that coincide on a segment are generated, so
    a dependence in which some functions meet the others only at isolated
    points can be missed: ``None`` means that no candidate passed, not
    that the family is independent.  ``find_independence_certificate``
    proves independence.

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
        raise SearchCapError(MAX_FAMILY)
    # crit[(j, k)]: candidate values of b_k - b_j.  box[(j, k)]: in a
    # minimal dependence no function lies strictly above another
    # everywhere, so b_k - b_j stays within the range of f_j - f_k;
    # assignments outside the box reduce to a smaller subset
    den, crit, box, vals = _pair_tables(funcs)

    # cheap rejection: a dependence needs the pointwise minimum attained
    # twice at every vertex, which candidate vectors rarely manage
    def probe_ok(subset: tuple[int, ...], b: tuple[int, ...]) -> bool:
        for pi in range(len(graph.vertices)):
            lo = None
            count = 0
            for jpos, j in enumerate(subset):
                v = vals[j][pi] + b[jpos]
                if lo is None or v < lo:
                    lo, count = v, 1
                elif v == lo:
                    count += 1
            if count < 2:
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
        theta = min_combination(sub_funcs, assignment)
        return DependenceCertificate(tuple(offsets), theta)

    for size in range(2, n + 1):
        for subset in combinations(range(n), size):
            # grow partial assignments by attaching any unassigned member to
            # any assigned one through a critical value, in every order, so
            # all spanning-tree-shaped constraint systems are produced;
            # None marks a still-unassigned position
            start = tuple(0 if i == 0 else None for i in range(size))
            current: set[tuple[int | None, ...]] = {start}
            for _level in range(1, size):
                nxt: set[tuple[int | None, ...]] = set()
                for a in current:
                    for kpos in range(1, size):
                        if a[kpos] is not None:
                            continue
                        for jpos in range(size):
                            if a[jpos] is None:
                                continue
                            for v in crit[(subset[jpos], subset[kpos])]:
                                bk = a[jpos] + v
                                if not all(bk - a[i] in box[(subset[i], subset[kpos])]
                                           for i in range(size)
                                           if a[i] is not None):
                                    continue
                                b = list(a)
                                b[kpos] = bk
                                nxt.add(tuple(b))
                                if len(nxt) > max_candidates:
                                    raise SearchCapError(max_candidates)
                current = nxt
            for assignment in sorted(current):
                if report is not None:
                    report.candidates_tried += 1
                if not probe_ok(subset, assignment):
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


def unique_min_permutation(matrix: Sequence[Sequence]) -> tuple[int, ...] | None:
    """The permutation sigma minimising sum_i matrix[i][sigma[i]] (the
    min-plus permanent) if it is the only minimiser, that is if the square
    matrix is tropically nonsingular; otherwise None.

    A subset DP over columns: for every column set S, the least cost of
    matching rows 0..|S|-1 onto S and the number of matchings attaining
    it, capped at 2, in O(2^n * n) exact steps.  The searches pass
    integer matrices; entries that are not ints are read as exact
    rationals, and a float raises ``PreconditionError``.
    """
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise PreconditionError("matrix must be square")
    if n > MAX_FAMILY:
        raise PreconditionError(f"matrix size {n} exceeds {MAX_FAMILY}")
    M = [[_exact(x) for x in row] for row in matrix]
    full = (1 << n) - 1
    best = [0] * (full + 1)
    count = [1] + [0] * full
    last = [0] * (full + 1)     # column matched to the last row of an optimum
    for mask in range(1, full + 1):
        row = M[mask.bit_count() - 1]
        lo = c = arg = None
        for j in range(n):
            if not mask >> j & 1:
                continue
            prev = mask ^ (1 << j)
            v = best[prev] + row[j]
            if lo is None or v < lo:
                lo, c, arg = v, count[prev], j
            elif v == lo:
                c = min(2, c + count[prev])
        best[mask], count[mask], last[mask] = lo, c, arg
    if count[full] != 1:
        return None
    perm = [0] * n
    mask = full
    for i in range(n - 1, -1, -1):
        perm[i] = last[mask]
        mask ^= 1 << perm[i]
    return tuple(perm)


def find_independence_certificate(funcs: Sequence[PLFunction],
                                  report: IndependenceReport | None = None
                                  ) -> IndependenceCertificate | None:
    """Search for points that prove the family tropically independent.

    The candidate points are the vertices and every interior breakpoint of
    any function, in a fixed order; the family's values there are read
    off ``_family_grid``.  Each draw takes n distinct candidates, from a
    SplitMix64 with a fixed seed, and tests the matrix of values with
    ``unique_min_permutation``.  Returns the first certificate found, or
    None after ``CERTIFICATE_DRAWS`` draws (or at once when there are
    fewer than n candidates).  None proves nothing: on a dependent family
    every draw fails.
    """
    graph = _common_graph(funcs)
    n = len(funcs)
    _den, grids, at_vertex = _family_grid(funcs)
    cands = [(graph.vertex_point(v), row) for v, row in zip(graph.vertices, at_vertex)]
    for ei, (S, offs, cols) in enumerate(grids):
        cands += [(graph.point(ei, Fraction(x, S)), row)
                  for x, row in zip(offs[1:-1], list(zip(*cols))[1:-1])]
    if len(cands) < n:
        return None
    cands.sort(key=lambda c: c[0].sort_key())
    rng = SplitMix64(CERTIFICATE_SEED)
    order = list(range(len(cands)))
    for _draw in range(CERTIFICATE_DRAWS):
        if report is not None:
            report.draws += 1
        # partial Fisher-Yates: order[:n] becomes a uniform n-subset
        for i in range(n):
            k = i + rng.below(len(order) - i)
            order[i], order[k] = order[k], order[i]
        picked = order[:n]
        perm = unique_min_permutation([cands[i][1] for i in picked])
        if perm is not None:
            return IndependenceCertificate(tuple(cands[i][0] for i in picked), perm)
    return None


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
    # values as (numerator, denominator), then over one denominator
    vals = [[f._value(*graph.edge_coordinates(p)[0]) for f in funcs] for p in cert.points]
    den = lcm(*(d for row in vals for (_v, d) in row))
    M = [[v * (den // d) for (v, d) in row] for row in vals]
    return unique_min_permutation(M) == tuple(cert.permutation)
