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
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import lcm
from typing import Sequence

from .errors import PreconditionError, SearchCapError
from .graph import Interval, MetricGraph, Point, Region
from .plfunc import PLFunction, _same_graph, lower_envelope, min_combination
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


def _cells(funcs: Sequence[PLFunction], offsets: Sequence):
    """(edge, lo, hi, indices attaining the minimum on the whole cell) for
    every cell of the lower envelope of funcs[j] + offsets[j]."""
    graph = _common_graph(funcs)
    if len(funcs) != len(offsets):
        raise PreconditionError("need one offset per function")
    offsets = [Fraction(b) for b in offsets]
    for ei in range(len(graph.edges)):
        env = lower_envelope([f.data[ei] for f in funcs], offsets)
        for (lo, _v, a), (hi, _w, b) in zip(env, env[1:]):
            yield ei, lo, hi, a & b


def verify_dependence(funcs: Sequence[PLFunction],
                      offsets: Sequence) -> tuple[bool, Point | None]:
    """Whether min_j(funcs[j] + offsets[j]) is attained at least twice
    everywhere; on failure, also a point where it is attained only once."""
    for (ei, lo, hi, attain) in _cells(funcs, offsets):
        if len(attain) < 2:
            return False, funcs[0].graph.point(ei, (lo + hi) / 2)
    return True, None


def unique_min_locus(funcs: Sequence[PLFunction], offsets: Sequence) -> Region:
    """The open set where the minimum is attained by exactly one function;
    empty exactly when the offsets give a tropical dependence."""
    intervals = [Interval(ei, lo, hi, False, False)
                 for (ei, lo, hi, attain) in _cells(funcs, offsets)
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


def _critical_values(diff: PLFunction) -> list[Fraction]:
    """Values v such that diff = fj - fk == v on a positive-length
    segment; only offsets with b_k - b_j equal to such a v let the pair
    coincide on a piece of the envelope."""
    out: set[Fraction] = set()
    for pts in diff.data.values():
        for (o1, v1), (o2, v2) in zip(pts, pts[1:]):
            if v1 == v2 and o1 < o2:
                out.add(v1)
    return sorted(out)


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
    """
    n = len(funcs)
    if n < 2:
        raise PreconditionError("need at least two functions")
    if n > MAX_FAMILY:
        raise SearchCapError(MAX_FAMILY)

    crit: dict[tuple[int, int], list[Fraction]] = {}
    # essentiality boxes: in a minimal dependence no function lies strictly
    # above another everywhere, so b_k - b_j stays within the range of
    # f_j - f_k; assignments outside the box reduce to a smaller subset
    lo_box: dict[tuple[int, int], Fraction] = {}
    hi_box: dict[tuple[int, int], Fraction] = {}
    for j in range(n):
        for k in range(j + 1, n):
            diff = funcs[j] - funcs[k]
            crit[(j, k)] = _critical_values(diff)
            vals_jk = [v for pts in diff.data.values() for (_o, v) in pts]
            lo_box[(j, k)] = min(vals_jk)
            hi_box[(j, k)] = max(vals_jk)

    def in_box(j: int, k: int, delta: Fraction) -> bool:
        # is b_k - b_j = delta compatible with both j and k being essential
        if j < k:
            return lo_box[(j, k)] <= delta <= hi_box[(j, k)]
        return lo_box[(k, j)] <= -delta <= hi_box[(k, j)]

    def pair_values(j: int, k: int) -> list[Fraction]:
        # candidate values of b_k - b_j
        if j < k:
            return crit[(j, k)]
        return [-v for v in crit[(k, j)]]

    # cheap rejection: a dependence needs the pointwise minimum attained
    # twice at every vertex, which candidate vectors rarely manage
    graph = funcs[0].graph
    probes = [graph.vertex_point(v) for v in graph.vertices]
    vals = [[f(p) for p in probes] for f in funcs]

    def probe_ok(subset: tuple[int, ...], b: tuple[Fraction, ...]) -> bool:
        for pi in range(len(probes)):
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
            start = tuple(Fraction(0) if i == 0 else None
                          for i in range(size))
            current: set[tuple[Fraction | None, ...]] = {start}
            for _level in range(1, size):
                nxt: set[tuple[Fraction | None, ...]] = set()
                for a in current:
                    for kpos in range(1, size):
                        if a[kpos] is not None:
                            continue
                        for jpos in range(size):
                            if a[jpos] is None:
                                continue
                            for v in pair_values(subset[jpos], subset[kpos]):
                                bk = a[jpos] + v
                                if not all(in_box(subset[i], subset[kpos],
                                                  bk - a[i])
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
    it, capped at 2.  Entries are scaled to integers first, so the DP
    does exact integer arithmetic in O(2^n * n) steps.
    """
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise PreconditionError("matrix must be square")
    if n > MAX_FAMILY:
        raise PreconditionError(f"matrix size {n} exceeds {MAX_FAMILY}")
    rats = [[Fraction(x) for x in row] for row in matrix]
    den = lcm(*(x.denominator for row in rats for x in row))
    M = [[x.numerator * (den // x.denominator) for x in row] for row in rats]
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


def _candidate_points(funcs: Sequence[PLFunction]) -> list[Point]:
    """The vertices and every interior breakpoint of any function, in a
    fixed order."""
    graph = funcs[0].graph
    pts = {graph.vertex_point(v) for v in graph.vertices}
    for f in funcs:
        for ei, data in f.data.items():
            pts.update(graph.point(ei, o) for (o, _v) in data[1:-1])
    return sorted(pts, key=Point.sort_key)


def find_independence_certificate(funcs: Sequence[PLFunction],
                                  report: IndependenceReport | None = None
                                  ) -> IndependenceCertificate | None:
    """Search for points that prove the family tropically independent.

    Each draw takes n distinct points from the vertices and the interior
    breakpoints of the family, from a SplitMix64 with a fixed seed, and
    tests the matrix of values with ``unique_min_permutation``.  Returns
    the first certificate found, or None after ``CERTIFICATE_DRAWS``
    draws (or at once when there are fewer than n such points).  None proves nothing:
    on a dependent family every draw fails.
    """
    _common_graph(funcs)
    n = len(funcs)
    cands = _candidate_points(funcs)
    if len(cands) < n:
        return None
    rng = SplitMix64(CERTIFICATE_SEED)
    order = list(range(len(cands)))
    values: dict[int, list[Fraction]] = {}
    for _draw in range(CERTIFICATE_DRAWS):
        if report is not None:
            report.draws += 1
        # partial Fisher-Yates: order[:n] becomes a uniform n-subset
        for i in range(n):
            k = i + rng.below(len(order) - i)
            order[i], order[k] = order[k], order[i]
        picked = order[:n]
        for i in picked:
            if i not in values:
                values[i] = [f(cands[i]) for f in funcs]
        perm = unique_min_permutation([values[i] for i in picked])
        if perm is not None:
            return IndependenceCertificate(tuple(cands[i] for i in picked), perm)
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
    M = [[f(p) for f in funcs] for p in cert.points]
    return unique_min_permutation(M) == tuple(cert.permutation)
