"""Brill-Noether machinery on the chain of loops at rho = 0.

Rectangular standard tableaux classify the relevant divisor classes; each
tableau yields a lattice path, a divisor D on the chain, its adjoint E,
and the twisted representatives D_j / E_k with piecewise-linear witnesses.
``Tableau(...)`` checks every tableau it is given; ``Tableau._of`` is the
one unchecked producer of tableaux, for the standard fillings that
``enumerate_tableaux`` and ``Tableau.transpose`` build.

``build_Dj`` / ``build_Ek`` follow the definition: D_j =
red_{w_g}(D - j*v_1) + j*v_1 and its witness phi_j come from
``v_reduce``.  The experiment keeps D's chips per loop i as (ccw
distance from w_i, count) in units of 1/L, L the lcm of the denominators
of the chain's lengths, and gets the cells of D_j and the values of
phi_j at v_1..v_g from one scan from loop 1 to loop g (``_twist``), one
``_reduce_loop`` step per loop.  The scan leaves at most one chip in
each cell and none on a bridge, the shape of a w_g-reduced divisor, and
reduced divisors are unique (Baker-Norine; Cools, Draisma, Payne and
Robeva, "A tropical proof of the Brill-Noether Theorem", Section 3).
The slopes of phi_j it reads are integers exactly when D_j - D is
principal on each loop, so a remainder raises ``TheoremViolation``.

The central experiment proves that the family {phi_j + psi_k} admits no
tropical dependence, as the paper does, from shapes: each D_j + E_k
misses exactly one cell gamma_i, these cells are distinct, and matching
the vertex v_i to the function whose cell holds entry i gives an
independence certificate, checked exactly on the closed-form values;
should one fail, the experiment raises ``TheoremViolation``.  The cells
are checked one function at a time: D_j must miss exactly the cells of
the entries in column j of the tableau, and E_k those in row k.  That is
the same check, since the pairs missing gamma_i form the product
{j : D_j misses it} x {k : E_k misses it}, a single pair exactly when
both factors are singletons.
"""
from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from .errors import GenericityError, PreconditionError, TheoremViolation
from .graph import BNParams, ChainOfLoops, Divisor, _shown, canonical_divisor
from .independence import IndependenceCertificate, strict_offsets
# nothing here calls it: perfbench/test_perfbench.py reads chainbn.find_dependence
from .independence import find_dependence  # noqa: F401
from .plfunc import PLFunction
from .reduce import is_equivalent, v_reduce


# ---------------------------------------------------------------------------
# tableaux and lattice paths


def _positions(entries) -> dict[int, tuple[int, int]]:
    """(row, col) of each entry, for ``Tableau.position``."""
    return {x: (r, c) for r, row in enumerate(entries) for c, x in enumerate(row)}


@dataclass(frozen=True)
class Tableau:
    """A rectangular standard tableau: entries 1..rows*cols, strictly
    increasing along rows and columns.

    ``Tableau(entries)`` checks all of that; ``Tableau._of`` is the one
    unchecked producer, for the fillings ``enumerate_tableaux`` and
    ``transpose`` build standard by construction."""

    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        # tuples, so that a tableau given lists still hashes and compares
        try:
            object.__setattr__(self, "entries", tuple(map(tuple, self.entries)))
        except TypeError:  # the entries, or a row, is not iterable
            raise PreconditionError("a tableau is a list of rows of ints") from None
        if not self.entries or not self.entries[0]:
            raise PreconditionError("a tableau needs a row and a column")
        flat = [x for row in self.entries for x in row]
        if any(len(row) != self.cols for row in self.entries):
            raise PreconditionError("ragged tableau")
        # True and 1.0 would pass the bijection test for 1
        if wrong := [type(x).__name__ for x in flat if type(x) is not int]:
            raise PreconditionError(f"tableau entries must be ints, not {wrong[0]}")
        if sorted(flat) != list(range(1, self.size + 1)):
            raise PreconditionError("entries must be a bijection onto 1..n")
        for row in self.entries:
            if any(a >= b for a, b in zip(row, row[1:])):
                raise PreconditionError("rows must strictly increase")
        for col in zip(*self.entries):
            if any(a >= b for a, b in zip(col, col[1:])):
                raise PreconditionError("columns must strictly increase")
        object.__setattr__(self, "_position", _positions(self.entries))

    @staticmethod
    def _of(entries: tuple[tuple[int, ...], ...]) -> "Tableau":
        """The tableau of ``entries``, taken as is: a tuple of equal-length
        tuples of ints holding a standard filling."""
        T = object.__new__(Tableau)
        # as the dataclass sets them, leaving the instance's __dict__ untouched
        object.__setattr__(T, "entries", entries)
        object.__setattr__(T, "_position", _positions(entries))
        return T

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0])

    @property
    def size(self) -> int:
        return self.rows * self.cols

    def transpose(self) -> "Tableau":
        return Tableau._of(tuple(zip(*self.entries)))

    def position(self, i: int) -> tuple[int, int]:
        """(row, col) of entry i, an int, zero-indexed."""
        if type(i) is int and i in self._position:
            return self._position[i]
        raise PreconditionError(f"no entry {_shown(i, str)}")

    def params(self) -> BNParams:
        """The (g, r, d) with rho = 0 classified by this shape."""
        g = self.size
        r = self.cols - 1
        d = g + r - self.rows
        return BNParams(g, r, d)


def _check_shape(rows, cols) -> None:
    """``PreconditionError`` unless rows and cols are ints >= 1."""
    if not (type(rows) is int and type(cols) is int and rows >= 1 and cols >= 1):
        raise PreconditionError(f"tableau shape is empty: rows and cols must be "
                                f"ints >= 1, got {rows!r} x {cols!r}")


def hook_length_count(rows: int, cols: int) -> int:
    """Number of standard tableaux of rectangular shape, by the hook
    length formula; ``PreconditionError`` for no shape (``_check_shape``)."""
    _check_shape(rows, cols)
    prod = 1
    for r in range(rows):
        for c in range(cols):
            prod *= (rows - r) + (cols - c) - 1
    return factorial(rows * cols) // prod


def enumerate_tableaux(rows: int, cols: int) -> Iterator[Tableau]:
    """Every rectangular standard tableau, yielded as it is finished, in
    lexicographic order of the Yamanouchi word (the row of entry 1, of
    entry 2, ...): on at most two rows, and at both ends of any shape,
    the order of the row-concatenated entries.  ``PreconditionError``
    for no shape, before anything is yielded (``_check_shape``)."""
    _check_shape(rows, cols)
    n = rows * cols
    grid = [[0] * cols for _ in range(rows)]
    filled = [0] * rows

    def place(i: int):
        if i > n:
            yield Tableau._of(tuple(map(tuple, grid)))
            return
        for r in range(rows):
            c = filled[r]  # entry i fills (r, c) if the cell above is filled
            if c < cols and (r == 0 or filled[r - 1] > c):
                grid[r][c] = i
                filled[r] += 1
                yield from place(i + 1)
                filled[r] -= 1

    return place(1)


def tableau_to_dyck(T: Tableau) -> tuple[tuple[int, ...], ...]:
    """The lattice path p_0..p_g in Z^r attached to a tableau: from
    (r, ..., 1), step +e_j for an entry in column j < r, (-1,..,-1) for
    the last column.  The tableau conditions are exactly the conditions
    that the path stays in the open chamber p(0) > ... > p(r-1) > 0 and
    ends where it starts."""
    r = T.cols - 1
    cur = list(range(r, 0, -1))
    pts = [tuple(cur)]
    for i in range(1, T.size + 1):
        col = T.position(i)[1]
        if col < r:
            cur[col] += 1
        else:
            cur = [x - 1 for x in cur]
        pts.append(tuple(cur))
    return tuple(pts)


# ---------------------------------------------------------------------------
# divisors from tableaux


def _require_chain(T: Tableau, chain: ChainOfLoops):
    if chain.g != T.size:
        raise PreconditionError(f"tableau size {T.size} != genus {chain.g}")
    if not chain.generic:
        raise GenericityError(
            "chain loop-length ratios admit a small integer ratio; "
            "divisor positions are not guaranteed to avoid the vertices")


def _tableau_chips(T: Tableau, ell: tuple, m: tuple) -> list[list[tuple[int, int]]]:
    """The chips of ``tableau_to_divisor`` on the integer lengths ell and
    m: the r at v_1 at distance ell_1, and each at p_{i-1}(j)*m_i taken
    mod ell_i + m_i."""
    r = T.cols - 1
    path = tableau_to_dyck(T)
    loops: list[list[tuple[int, int]]] = [[] for _ in ell]
    if r:
        loops[0].append((ell[0], r))
    for i in range(1, T.size + 1):
        col = T.position(i)[1]
        if col < r:
            loops[i - 1].append(
                (path[i - 1][col] * m[i - 1] % (ell[i - 1] + m[i - 1]), 1))
    return loops


def tableau_to_divisor(T: Tableau, chain: ChainOfLoops) -> Divisor:
    """The divisor classified by the tableau: r chips at v_1, plus one chip
    on loop i at counterclockwise distance p_{i-1}(j)*m_i from w_i whenever
    entry i sits in column j < r; loops with entries in the last column
    stay empty."""
    _require_chain(T, chain)
    L, ell, m, _beta = chain.integer_lengths
    return Divisor([(chain.ccw_point(i, Fraction(t, L)), c)
                    for i, on_loop in enumerate(_tableau_chips(T, ell, m), 1)
                    for (t, c) in on_loop])


def adjoint_divisor(T: Tableau, chain: ChainOfLoops) -> Divisor:
    """The divisor of the transposed tableau; D + E is canonical."""
    return tableau_to_divisor(T.transpose(), chain)


def build_Dj(T: Tableau, chain: ChainOfLoops, j: int) -> tuple[Divisor, PLFunction]:
    """The unique divisor D_j ~ D with D_j - j*v_1 - (r-j)*w_g effective,
    with the witness phi_j (D_j = D + div(phi_j), phi_j(w_g) = 0).

    By definition D_j = red_{w_g}(D - j*v_1) + j*v_1, and phi_j is the
    witness of that reduction, both from ``v_reduce``; a reduced divisor
    holding fewer than r - j chips at w_g raises ``TheoremViolation``.
    """
    r = T.cols - 1
    if not (type(j) is int and 0 <= j <= r):
        raise PreconditionError(f"column index {_shown(j)} out of range: need an int in 0..{r}")
    wg, shift = chain.w(chain.g), Divisor({chain.v(1): j})
    res = v_reduce(chain.graph, tableau_to_divisor(T, chain) - shift, wg)
    if res.reduced.coeff(wg) < r - j:
        raise TheoremViolation("twisted representative failed to be effective")
    return res.reduced + shift, res.witness


def _reduce_loop(carry: int, on_loop, ell: int, m: int, i: int) -> tuple[int | None, int]:
    """One loop of the w_g-reduction: the ``carry`` chips at w_{i-1}
    slide along the bridge to v_i, and with the chips ``on_loop`` of loop
    i, d in all, they are equivalent to (d-1)*w_i plus one chip at ccw
    distance s = sum c*t mod (ell + m) from w_i, or to d*w_i when s = 0,
    since the Abel-Jacobi map of a cycle is a group isomorphism.  Returns
    the distance of the chip left in cell gamma_i (None if it is empty)
    and the chips carried on to w_i.  A loop whose class is not effective
    (d < 0, or d = 0 and s != 0) raises ``PreconditionError``; effective
    input never has one."""
    d, s = carry, carry * ell
    for t, c in on_loop:
        d += c
        s += c * t
    s %= ell + m
    if d < 0 or (d == 0 and s):
        raise PreconditionError(f"debt on loop {i}")
    return (s, d - 1) if s else (None, d)


def _twist(loops, ell, m, beta, j: int, r: int) -> tuple[list, int, list[int]]:
    """What the experiment needs of ``build_Dj``, on the chips ``loops`` of
    the divisor D of a tableau with r + 1 columns, on integers in units of
    1/L, with no ``Divisor`` and no Laplacian solve.  Returns
    D_j = red_{w_g}(D - j*v_1) + j*v_1 as the ccw distance of the chip in
    each cell gamma_i (None for an empty cell) and the ``pile`` at w_g
    (D_j is j*v_1, those cell chips and pile*w_g), and L times the values
    phi_j(v_1..v_g) of its witness, D_j = D + div(phi_j), phi_j(w_g) = 0.

    One scan from loop 1 to loop g reduces F = D - j*v_1 by
    ``_reduce_loop``, and reads phi_j(v_i) off E_i = (cell chip) - F_i,
    the part of D_j - D on loop i.  Left of bridge i, D_j - D has degree
    minus the carry c, so c is the slope of phi_j along the bridge toward
    v_{i+1}.  On loop i, with c arriving at v_i, let num be c*m plus the
    sum of c'*t over the chips c' of E_i at ccw distance t, top that sum
    over the chips inside the top edge (t < ell), and past_v the chips at
    t >= ell.  The slope leaving v_i along the top edge is
    a = num / (ell + m) - past_v, and phi_j(w_i) - phi_j(v_i) = a*ell - top.
    a is an integer exactly when D_j - D is principal on the loop, so a
    remainder raises ``TheoremViolation``.  The pile at w_g is the last
    carry, so D_j - D has degree 0 and needs no check.
    """
    F = [loops[0] + [(ell[0], -j)], *loops[1:]]
    cells: list[int | None] = []
    values: list[int] = []
    y = carry = 0
    for i, on_loop in enumerate(F):
        values.append(y)
        ell_i, m_i = ell[i], m[i]
        cell, out = _reduce_loop(carry, on_loop, ell_i, m_i, i + 1)
        cells.append(cell)
        # sums over E_i, the cell chip less F_i: each chip (t, c) of F_i
        # counts -c, so the cell chip goes in as (cell, -1)
        num, top, past_v = carry * m_i, 0, 0
        for t, c in on_loop if cell is None else (*on_loop, (cell, -1)):
            num -= c * t
            if t < ell_i:
                top -= c * t
            else:
                past_v -= c
        a, rem = divmod(num, ell_i + m_i)
        if rem:
            raise TheoremViolation(f"D_j - D is not principal on loop {i + 1}")
        y += (a - past_v) * ell_i - top
        carry = out
        if i < len(beta):
            y += carry * beta[i]
    if carry < r - j:
        raise TheoremViolation("twisted representative failed to be effective")
    return cells, carry, [v - y for v in values]


def build_Ek(T: Tableau, chain: ChainOfLoops, k: int) -> tuple[Divisor, PLFunction]:
    """Adjoint counterpart of build_Dj: E_k ~ E with
    E_k - k*v_1 - (rows-1-k)*w_g effective, via the transposed tableau."""
    return build_Dj(T.transpose(), chain, k)


# ---------------------------------------------------------------------------
# shapes


@dataclass(frozen=True)
class ShapeProfile:
    """Occupancy of the chain decomposition by an effective divisor."""

    cells: tuple[bool, ...]        # gamma_1..gamma_g
    bridges: tuple[bool, ...]      # br_1..br_{g-1}
    wg_coeff: int

    def empty_cells(self) -> tuple[int, ...]:
        return tuple(i + 1 for i, occ in enumerate(self.cells) if not occ)


def _chips_per_piece(D: Divisor, chain: ChainOfLoops) -> list[int]:
    """Degree of D on each piece of ``ChainOfLoops.piece``, in one pass over
    its support; chips on the pendant bridges are not counted, and a
    point the chain does not have raises ``GraphError``."""
    chips = [0] * (2 * chain.g)
    for p, c in D.items():
        k = chain.piece(p)
        if k is not None:
            chips[k] += c
    return chips


def shape_profile(D: Divisor, chain: ChainOfLoops) -> ShapeProfile:
    if not D.is_effective:
        raise PreconditionError("shape profile is defined for effective divisors")
    chips = _chips_per_piece(D, chain)
    return ShapeProfile(tuple(c > 0 for c in chips[0::2]),
                        tuple(c > 0 for c in chips[1:-1:2]),
                        D.coeff(chain.w(chain.g)))


def is_wg_reduced_shape(D: Divisor, chain: ChainOfLoops) -> bool:
    """The classification of w_g-reduced effective divisors on the core
    chain: no chips on bridges, at most one chip per cell gamma_i."""
    if not D.is_effective:
        return False
    chips = _chips_per_piece(D, chain)
    return not any(chips[1:-1:2]) and all(c <= 1 for c in chips[0::2])


def canonical_shape_check(D: Divisor, chain: ChainOfLoops) -> int:
    """For an effective divisor equivalent to the canonical one, return the
    index of a cell gamma_i containing no chip; one must exist."""
    if not D.is_effective:
        raise PreconditionError("divisor must be effective")
    if is_equivalent(chain.graph, D, canonical_divisor(chain.graph)) is None:
        raise PreconditionError("divisor is not equivalent to the canonical divisor")
    prof = shape_profile(D, chain)
    empty = prof.empty_cells()
    if not empty:
        raise TheoremViolation(
            "effective canonical divisor occupies every cell of the chain")
    return empty[0]


def chips_on_each_loop_check(chain: ChainOfLoops, D: Divisor,
                             funcs: list[PLFunction], i: int) -> bool:
    """At most one of the divisors D + div(psi) misses cell gamma_i, given
    deg(D) <= 2g-2 and pairwise distinct incoming slopes at v_i along the
    bridge arriving from the left."""
    g = chain.g
    if not (type(i) is int and 1 <= i <= g):
        raise PreconditionError(f"loop index {_shown(i)} out of range: need an int in 1..{g}")
    if D.degree > 2 * g - 2:
        raise PreconditionError("degree must be at most 2g-2")
    if i == 1 and not chain.extended:
        raise PreconditionError("loop 1 has no incoming bridge on the core chain")
    bridge = chain.bridge_edge(i - 1)
    vi = chain.v(i)
    slopes = [f.incoming_slope(vi, bridge, -1) for f in funcs]
    if len(set(slopes)) != len(slopes):
        raise PreconditionError(f"incoming slopes {slopes} are not pairwise distinct")
    misses = 0
    for f in funcs:
        Df = D + f.divisor()
        if not Df.is_effective:
            raise PreconditionError("every function must lie in R(D)")
        if not _chips_per_piece(Df, chain)[2 * i - 2]:
            misses += 1
    return misses <= 1


# ---------------------------------------------------------------------------
# the rho = 0 experiment


@dataclass
class GPReport:
    # always "independent": a family the certificate fails raises
    verdict: str
    empty_cell_table: dict[tuple[int, int], int]
    independence_certificate: IndependenceCertificate


def gp_rho_zero_experiment(T: Tableau, chain: ChainOfLoops) -> GPReport:
    """Build phi_j and psi_k from the tableau and prove the family
    {phi_j + psi_k} (index j * rows + k) tropically independent, as the
    paper does on a generic chain.

    The empty-cell table is checked first, one function at a time: D_j
    must miss exactly the cells of the entries in column j of T and E_k
    those in row k, so that D_j + E_k misses exactly the cell gamma_i of
    the entry i in row k and column j.  The table then gives the
    certificate: the points v_1..v_g, with v_i matched to the function
    phi_j + psi_k whose cell holds i.  Its matrix
    M[i][j * rows + k] = phi_j(v_i) + psi_k(v_i), read off the witnesses,
    must have that matching as the unique minimiser of its min-plus
    permanent, and ``strict_offsets`` gives its offsets.  Either failure
    raises ``TheoremViolation``; the second names a permutation tau that
    costs no more than the matching.
    """
    _require_chain(T, chain)
    r = T.cols - 1
    rows = T.rows

    # as build_Dj and build_Ek, on the integer chips of each tableau
    L, ell, m, beta = chain.integer_lengths
    Tt = T.transpose()
    D, E = _tableau_chips(T, ell, m), _tableau_chips(Tt, ell, m)
    phis = [_twist(D, ell, m, beta, j, r) for j in range(r + 1)]
    psis = [_twist(E, ell, m, beta, k, rows - 1) for k in range(rows)]

    # D_j's j chips at v_1 lie in gamma_1
    for name, twists, must_miss in (("D", phis, Tt.entries), ("E", psis, T.entries)):
        for j, (cells, _pile, _values) in enumerate(twists):
            missed = tuple(i for i, t in enumerate(cells, 1)
                           if t is None and not (i == 1 and j))
            if missed != must_miss[j]:
                raise TheoremViolation(
                    f"tableau {T.entries}: {name}_{j} misses cells {missed}, "
                    f"expected {must_miss[j]}")

    # v_i is matched to phi_j + psi_k for the entry i in row k, column j
    table = {T.position(i)[::-1]: i for i in range(1, chain.g + 1)}
    # v_1..v_g, every other vertex from v_1 (past w_0 on an extended chain)
    points = chain.graph.vertex_points[chain.extended:2 * chain.g:2]
    perm = tuple(j * rows + k for (j, k) in table)
    # the matrix in units of 1/L: a positive scale keeps every comparison,
    # and the offsets come out in the same units
    matrix = [[a[i] + b[i] for (_c, _p, a) in phis for (_c, _p, b) in psis]
              for i in range(chain.g)]
    offsets, tau = strict_offsets(matrix, perm)
    if tau is not None:
        raise TheoremViolation(
            f"tableau {T.entries}: the empty-cell matching sigma = {perm} "
            f"of v_1..v_{chain.g} is not the unique minimiser; tau = {tau} "
            f"costs no more")
    return GPReport("independent", table, IndependenceCertificate(
        points, perm, tuple(b / L for b in offsets)))
