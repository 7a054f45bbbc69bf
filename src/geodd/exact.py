"""Exact rational linear algebra, run on Python integers.

Mirrors the floating subspace operations so tests can replay every
computation without roundoff, and supplies the exact determinant grid used
to confirm that a feedback family is singular everywhere.

Fraction matrices are the interface only: every matrix that comes out is
a `RatMat`, a list of rows of Fractions that also records its column
count, so a 0 x k matrix keeps k and flows through the general code. A
plain list of rows goes in too; its width is that of its first row.
Inside, everything runs on Python integers. A span is scale-free per
column, so spans are integer column matrices, each column a primitive
vector (divided by its content). The plant matrices of one call are
scaled by one common denominator d, which changes none of their star
subspaces; the coupling system of `affine_k_family` is multiplied through
by d^2. The eliminations divide each updated row by its content (`det`
uses Bareiss's exact division instead), and the determinant grid runs on
integer members over a common denominator at integer grid points.

The solve path's K family (`_star_family`) runs on integers end to end:
the plant's float arrays are scaled by one common denominator, V*^perp is S*
of the dual quadruple, so one growing recursion gives both subspaces. That
recursion (`_sstar_small`) eliminates only the p x (k + m) system
[C S_k  D] per step, where `sstar_span` intersects S_k x U with ker [C D]
in n + m rows; its iterates span the same subspaces, with other columns.
The family, an RREF of a system whose row space depends on V*^perp and
S* + W alone, not on their bases, equals that of `affine_k_family` on
`vstar_span`, `sstar_span` and `kernel`.

The results are those of the same computations on Fractions: `rref`,
`kernel`, `solve_affine`, the K family of `affine_k_family` (and of
`_star_family`) and the `det_grid_scan` witness are canonical and equal
them entry for entry; the spans of `vstar_span`, `sstar_span`,
`intersect_spans` and `invariant_hull_smallest` have the columns the
Fraction computation picks, each times a positive factor, so
`clear_denominators` gives the same integers. The spans inside
`_star_family` are not among them: only their subspaces are the same.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import gcd, lcm
from operator import mul

import numpy as np

class RatMat(list):
    """A list of rows, each a list of Fractions, that also records its
    column count, so that a matrix with no rows keeps its width."""
    __slots__ = ("ncols",)

    def __init__(self, rows, ncols: int):
        super().__init__(rows)
        self.ncols = ncols


def fr(x) -> Fraction:
    """Exact conversion; floats are dyadic so this never rounds."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, np.integer)):
        return Fraction(int(x))
    return Fraction(float(x))


def _shared(rows, convert, ncols: int) -> RatMat:
    """[[convert(x) for x in row] for row in rows], a RatMat with ncols
    columns, one call per distinct x: Fractions are immutable, so equal
    entries can share one, and matrices hold few distinct values while
    building a Fraction costs far more than a lookup."""
    seen = {}
    out = []
    for row in rows:
        fracs = []
        for x in row:
            f = seen.get(x)
            if f is None:
                f = seen[x] = convert(x)
            fracs.append(f)
        out.append(fracs)
    return RatMat(out, ncols)


def from_array(A) -> RatMat:
    A = np.atleast_2d(np.asarray(A))
    return _shared(A.tolist(), fr, A.shape[1])


def to_array(M: RatMat) -> np.ndarray:
    return np.array([[float(x) for x in row] for row in M],
                    dtype=float).reshape(shape(M))


def shape(M: RatMat):
    """(rows, columns); a plain list of rows has the width of its first row."""
    return len(M), getattr(M, "ncols", len(M[0]) if M else 0)


def zeros(r: int, c: int) -> RatMat:
    return RatMat([[Fraction(0)] * c for _ in range(r)], c)


def eye(n: int) -> RatMat:
    return RatMat([[Fraction(int(i == j)) for j in range(n)] for i in range(n)], n)


def transpose(M: RatMat) -> RatMat:
    r, c = shape(M)
    return RatMat([[row[j] for row in M] for j in range(c)], r)


def hstack(*mats: RatMat) -> RatMat:
    rows = shape(mats[0])[0]
    return RatMat([sum((M[i] for M in mats), []) for i in range(rows)],
                  sum(shape(M)[1] for M in mats))


def vstack(*mats: RatMat) -> RatMat:
    return RatMat([row[:] for M in mats for row in M], shape(mats[0])[1])


# -- the integer core ---------------------------------------------------------

def _cleared(row):
    """(integers, d) with row == integers / d, d the lcm of the denominators."""
    den = lcm(*[x.denominator for x in row])
    return [x.numerator * (den // x.denominator) for x in row], den


def _primitive(ints: list) -> list:
    """The integers divided by their content (their gcd)."""
    g = gcd(*ints)
    return [x // g for x in ints] if g > 1 else ints


def _integer_rows(M: RatMat) -> list:
    """Each row times the lcm of its denominators, divided by its content.

    Scaling a row by a nonzero constant changes neither its span nor the
    RREF, so the integer rows reduce to the same R and pivots as M.
    """
    return [_primitive(_cleared(row)[0]) for row in M]


def _scaled(*mats: RatMat):
    """([d * M for M in mats] as integer matrices, d), d the lcm of every
    denominator in `mats`."""
    d = lcm(*{x.denominator for M in mats for row in M for x in row})
    if d == 1:
        return [[[x.numerator for x in row] for row in M] for M in mats], 1
    return [[[x.numerator * (d // x.denominator) for x in row] for row in M]
            for M in mats], d


def _columns(B: RatMat) -> list:
    """The columns of B, each scaled to its primitive integer multiple."""
    return [_primitive(_cleared(col)[0]) for col in transpose(B)]


def _fractions(rows, ncols: int, den: int = 1) -> RatMat:
    """The integer rows, which have ncols columns, divided by den, as
    Fractions."""
    return _shared(rows, lambda x: Fraction(x, den), ncols)


def _span(cols: list, n: int) -> RatMat:
    """The n x k Fraction matrix whose columns are the integer `cols`."""
    return transpose(_fractions(cols, n))


def _apply(rows: list, v) -> list:
    """The integer matrix `rows` times the integer vector v."""
    return [sum(map(mul, row, v)) for row in rows]


def _eliminate(rows: list, ncols: int, reduced: bool) -> list:
    """Integer Gaussian elimination in place; returns the pivot columns.

    Row i becomes pv * row_i - f * pivot_row, divided by its content, so
    every row stays a nonzero multiple of the row the rational elimination
    would hold and the pivot choice (first nonzero entry at or below the
    current row) is the same. With `reduced` the rows above each pivot are
    cleared too (Gauss-Jordan); without it only the rows below, which gives
    the same pivots, since no step reads the rows above the current one.
    """
    nrows = len(rows)
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        prow = rows[r]
        pv = prow[c]
        for i in range(0 if reduced else r + 1, nrows):
            row = rows[i]
            f = row[c]
            if i == r or not f:
                continue
            rows[i] = _primitive([pv * x - f * y for x, y in zip(row, prow)])
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return pivots


def _independent(cols: list) -> list:
    """The columns at the pivots of the matrix whose columns are `cols`:
    each one that is not in the span of those before it."""
    if not cols:
        return []
    rows = [list(r) for r in zip(*cols)]
    return [cols[c] for c in _eliminate(rows, len(cols), reduced=False)]


def _null(rows: list, ncols: int) -> list:
    """Integer columns spanning the null space of the integer rows (which
    are consumed): for each free column of the RREF, the primitive positive
    multiple of the RREF kernel vector that `kernel` returns."""
    pivots = _eliminate(rows, ncols, reduced=True)
    pivot_set = set(pivots)
    out = []
    for fc in range(ncols):
        if fc in pivot_set:
            continue
        terms = [(pc, rows[r][fc], rows[r][pc])
                 for r, pc in enumerate(pivots) if rows[r][fc]]
        scale = lcm(*[pv for _, _, pv in terms])
        v = [0] * ncols
        v[fc] = scale
        for pc, f, pv in terms:
            v[pc] = -f * scale // pv
        out.append(_primitive(v))
    return out


def _intersect(B1: list, B2: list) -> list:
    """Solve B1 c1 = B2 c2; the common vectors B1 c1 span the intersection."""
    if not B1 or not B2:
        return []
    k1 = len(B1)
    rows = [list(r) for r in zip(*B1, *([-x for x in b] for b in B2))]
    B1_rows = list(zip(*B1))
    return _independent([_primitive(_apply(B1_rows, v[:k1]))
                         for v in _null(rows, k1 + len(B2))])


def _preimage(M: list, B: list, ncols: int) -> list:
    """{x : M x in span(B)} for the integer matrix M with ncols columns."""
    if not B:
        return _null([row[:] for row in M], ncols)
    rows = [row + [-b[i] for b in B] for i, row in enumerate(M)]
    return _independent([v[:ncols] for v in _null(rows, ncols + len(B))])


def _image(M: list, B: list) -> list:
    return _independent([_primitive(_apply(M, b)) for b in B])


def _unit_columns(n: int, lead: int = 0) -> list:
    """The last n unit vectors of Z^(lead + n)."""
    return [[0] * lead + [int(i == j) for i in range(n)] for j in range(n)]


def _vstar(A, B, C, D) -> list:
    n, p = len(A), len(C)
    MT = A + C
    BD = [list(c) for c in zip(*(B + D))]
    below = [0] * p
    V = _unit_columns(n)
    for _ in range(n + 1):
        target = _independent([v + below for v in V] + BD)
        Vnext = _preimage(MT, target, n)
        if len(Vnext) == len(V):
            return V
        V = Vnext
    return V


def _sstar(A, B, C, D, m: int) -> list:
    n = len(A)
    AB = [a + b for a, b in zip(A, B)]
    ker_cd = _null([c + d for c, d in zip(C, D)], n + m) if C else None
    inputs = _unit_columns(m, n)
    beside = [0] * m
    S = []
    for _ in range(n + 1):
        lifted = [s + beside for s in S] + inputs
        inter = lifted if ker_cd is None else _intersect(lifted, ker_cd)
        # The recursion is non-decreasing, so S_k lies in S_{k+1} already.
        Snext = _image(AB, inter)
        if len(Snext) == len(S):
            return S
        S = Snext
    return S


def _sstar_small(A, B, C, D, m: int) -> list:
    """S* by the growing recursion on the small system [C S_k  D].

    The columns of S_k are independent, so (S_k x U) meet ker [C D] is
    blockdiag(S_k, I) ker [C S_k  D], and its image under [A B] is
    [A S_k  B] ker [C S_k  D] (Basile & Marro 1992). A step eliminates the
    p x (k + m) system alone, where `_sstar` intersects in n + m rows. Each
    iterate spans the one of `_sstar`, so the step count and S* are the
    same; the columns may differ.
    """
    n = len(A)
    B_cols = _transposed(B, m)
    S = []
    for _ in range(n + 1):
        CS = [_apply(C, s) for s in S]
        rows = [[cs[i] for cs in CS] + d for i, d in enumerate(D)]
        AS_B = list(zip(*[_apply(A, s) for s in S], *B_cols))
        Snext = _independent([_primitive(_apply(AS_B, v))
                              for v in _null(rows, len(S) + m)])
        if len(Snext) == len(S):
            return S
        S = Snext
    return S


def _bareiss(rows: list) -> int:
    """Determinant of a square integer matrix (rows consumed) by
    fraction-free elimination."""
    n = len(rows)
    sign = 1
    prev = 1
    for col in range(n):
        pivot = next((i for i in range(col, n) if rows[i][col]), None)
        if pivot is None:
            return 0
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            sign = -sign
        prow = rows[col]
        pv = prow[col]
        # Every updated entry is a minor of the integer matrix (Bareiss 1968),
        # so the division by the previous pivot is exact.
        for i in range(col + 1, n):
            f = rows[i][col]
            rows[i] = [(pv * x - f * y) // prev for x, y in zip(rows[i], prow)]
        prev = pv
    return sign * prev


def _grid(count: int) -> list[int]:
    """0, 1, -1, 2, -2, ..., `count` of them."""
    return [(k + 1) // 2 * (1 if k % 2 else -1) for k in range(count)]


# -- the Fraction interface ---------------------------------------------------

def matmul(A: RatMat, B: RatMat) -> RatMat:
    ra, ca = shape(A)
    rb, cb = shape(B)
    if ca != rb:
        raise ValueError(f"shape mismatch {shape(A)} @ {shape(B)}")
    (Ai,), da = _scaled(A)
    (Bi,), db = _scaled(B)
    B_cols = _transposed(Bi, cb)
    return _fractions([[sum(map(mul, row, col)) for col in B_cols] for row in Ai],
                      cb, da * db)


def _pivots(M: RatMat) -> list:
    return _eliminate(_integer_rows(M), shape(M)[1], reduced=False)


def rref(M: RatMat):
    """Reduced row echelon form; returns (R, pivot_columns).

    The elimination runs on integers; only the pivot rows of the result are
    turned back into Fractions (the remaining rows are zero).
    """
    nrows, ncols = shape(M)
    rows = _integer_rows(M)
    pivots = _eliminate(rows, ncols, reduced=True)
    R = RatMat([[Fraction(x, rows[r][c]) for x in rows[r]]
                for r, c in enumerate(pivots)], ncols)
    R.extend([Fraction(0)] * ncols for _ in range(nrows - len(pivots)))
    return R, pivots


def rank(M: RatMat) -> int:
    return len(_pivots(M))


def _rref_kernel(rows: list, pivots: list, ncols: int) -> RatMat:
    """Null space of the first ncols columns of a reduced integer echelon
    form whose pivots all lie among them: per free column, 1 there and
    -R[r][free] at each pivot, R the RREF."""
    free = [c for c in range(ncols) if c not in pivots]
    basis = zeros(ncols, len(free))
    for k, fc in enumerate(free):
        basis[fc][k] = Fraction(1)
        for r, pc in enumerate(pivots):
            if rows[r][fc]:
                basis[pc][k] = Fraction(-rows[r][fc], rows[r][pc])
    return basis


def kernel(M: RatMat) -> RatMat:
    """Columns span the exact null space of M (the RREF basis)."""
    ncols = shape(M)[1]
    rows = _integer_rows(M)
    return _rref_kernel(rows, _eliminate(rows, ncols, reduced=True), ncols)


def colspace(M: RatMat) -> RatMat:
    """Independent columns of M (original columns at the RREF pivots)."""
    pivots = _pivots(M)
    return RatMat([[row[c] for c in pivots] for row in M], len(pivots))


def sum_spans(B1: RatMat, B2: RatMat) -> RatMat:
    return colspace(hstack(B1, B2))


def intersect_spans(B1: RatMat, B2: RatMat) -> RatMat:
    return _span(_intersect(_columns(B1), _columns(B2)), shape(B1)[0])


def contains_span(outer: RatMat, inner: RatMat) -> bool:
    _, ki = shape(inner)
    if ki == 0:
        return True
    # The pivots of [outer inner] that fall in outer's columns are outer's
    # own, so inner adds to the rank exactly when a pivot lands past them.
    ko = shape(outer)[1]
    return all(c < ko for c in _pivots(hstack(outer, inner)))


def invariant_hull_smallest(A: RatMat, B: RatMat) -> RatMat:
    n, _ = shape(A)
    (Ai,), _ = _scaled(A)
    current = _independent(_columns(B))
    for _ in range(n + 1):
        grown = _independent(current + _image(Ai, current))
        if len(grown) == len(current):
            break
        current = grown
    return _span(current, n)


def lifted_span(S: RatMat, extra: int) -> RatMat:
    """Columns [S 0; 0 I] spanning span(S) x Q^extra."""
    n, k = shape(S)
    return vstack(hstack(S, zeros(n, extra)), hstack(zeros(extra, k), eye(extra)))


def vstar_span(A: RatMat, B: RatMat, C: RatMat, D: RatMat) -> RatMat:
    """Largest output-nulling subspace, by the exact shrinking recursion.

    Same recursion as `geometry.vstar`: from V_0 = X it takes at most n
    strict steps (attained), from V_1 = C^{-1}(im D) at most n-1.
    """
    return _span(_vstar(*_scaled(A, B, C, D)[0]), shape(A)[0])


def sstar_span(A: RatMat, B: RatMat, C: RatMat, D: RatMat) -> RatMat:
    """Smallest input-containing subspace, by the exact growing recursion.

    Same recursion as `geometry.sstar`: from S_0 = 0 it takes at most n
    strict steps (attained), from S_1 = B ker D at most n-1. This is the
    literal recursion, S_{k+1} = [A B]((S_k x U) meet ker [C D]) (`_sstar`),
    kept as the oracle: its columns are the Fraction reference's, and the
    twin's faster `_sstar_small` is checked against its spans.
    """
    return _span(_sstar(*_scaled(A, B, C, D)[0], shape(B)[1]), shape(A)[0])


def det(M: RatMat) -> Fraction:
    """Fraction-free (Bareiss) elimination on the denominator-cleared rows,
    divided by the product of the row denominators."""
    n, c = shape(M)
    if n != c:
        raise ValueError("determinant of a non-square matrix")
    rows = []
    dens = 1
    for row in M:
        ints, den = _cleared(row)
        rows.append(ints)
        dens *= den
    return Fraction(_bareiss(rows), dens)


def _affine_solution(rows: list, ncols: int):
    """All solutions of the integer system [A b] (rows consumed):
    (particular, nullspace columns) as Fractions, or None."""
    pivots = _eliminate(rows, ncols + 1, reduced=True)
    if ncols in pivots:
        return None
    x0 = [Fraction(0)] * ncols
    for r, pc in enumerate(pivots):
        x0[pc] = Fraction(rows[r][ncols], rows[r][pc])
    # The first ncols columns of the RREF of [A b] are the RREF of A.
    return x0, _rref_kernel(rows, pivots, ncols)


def solve_affine(A: RatMat, b: list):
    """All solutions of A x = b: (particular, nullspace columns) or None."""
    aug = [row[:] + [fr(v)] for row, v in zip(A, b)]
    return _affine_solution(_integer_rows(aug), shape(A)[1])


def clear_denominators(B: RatMat) -> RatMat:
    """Scale each column to the smallest integer entries with the same span."""
    return _span(_columns(B), shape(B)[0])


class ExactAffineFamily:
    """Affine set {K0 + sum theta_i K_i} with exact rational entries."""

    def __init__(self, K0: RatMat, directions: list[RatMat]):
        self.K0 = K0
        self.directions = directions

    def member(self, thetas) -> RatMat:
        thetas = [fr(th) for th in thetas]
        K = [[k + sum((th * D[i][j] for th, D in zip(thetas, self.directions)),
                      Fraction(0))
              for j, k in enumerate(row)] for i, row in enumerate(self.K0)]
        return RatMat(K, shape(self.K0)[1])


def _k_family(Ai: list, Bi: list, Ci: list, d: int, T: list, Nr: list,
              m: int, p: int):
    """The solution set of (N Btil) K (Ctil Tb) = -d (N Atil Tb) in K, for
    integer Atil, Btil, Ctil (the rational ones times d), integer columns T
    of Tb and rows Nr of N: an ExactAffineFamily, or None when infeasible.

    Each equation is a nonzero multiple of the rational one, and the rows
    span the same space for any bases of im N^T and im Tb, so the RREF,
    hence K0 and the directions, depend on those two subspaces alone.
    """
    B_cols = _transposed(Bi, m)
    Y = [[sum(map(mul, nrow, col)) for col in B_cols] for nrow in Nr]  # a x m
    X = [_apply(Ci, tc) for tc in T]                                    # t x p
    NA = [[sum(map(mul, nrow, col)) for col in zip(*Ai)] for nrow in Nr]
    Rm = [_apply(NA, tc) for tc in T]                                   # t x a
    # Row (j, i): sum_ab Y[i,a] K[a,b] X[b,j] = -d Rm[i,j], K[a,b] at a + m b
    rows = []
    for Xj, Rj in zip(X, Rm):
        for Yi, r in zip(Y, Rj):
            rows.append([y * x for x in Xj for y in Yi] + [-d * r])
    sol = _affine_solution(rows, m * p)
    if sol is None:
        return None
    x0, nullb = sol
    K0 = RatMat([[x0[al + m * be] for be in range(p)] for al in range(m)], p)
    _, nd = shape(nullb)
    dirs = [RatMat([[nullb[al + m * be][k] for be in range(p)] for al in range(m)], p)
            for k in range(nd)]
    return ExactAffineFamily(K0, dirs)


def affine_k_family(Atil: RatMat, Btil: RatMat, Ctil: RatMat,
                    Tb: RatMat, N: RatMat):
    """Exact solution set of N (Atil + Btil K Ctil) Tb = 0 in K.

    N spans the left annihilator of the target subspace; Tb spans the
    constrained domain. Returns ExactAffineFamily or None when infeasible.

    With Atil, Btil, Ctil scaled to integers by their common denominator d,
    each column of Tb and each row of N to its primitive integer multiple,
    the system reads (N Btil) K (Ctil Tb) = -d (N Atil Tb) (`_k_family`).
    """
    (Ai, Bi, Ci), d = _scaled(Atil, Btil, Ctil)
    return _k_family(Ai, Bi, Ci, d, _columns(Tb), _integer_rows(N),
                     shape(Btil)[1], shape(Ctil)[0])


def _float_integers(*arrays):
    """([d * M for M in arrays] as integer row lists, d) for 2-D float
    arrays, d the lcm of their entries' denominators (1 for integer
    arrays). A float is a dyadic rational, so `as_integer_ratio` is exact;
    it runs once per distinct entry."""
    lists = [M.tolist() for M in arrays]
    ratios = {}
    for M in lists:
        for row in M:
            for x in row:
                if x not in ratios:
                    ratios[x] = x.as_integer_ratio()
    d = lcm(*{den for _, den in ratios.values()})
    ints = {x: num * (d // den) for x, (num, den) in ratios.items()}
    return [[[ints[x] for x in row] for row in M] for M in lists], d


def _transposed(M: list, ncols: int) -> list:
    """The transpose of the integer rows M, which have ncols columns."""
    return [list(col) for col in zip(*M)] if M else [[] for _ in range(ncols)]


def _star_family(A, B, H, C, G_y, E, D_z, G_z):
    """The K family of the coupling inclusion on the star pair (S*, V*) of
    the plant with these float arrays, as `affine_k_family` returns it, or
    None when the inclusion has no solution.

    The eight arrays are scaled to integers by one common denominator d,
    which changes no star subspace. The annihilator of V* x 0_Z is
    V*^perp x Z, and V*^perp is S* of the dual quadruple (A^T, E^T, B^T,
    D_z^T) (Basile & Marro 1992), so both subspaces come from the growing
    recursion on the small system [C S_k  D] (`_sstar_small`), without the
    shrinking recursion, a kernel of [C D] or an intersection. Its bases
    differ from those of `_sstar`, but the family depends on V*^perp and
    S* alone (`_k_family`), so it equals the one `affine_k_family` builds
    from `vstar_span`, `sstar_span` and `kernel`, entry for entry.
    """
    n, m, q, p, r = A.shape[0], B.shape[1], H.shape[1], C.shape[0], E.shape[0]
    (A, B, H, C, G_y, E, D_z, G_z), d = _float_integers(A, B, H, C, G_y, E, D_z, G_z)
    v_perp = _sstar_small(_transposed(A, n), _transposed(E, n), _transposed(B, m),
                          _transposed(D_z, m), r)
    s_star = _sstar_small(A, H, C, G_y, q)
    N = [z + [0] * r for z in v_perp] + _unit_columns(r, n)
    T = [s + [0] * q for s in s_star] + _unit_columns(q, n)
    Atil = [a + h for a, h in zip(A, H)] + [e + g for e, g in zip(E, G_z)]
    Ctil = [c + g for c, g in zip(C, G_y)]
    return _k_family(Atil, B + D_z, Ctil, d, T, N, m, p)


def det_grid_scan(family: ExactAffineFamily, Dy: RatMat,
                  points_per_var: int):
    """Scan det(I + K Dy) over a rational grid of the affine family.

    Returns a theta list where the determinant is nonzero, or None when it
    vanishes at every grid point. With points_per_var exceeding the
    per-variable degree of the determinant polynomial, an all-zero grid
    proves the determinant vanishes identically on the affine set.

    With K0 and the directions over a common denominator L and Dy over e,
    L e (I + K Dy) = L e I + P0 + sum theta_i P_i for integer matrices P,
    so each grid point takes one integer determinant.
    """
    m = shape(family.K0)[0]
    (K0, *dirs), L = _scaled(family.K0, *family.directions)
    (D,), e = _scaled(Dy)
    D_cols = _transposed(D, m)

    def times_dy(K):
        return [[sum(map(mul, row, col)) for col in D_cols] for row in K]

    base = times_dy(K0)
    for i in range(m):
        base[i][i] += L * e
    steps = [times_dy(K) for K in dirs]
    # the first parameter varies fastest: product varies the last, reversed
    for point in product(_grid(points_per_var), repeat=len(steps)):
        theta = point[::-1]
        M = [row[:] for row in base]
        for th, P in zip(theta, steps):
            if th:
                for Mi, Pi in zip(M, P):
                    for j, x in enumerate(Pi):
                        Mi[j] += th * x
        if _bareiss(M):
            return [Fraction(x) for x in theta]
    return None
