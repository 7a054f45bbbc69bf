"""Exact rational linear algebra over Fraction entries.

Mirrors the floating subspace operations so tests can replay every
computation without roundoff, and supplies the exact determinant grid used
to confirm that a feedback family is singular everywhere. Spans are plain
column matrices (lists of rows of Fractions), not orthonormal bases.

Fractions are the interface only. The eliminations behind `rref`, `rank`,
`kernel`, `colspace`, `contains_span` and `det` clear each row's
denominators and run on Python integers, dividing each updated row by its
content (`det` uses Bareiss's exact division instead); `rref` turns only
its final pivot rows back into Fractions, and the pivot-only callers skip
even that. The results equal those of the same elimination on Fractions.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

import numpy as np

RatMat = list  # list of rows, each a list of Fraction


def fr(x) -> Fraction:
    """Exact conversion; floats are dyadic so this never rounds."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, np.integer)):
        return Fraction(int(x))
    return Fraction(float(x))


def mat(rows) -> RatMat:
    return [[fr(x) for x in row] for row in rows]


def from_array(A) -> RatMat:
    A = np.atleast_2d(np.asarray(A))
    return [[fr(x) for x in row] for row in A]


def to_array(M: RatMat) -> np.ndarray:
    if not M:
        return np.zeros((0, 0))
    return np.array([[float(x) for x in row] for row in M], dtype=float)


def shape(M: RatMat):
    return (len(M), len(M[0]) if M else 0)


def zeros(r: int, c: int) -> RatMat:
    return [[Fraction(0)] * c for _ in range(r)]


def eye(n: int) -> RatMat:
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def transpose(M: RatMat) -> RatMat:
    r, c = shape(M)
    return [[M[i][j] for i in range(r)] for j in range(c)]


def matmul(A: RatMat, B: RatMat) -> RatMat:
    ra, ca = shape(A)
    rb, cb = shape(B)
    if ca != rb:
        raise ValueError(f"shape mismatch {shape(A)} @ {shape(B)}")
    out = zeros(ra, cb)
    for i in range(ra):
        Ai = A[i]
        for k in range(ca):
            a = Ai[k]
            if a == 0:
                continue
            Bk = B[k]
            row = out[i]
            for j in range(cb):
                row[j] += a * Bk[j]
    return out


def madd(A: RatMat, B: RatMat) -> RatMat:
    return [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def scale(A: RatMat, s) -> RatMat:
    s = fr(s)
    return [[s * x for x in row] for row in A]


def hstack(*mats: RatMat) -> RatMat:
    mats = [M for M in mats if shape(M)[1] > 0 or shape(M)[0] > 0]
    if not mats:
        return []
    rows = shape(mats[0])[0]
    return [sum((M[i] for M in mats), []) for i in range(rows)]


def vstack(*mats: RatMat) -> RatMat:
    out = []
    for M in mats:
        out.extend([row[:] for row in M])
    return out


def _cleared(row: list):
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
    R = [[Fraction(x, rows[r][c]) for x in rows[r]] for r, c in enumerate(pivots)]
    R.extend([Fraction(0)] * ncols for _ in range(nrows - len(pivots)))
    return R, pivots


def rank(M: RatMat) -> int:
    return len(_pivots(M))


def kernel(M: RatMat) -> RatMat:
    """Columns span the exact null space of M."""
    return _rref_kernel(*rref(M), shape(M)[1])


def _rref_kernel(R: RatMat, pivots: list, ncols: int) -> RatMat:
    """Null space of the first ncols columns of a reduced row echelon form
    R whose pivots all lie among them."""
    free = [c for c in range(ncols) if c not in pivots]
    basis = zeros(ncols, len(free))
    for k, fc in enumerate(free):
        basis[fc][k] = Fraction(1)
        for r, pc in enumerate(pivots):
            basis[pc][k] = -R[r][fc]
    return basis


def colspace(M: RatMat) -> RatMat:
    """Independent columns of M (original columns at the RREF pivots)."""
    nrows, ncols = shape(M)
    if ncols == 0:
        return zeros(nrows, 0)
    pivots = _pivots(M)
    return [[M[i][c] for c in pivots] for i in range(nrows)]


def sum_spans(B1: RatMat, B2: RatMat) -> RatMat:
    return colspace(hstack(B1, B2))


def intersect_spans(B1: RatMat, B2: RatMat) -> RatMat:
    """Solve B1 c1 = B2 c2; the common vectors span the intersection."""
    n, k1 = shape(B1)
    _, k2 = shape(B2)
    if k1 == 0 or k2 == 0:
        return zeros(n, 0)
    stacked = hstack(B1, [[-x for x in row] for row in B2])
    null = kernel(stacked)
    c1 = [row[:] for row in null[:k1]] if null else zeros(k1, 0)
    return colspace(matmul(B1, c1))


def contains_span(outer: RatMat, inner: RatMat) -> bool:
    _, ki = shape(inner)
    if ki == 0:
        return True
    # The pivots of [outer inner] that fall in outer's columns are outer's
    # own, so inner adds to the rank exactly when a pivot lands past them.
    ko = shape(outer)[1]
    return all(c < ko for c in _pivots(hstack(outer, inner)))


def equal_span(B1: RatMat, B2: RatMat) -> bool:
    return contains_span(B1, B2) and contains_span(B2, B1)


def preimage_span(M: RatMat, B: RatMat) -> RatMat:
    """{x : M x in span(B)} as a column span."""
    rm, cm = shape(M)
    _, kb = shape(B)
    if kb == 0:
        return kernel(M)
    null = kernel(hstack(M, [[-x for x in row] for row in B]))
    top = [row[:] for row in null[:cm]] if null else zeros(cm, 0)
    return colspace(top)


def image_span(M: RatMat, B: RatMat) -> RatMat:
    return colspace(matmul(M, B))


def invariant_hull_smallest(A: RatMat, B: RatMat) -> RatMat:
    n, _ = shape(A)
    current = colspace(B)
    for _ in range(n + 1):
        grown = sum_spans(current, image_span(A, current))
        if shape(grown)[1] == shape(current)[1]:
            return current
        current = grown
    return current


def lifted_span(S: RatMat, extra: int) -> RatMat:
    """Columns [S 0; 0 I] spanning span(S) x Q^extra."""
    n, k = shape(S)
    return vstack(hstack(S, zeros(n, extra)), hstack(zeros(extra, k), eye(extra)))


def vstar_span(A: RatMat, B: RatMat, C: RatMat, D: RatMat) -> RatMat:
    """Largest output-nulling subspace, by the exact shrinking recursion.

    Same recursion as `geometry.vstar`: from V_0 = X it takes at most n
    strict steps (attained), from V_1 = C^{-1}(im D) at most n-1.
    """
    n = shape(A)[0]
    p = shape(C)[0]
    MT = vstack(A, C)
    BD = vstack(B, D)
    V = eye(n)
    for _ in range(n + 1):
        target = sum_spans(vstack(V, zeros(p, shape(V)[1])), BD)
        Vnext = preimage_span(MT, target)
        if shape(Vnext)[1] == shape(V)[1]:
            return V
        V = Vnext
    return V


def sstar_span(A: RatMat, B: RatMat, C: RatMat, D: RatMat) -> RatMat:
    """Smallest input-containing subspace, by the exact growing recursion.

    Same recursion as `geometry.sstar`: from S_0 = 0 it takes at most n
    strict steps (attained), from S_1 = B ker D at most n-1.
    """
    n = shape(A)[0]
    m = shape(B)[1]
    AB = hstack(A, B)
    CD = hstack(C, D)
    ker_cd = kernel(CD) if shape(CD)[0] else None
    S = zeros(n, 0)
    for _ in range(n + 1):
        lifted = lifted_span(S, m)
        inter = lifted if ker_cd is None else intersect_spans(lifted, ker_cd)
        # The recursion is non-decreasing, so S_k lies in S_{k+1} already.
        Snext = image_span(AB, inter)
        if shape(Snext)[1] == shape(S)[1]:
            return S
        S = Snext
    return S


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
    sign = 1
    prev = 1
    for col in range(n):
        pivot = next((i for i in range(col, n) if rows[i][col]), None)
        if pivot is None:
            return Fraction(0)
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
    return Fraction(sign * prev, dens)


def solve_affine(A: RatMat, b: list):
    """All solutions of A x = b: (particular, nullspace columns) or None."""
    ncols = shape(A)[1]
    aug = [row[:] + [fr(v)] for row, v in zip(A, b)]
    R, pivots = rref(aug)
    if ncols in pivots:
        return None
    x0 = [Fraction(0)] * ncols
    for r, pc in enumerate(pivots):
        x0[pc] = R[r][ncols]
    # The first ncols columns of the RREF of [A b] are the RREF of A.
    return x0, _rref_kernel(R, pivots, ncols)


def clear_denominators(B: RatMat) -> RatMat:
    """Scale each column to the smallest integer entries with the same span."""
    n, k = shape(B)
    out = zeros(n, k)
    for j, col in enumerate(transpose(B)):
        for i, x in enumerate(_primitive(_cleared(col)[0])):
            out[i][j] = Fraction(x)
    return out


class ExactAffineFamily:
    """Affine set {K0 + sum theta_i K_i} with exact rational entries."""

    def __init__(self, K0: RatMat, directions: list[RatMat]):
        self.K0 = K0
        self.directions = directions

    def member(self, thetas) -> RatMat:
        K = [row[:] for row in self.K0]
        for th, D in zip(thetas, self.directions):
            K = madd(K, scale(D, fr(th)))
        return K


def affine_k_family(Atil: RatMat, Btil: RatMat, Ctil: RatMat,
                    Tb: RatMat, N: RatMat):
    """Exact solution set of N (Atil + Btil K Ctil) Tb = 0 in K.

    N spans the left annihilator of the target subspace; Tb spans the
    constrained domain. Returns ExactAffineFamily or None when infeasible.
    """
    m = shape(Btil)[1]
    p = shape(Ctil)[0]
    a = shape(N)[0]
    t = shape(Tb)[1]
    if a == 0 or t == 0:
        # no constraint rows: every K works
        dirs = []
        for be in range(p):
            for al in range(m):
                D = zeros(m, p)
                D[al][be] = Fraction(1)
                dirs.append(D)
        return ExactAffineFamily(zeros(m, p), dirs)
    Y = matmul(N, Btil)               # a x m
    X = matmul(Ctil, Tb)              # p x t
    Rm = matmul(matmul(N, Atil), Tb)  # a x t
    if m * p == 0:
        if any(x != 0 for row in Rm for x in row):
            return None
        return ExactAffineFamily(zeros(m, p), [])
    # Row (i, j) of the operator: sum_ab Y[i,a] K[a,b] X[b,j] = -Rm[i,j]
    rows = []
    rhs = []
    for j in range(t):
        for i in range(a):
            row = [Fraction(0)] * (m * p)
            for al in range(m):
                if Y[i][al] == 0:
                    continue
                for be in range(p):
                    row[al + m * be] = Y[i][al] * X[be][j]
            rows.append(row)
            rhs.append(-Rm[i][j])
    sol = solve_affine(rows, rhs)
    if sol is None:
        return None
    x0, nullb = sol
    K0 = [[x0[al + m * be] for be in range(p)] for al in range(m)]
    _, nd = shape(nullb)
    dirs = [[[nullb[al + m * be][k] for be in range(p)] for al in range(m)]
            for k in range(nd)]
    return ExactAffineFamily(K0, dirs)


def grid_points(count: int) -> list[Fraction]:
    """0, 1, -1, 2, -2, ... as exact rationals."""
    pts = [Fraction(0)]
    step = 1
    while len(pts) < count:
        pts.append(Fraction(step))
        if len(pts) < count:
            pts.append(Fraction(-step))
        step += 1
    return pts[:count]


def det_grid_scan(family: ExactAffineFamily, Dy: RatMat,
                  points_per_var: int):
    """Scan det(I + K Dy) over a rational grid of the affine family.

    Returns a theta tuple where the determinant is nonzero, or None when it
    vanishes at every grid point. With points_per_var exceeding the
    per-variable degree of the determinant polynomial, an all-zero grid
    proves the determinant vanishes identically on the affine set.
    """
    m = shape(family.K0)[0]
    ndirs = len(family.directions)
    pts = grid_points(points_per_var)
    idx = [0] * ndirs

    while True:
        theta = [pts[i] for i in idx]
        K = family.member(theta)
        M = madd(eye(m), matmul(K, Dy))
        if det(M) != 0:
            return theta
        pos = 0
        while pos < ndirs:
            idx[pos] += 1
            if idx[pos] < points_per_var:
                break
            idx[pos] = 0
            pos += 1
        if ndirs == 0 or pos == ndirs:
            return None
