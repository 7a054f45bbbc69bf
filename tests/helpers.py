"""Shared utilities for the test suite."""

from fractions import Fraction

import numpy as np
import scipy
from scipy.optimize import linear_sum_assignment

from geodd import PlantSystem, Quadruple, Subspace, exact
from geodd.errors import SampleTooCloseToPole
from geodd.geometry import (
    INPUT_CONTAINING,
    KEEP_MARGIN,
    OUTPUT_NULLING,
    SHIFT,
    stabilizing_friend,
)
from geodd.subspaces import (
    DEFAULT_TOL,
    _numerical_rank,
    combine,
    complement,
    containment_residual,
    invariant_hull,
    kernel_of,
    lifted_basis,
    preimage,
    span_of,
)
from geodd.synthesis import DELTA_WP, SAMPLE_TRIALS, synthesize, wellposedness_margin
from geodd.verify import POLE_CLEARANCE


# The Fraction interface of `geodd.exact` that only the tests call: the
# spans run on its integer kernels, as `vstar_span` and `sstar_span` do.

def mat(rows) -> list:
    return [[exact.fr(x) for x in row] for row in rows]


def equal_span(B1, B2) -> bool:
    return exact.contains_span(B1, B2) and exact.contains_span(B2, B1)


def preimage_span(M, B) -> list:
    """{x : M x in span(B)} as a column span."""
    cm = exact.shape(M)[1]
    (Mi,), _ = exact._scaled(M)
    return exact._span(exact._preimage(Mi, exact._columns(B), cm), cm)


def image_span(M, B) -> list:
    (Mi,), _ = exact._scaled(M)
    return exact._span(exact._image(Mi, exact._columns(B)), exact.shape(M)[0])


def grid_points(count: int) -> list:
    """0, 1, -1, 2, -2, ... as exact rationals."""
    return [Fraction(x) for x in exact._grid(count)]


def count_calls(monkeypatch, name, *modules) -> list:
    """Count the calls to the function `name` made through `modules`.

    Wraps the function at each module's binding and returns the list that
    receives the positional arguments of every call. geodd's modules import
    functions by name (`from .geometry import friend`), so a call is seen
    only through the module that makes it: pass every module whose calls
    are to count. Each module must bind the same function.
    """
    original = getattr(modules[0], name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module in modules:
        if getattr(module, name) is not original:
            raise AssertionError(f"{module.__name__}.{name} is another function")
        monkeypatch.setattr(module, name, counted)
    return calls


def match_spectra(left, right, tol_match: float = 1e-6) -> bool:
    """Multiset equality of two spectra under optimal assignment."""
    left = np.sort_complex(np.asarray(left, dtype=complex))
    right = np.sort_complex(np.asarray(right, dtype=complex))
    if left.shape != right.shape:
        return False
    if left.size == 0:
        return True
    cost = np.abs(left[:, None] - right[None, :])
    rows, cols = linear_sum_assignment(cost)
    return bool(cost[rows, cols].max() <= tol_match)


def stabilized_compensator(sys, V, S, K):
    """`synthesize` on stabilizing friends of V and S built anew:
    the compensator `solve(sys, "p2")` must return on its pair and K."""
    F = stabilizing_friend(V, OUTPUT_NULLING, sys.control_quadruple(), sys.region).F_or_G
    G = stabilizing_friend(S, INPUT_CONTAINING, sys.observation_quadruple(),
                           sys.region).F_or_G
    return synthesize(sys, K, F, G)


def lapack_builds() -> str:
    """numpy's and scipy's versions and the BLAS/LAPACK builds they link.

    The failure message of every byte-parity assertion: geodd's kernels
    are compared with numpy's own wrappers, and the dgesdd kernel calls
    scipy's LAPACK, so its bits agree only where the two builds round
    alike, and a last-bit failure should name the builds involved.
    """
    parts = []
    for module in (np, scipy):
        deps = module.show_config(mode="dicts").get("Build Dependencies", {})
        libs = ", ".join(f"{kind} {deps.get(kind, {}).get('name')} "
                         f"{deps.get(kind, {}).get('version')}"
                         for kind in ("blas", "lapack"))
        parts.append(f"{module.__name__} {module.__version__} ({libs})")
    return "; ".join(parts)


def failing_dgesdd(a, *flags):
    """Stand-in for LAPACK dgesdd that reports a failed decomposition."""
    k = min(a.shape)
    return np.zeros((a.shape[0], k)), np.zeros(k), np.zeros((k, a.shape[1])), 1


def random_quadruple(rng, n=None, m=None, p=None, lo=-3, hi=3) -> Quadruple:
    n = n or int(rng.integers(2, 7))
    m = m or int(rng.integers(1, 4))
    p = p or int(rng.integers(1, 4))
    draw = lambda r, c: rng.integers(lo, hi + 1, size=(r, c)).astype(float)
    return Quadruple(draw(n, n), draw(n, m), draw(p, n), draw(p, m))


def lifted_obstruction(base: PlantSystem, k: int, time_domain: str, rng) -> PlantSystem:
    """`base` with a stable k-state block appended, in integer coordinates
    drawn from rng.

    The control input drives the block and the measurement sees it, but the
    disturbance does not reach it and the regulated output does not see it:
    V* gains the block, S* gains nothing, and the K family of the coupling
    inclusion is that of `base`, so an obstruction of `base` stays one. The
    similarity T is a permutation times unit row additions, so T and its
    inverse are integer matrices.
    """
    n = base.n + k
    if time_domain == "continuous":
        diag = -rng.integers(1, 3, size=k).astype(float)
    else:
        diag = rng.choice([-0.5, 0.5], size=k)
    A2 = np.diag(diag) + np.triu(rng.integers(-1, 2, size=(k, k)), 1)
    A = np.block([[base.A, np.zeros((base.n, k))], [np.zeros((k, base.n)), A2]])
    B = np.vstack([base.B, rng.integers(-1, 2, size=(k, base.m))])
    H = np.vstack([base.H, np.zeros((k, base.q))])
    C = np.hstack([base.C, rng.integers(-1, 2, size=(base.p, k))])
    E = np.hstack([base.E, np.zeros((base.r, k))])
    T = np.eye(n)[rng.permutation(n)]
    T_inv = T.T.copy()
    for _ in range(n):
        i, j = rng.choice(n, size=2, replace=False)
        c = float(rng.choice([-1, 1]))
        T[i] += c * T[j]
        T_inv[:, j] -= c * T_inv[:, i]
    return PlantSystem(T_inv @ A @ T, T_inv @ B, T_inv @ H, C @ T, base.D_y,
                       base.G_y, E @ T, base.D_z, base.G_z, time_domain=time_domain)


def quad_to_exact(q: Quadruple):
    return (exact.from_array(q.A), exact.from_array(q.B),
            exact.from_array(q.C), exact.from_array(q.D))


def rational_as_subspace(B_rat, ambient: int) -> Subspace:
    """The float Subspace spanned by the columns of an exact basis. The
    columns are made orthogonal by Gram-Schmidt in exact arithmetic and only
    then rounded and normalized, so a basis that is ill-conditioned as
    floats keeps its dimension."""
    rows, cols = exact.shape(B_rat)
    orthogonal = []
    for j in range(cols):
        v = [B_rat[i][j] for i in range(rows)]
        for q, qq in orthogonal:
            c = sum(a * b for a, b in zip(v, q)) / qq
            v = [a - c * b for a, b in zip(v, q)]
        orthogonal.append((v, sum(a * a for a in v)))
    basis = np.zeros((ambient, cols))
    for j, (q, _) in enumerate(orthogonal):
        # scaled exactly into [-1, 1] first, so that no entry overflows
        top = max(abs(x) for x in q)
        column = np.array([float(x / top) for x in q])
        basis[:, j] = column / np.linalg.norm(column)
    return Subspace(ambient, basis)


def max_angle(S1: Subspace, S2: Subspace) -> float:
    """sin of the largest principal angle between two subspaces; large when
    the dimensions differ."""
    if S1.dim != S2.dim:
        return 1.0
    return max(containment_residual(S1, S2), containment_residual(S2, S1))


def exact_star_dims(q: Quadruple):
    """Dimension sequences of the V* and S* recursions in exact arithmetic.

    Replays the recursions of `geometry.vstar`/`geometry.sstar` over the
    rationals, with the same indexing and stopping rule:
    V_0 = X, V_{k+1} = [A; C]^{-1}(V_k x 0 + im [B; D]) and
    S_0 = 0, S_{k+1} = [A B]((S_k x U) ^ ker [C D]); each list ends with the
    first dimension that repeats.
    """
    A, B, C, D = quad_to_exact(q)
    n, m, p = q.n, q.m, q.p
    MT, BD, AB = exact.vstack(A, C), exact.vstack(B, D), exact.hstack(A, B)
    ker_cd = exact.kernel(exact.hstack(C, D))
    inputs = exact.vstack(exact.zeros(n, m), exact.eye(m))

    def below(basis, rows):
        return exact.vstack(basis, exact.zeros(rows, exact.shape(basis)[1]))

    V, S = exact.eye(n), exact.zeros(n, 0)
    vdims, sdims = [n], [0]
    for _ in range(n + 1):
        V = preimage_span(MT, exact.sum_spans(below(V, p), BD))
        vdims.append(exact.shape(V)[1])
        if vdims[-1] == vdims[-2]:
            break
    for _ in range(n + 1):
        lifted = exact.hstack(below(S, m), inputs)
        S = image_span(AB, exact.intersect_spans(lifted, ker_cd))
        sdims.append(exact.shape(S)[1])
        if sdims[-1] == sdims[-2]:
            break
    return vdims, sdims


# Primal formulas of the input-containing objects. geodd computes each of
# them as the complement of its output-nulling twin on the dual quadruple
# (A^T, C^T, B^T, D^T); these spell them out on (A, B, C, D) itself.

def primal_injection_residual(G, S: Subspace, q: Quadruple) -> float:
    """||(I - P_S) [(A + GC) S, B + GD]||: zero iff G is an injection
    friend of S."""
    P = np.eye(q.n) - S.projector()
    blocks = [P @ (q.B + G @ q.D)]
    if not S.is_trivial:
        blocks.insert(0, P @ (q.A + G @ q.C) @ S.basis)
    return float(np.linalg.norm(np.hstack(blocks), 2))


def primal_sstar_sequence(q: Quadruple) -> list:
    """S_0 = 0 and S_{k+1} = [A B]((S_k x U) ^ ker [C D]), up to the first
    iterate whose dimension repeats."""
    AB = np.hstack([q.A, q.B])
    ker_cd = kernel_of(np.hstack([q.C, q.D]))
    seq = [Subspace.trivial(q.n)]
    for _ in range(q.n + 1):
        dom = combine("intersect", span_of(lifted_basis(seq[-1], q.m)), ker_cd)
        seq.append(span_of(AB @ dom.basis, scale=np.linalg.norm(AB, 2)))
        if seq[-1].dim == seq[-2].dim:
            break
    return seq


def primal_detectability(G, S: Subspace, q: Quadruple) -> Subspace:
    """The largest (A + GC)-invariant subspace in S + C^{-1} im D."""
    ceiling = combine("sum", S, preimage(q.C, span_of(q.D)))
    return invariant_hull("largest_contained", q.A + G @ q.C, ceiling)


def primal_fixed_spectra(G, S: Subspace, q: Quadruple):
    """(internal, external, assignable dims) of an injection friend G of S:
    the spectra of A + GC on S ^ (unobservable subspace of (C, A + GC)) and
    on Q_S / S, Q_S the detectability subspace of S."""
    Acl = q.A + G @ q.C

    def spectrum(T):
        return np.linalg.eigvals(T.T @ Acl @ T) if T.shape[1] else np.zeros(0)

    unobs = invariant_hull("largest_contained", Acl, kernel_of(q.C))
    SQ = combine("intersect", S, unobs)
    QS = primal_detectability(G, S, q)
    # orthonormal columns extending S to Q_S
    T3 = combine("intersect", QS, complement(S))
    return spectrum(SQ.basis), spectrum(T3.basis), (S.dim - SQ.dim, q.n - QS.dim)


def reference_spectral_report(V_or_S: Subspace, kind: str, q: Quadruple, F_or_G):
    """(internal, external, assignable dims) of `geometry.spectral_report`
    by full-space hulls, the route geodd took before it read both parts
    from controllable splits in adapted coordinates: on the output-nulling
    twin V with friend F, the reachability subspace R_V is the smallest
    (A + BF)-invariant subspace containing V ^ B ker D, the internal
    spectrum is the one on V / R_V and the external one on
    X / (V + reach(A, B)). An input-containing subspace is read through its
    twin on the dual quadruple, with the two parts swapped."""
    if kind == OUTPUT_NULLING:
        V, qv, F = V_or_S, q, F_or_G
    else:
        V, qv, F = complement(V_or_S), q.dual(), F_or_G.T
    Acl = qv.A + qv.B @ F

    def spectrum(T):
        return np.linalg.eigvals(T.T @ Acl @ T) if T.shape[1] else np.zeros(0)

    seed = combine("intersect", V, image_under(qv.B, kernel_of(qv.D)))
    RV = invariant_hull("smallest_containing", Acl, seed)
    VR = combine("sum", V, invariant_hull("smallest_containing", qv.A, span_of(qv.B)))
    internal = spectrum(combine("intersect", V, complement(RV)).basis)
    external = spectrum(complement(VR).basis)
    dims = (RV.dim, VR.dim - V.dim)
    if kind == OUTPUT_NULLING:
        return internal, external, dims
    return external, internal, dims[::-1]


def image_under(M, S: Subspace, tol=DEFAULT_TOL) -> Subspace:
    """M S = span of M applied to a basis of S."""
    M = np.atleast_2d(np.asarray(M, dtype=float))
    assert M.shape[1] == S.ambient_dim, "matrix/subspace shape mismatch in image"
    return span_of(M @ S.basis, tol, scale=np.linalg.norm(M, 2))


def embed(S: Subspace, total_dim: int) -> Subspace:
    """S viewed inside R^total_dim, in its leading coordinates."""
    assert S.ambient_dim <= total_dim, "embedded block does not fit"
    b = np.zeros((total_dim, S.dim))
    b[:S.ambient_dim, :] = S.basis
    return Subspace(total_dim, b)


def principal_angles(S1: Subspace, S2: Subspace) -> np.ndarray:
    """Principal angles (radians, ascending), sine-based for small angles."""
    assert S1.ambient_dim == S2.ambient_dim
    if min(S1.dim, S2.dim) == 0:
        return np.zeros(0)
    cosines = np.clip(np.linalg.svd(S1.basis.T @ S2.basis, compute_uv=False), 0, 1)
    angles = np.arccos(cosines)
    # Refine the small angles (cosine resolution bottoms out near sqrt(eps)).
    small = cosines > 0.5
    if small.any():
        inner, outer = (S1, S2) if S1.dim <= S2.dim else (S2, S1)
        resid = inner.basis - outer.basis @ (outer.basis.T @ inner.basis)
        sines = np.sort(np.clip(np.linalg.svd(resid, compute_uv=False), 0, 1))
        angles[small] = np.arcsin(sines[small])
    return np.sort(angles)


def reference_rref(M):
    """Gauss-Jordan elimination on Fraction entries, the reference that the
    integer kernel of `exact.rref` must reproduce entry for entry."""
    R = [row[:] for row in M]
    nrows, ncols = exact.shape(R)
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if R[i][c] != 0), None)
        if pivot is None:
            continue
        R[r], R[pivot] = R[pivot], R[r]
        pv = R[r][c]
        R[r] = [x / pv for x in R[r]]
        for i in range(nrows):
            if i != r and R[i][c] != 0:
                f = R[i][c]
                R[i] = [x - f * y for x, y in zip(R[i], R[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return R, pivots


def reference_det(M):
    """Determinant by Gaussian elimination on Fraction entries."""
    n = len(M)
    R = [row[:] for row in M]
    out = Fraction(1)
    for col in range(n):
        pivot = next((i for i in range(col, n) if R[i][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            R[col], R[pivot] = R[pivot], R[col]
            out = -out
        pv = R[col][col]
        out *= pv
        for i in range(col + 1, n):
            if R[i][col] != 0:
                f = R[i][col] / pv
                R[i] = [x - f * y for x, y in zip(R[i], R[col])]
    return out


def reference_matmul(A, B):
    """Matrix product entry by entry on Fractions."""
    ra, ca = exact.shape(A)
    cb = exact.shape(B)[1]
    out = exact.zeros(ra, cb)
    for i in range(ra):
        for k in range(ca):
            if A[i][k] != 0:
                for j in range(cb):
                    out[i][j] += A[i][k] * B[k][j]
    return out


def reference_kernel(M):
    """The RREF basis of the null space of M, on Fractions."""
    ncols = exact.shape(M)[1]
    R, pivots = reference_rref(M)
    free = [c for c in range(ncols) if c not in pivots]
    basis = exact.zeros(ncols, len(free))
    for k, fc in enumerate(free):
        basis[fc][k] = Fraction(1)
        for r, pc in enumerate(pivots):
            basis[pc][k] = -R[r][fc]
    return basis


def reference_colspace(M):
    """The columns of M at the pivots of its RREF."""
    nrows, ncols = exact.shape(M)
    if ncols == 0:
        return exact.zeros(nrows, 0)
    pivots = reference_rref(M)[1]
    return [[M[i][c] for c in pivots] for i in range(nrows)]


def _negated(M):
    return [[-x for x in row] for row in M]


def reference_intersect_spans(B1, B2):
    """`exact.intersect_spans` as it was on Fraction matrices: solve
    B1 c1 = B2 c2 and keep the independent columns of B1 c1."""
    n, k1 = exact.shape(B1)
    if k1 == 0 or exact.shape(B2)[1] == 0:
        return exact.zeros(n, 0)
    null = reference_kernel(exact.hstack(B1, _negated(B2)))
    c1 = [row[:] for row in null[:k1]] if null else exact.zeros(k1, 0)
    return reference_colspace(reference_matmul(B1, c1))


def reference_preimage_span(M, B):
    """`exact.preimage_span` as it was on Fraction matrices."""
    cm = exact.shape(M)[1]
    if exact.shape(B)[1] == 0:
        return reference_kernel(M)
    null = reference_kernel(exact.hstack(M, _negated(B)))
    top = [row[:] for row in null[:cm]] if null else exact.zeros(cm, 0)
    return reference_colspace(top)


def reference_vstar_span(A, B, C, D):
    """`exact.vstar_span` as it was on Fraction matrices."""
    n, p = exact.shape(A)[0], exact.shape(C)[0]
    MT, BD = exact.vstack(A, C), exact.vstack(B, D)
    V = exact.eye(n)
    for _ in range(n + 1):
        target = reference_colspace(exact.hstack(
            exact.vstack(V, exact.zeros(p, exact.shape(V)[1])), BD))
        Vnext = reference_preimage_span(MT, target)
        if exact.shape(Vnext)[1] == exact.shape(V)[1]:
            return V
        V = Vnext
    return V


def reference_sstar_span(A, B, C, D):
    """`exact.sstar_span` as it was on Fraction matrices."""
    n, m = exact.shape(A)[0], exact.shape(B)[1]
    AB, CD = exact.hstack(A, B), exact.hstack(C, D)
    ker_cd = reference_kernel(CD) if exact.shape(CD)[0] else None
    S = exact.zeros(n, 0)
    for _ in range(n + 1):
        lifted = exact.lifted_span(S, m)
        inter = lifted if ker_cd is None else reference_intersect_spans(lifted, ker_cd)
        Snext = reference_colspace(reference_matmul(AB, inter))
        if exact.shape(Snext)[1] == exact.shape(S)[1]:
            return S
        S = Snext
    return S


def reference_affine_k_family(Atil, Btil, Ctil, Tb, N):
    """`exact.affine_k_family` as it was on Fraction matrices: (K0,
    directions), or None when the coupling system has no solution."""
    m, p = exact.shape(Btil)[1], exact.shape(Ctil)[0]
    a, t = exact.shape(N)[0], exact.shape(Tb)[1]
    if a == 0 or t == 0:
        dirs = []
        for be in range(p):
            for al in range(m):
                D = exact.zeros(m, p)
                D[al][be] = Fraction(1)
                dirs.append(D)
        return exact.zeros(m, p), dirs
    Y = reference_matmul(N, Btil)
    X = reference_matmul(Ctil, Tb)
    Rm = reference_matmul(reference_matmul(N, Atil), Tb)
    if m * p == 0:
        if any(x != 0 for row in Rm for x in row):
            return None
        return exact.zeros(m, p), []
    aug = []
    for j in range(t):
        for i in range(a):
            row = [Fraction(0)] * (m * p)
            for al in range(m):
                for be in range(p):
                    row[al + m * be] = Y[i][al] * X[be][j]
            aug.append(row + [-Rm[i][j]])
    R, pivots = reference_rref(aug)
    if m * p in pivots:
        return None
    x0 = [Fraction(0)] * (m * p)
    for r, pc in enumerate(pivots):
        x0[pc] = R[r][m * p]
    null = reference_kernel([row[:m * p] for row in R])
    K0 = [[x0[al + m * be] for be in range(p)] for al in range(m)]
    dirs = [[[null[al + m * be][k] for be in range(p)] for al in range(m)]
            for k in range(exact.shape(null)[1])]
    return K0, dirs


def reference_det_grid_scan(K0, directions, Dy, points_per_var):
    """`exact.det_grid_scan` as it was on Fraction matrices: the first
    grid point, in the same order, where det(I + K Dy) is nonzero."""
    m, ndirs = exact.shape(K0)[0], len(directions)
    pts = grid_points(points_per_var)
    idx = [0] * ndirs
    while True:
        theta = [pts[i] for i in idx]
        K = [row[:] for row in K0]
        for th, D in zip(theta, directions):
            K = [[k + th * d for k, d in zip(rk, rd)] for rk, rd in zip(K, D)]
        M = reference_matmul(K, Dy)
        for i in range(m):
            M[i][i] += 1
        if reference_det(M) != 0:
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


def reference_sampled_member(family, D_y):
    """The sampling loop of `synthesis.select_wellposed` one member at a
    time: K0, then K0 + P(E_ij) and K0 - P(E_ij) for each unit matrix E_ij
    in column-major order, then SAMPLE_TRIALS members K0 + P(Z_t) for
    Gaussian Z_t drawn one at a time from `default_rng(0)` and scaled by
    1 + ||K0||, each through `wellposedness_margin`.
    P is the orthogonal projector onto the span of the vectorised
    directions, and P(W) the sum of its columns weighted by the entries of
    W. Returns the first well-posed member, or None."""
    D_y = np.atleast_2d(np.asarray(D_y, dtype=float))
    K0 = family.K0
    m, p = K0.shape
    B = span_of(np.column_stack([np.zeros((m * p, 0))] + [
        D.flatten(order="F") for D in family.directions])).basis
    P = B @ B.T

    def member(w):
        step = np.zeros(m * p)
        for k in range(m * p):
            step = step + w[k] * P[:, k]
        return K0 + step.reshape((m, p), order="F")

    units = [sign * e for e in np.eye(m * p) for sign in (1.0, -1.0)]
    for K in [K0] + [member(w) for w in units]:
        if wellposedness_margin(K, D_y) >= DELTA_WP:
            return K
    rng = np.random.default_rng(0)
    scale = 1.0 + np.linalg.norm(K0)
    for _ in range(SAMPLE_TRIALS):
        K = member(rng.standard_normal(m * p) * scale)
        if wellposedness_margin(K, D_y) >= DELTA_WP:
            return K
    return None


def reference_transfer_samples(cl, lambdas) -> float:
    """The per-point loop that `verify.transfer_samples` batches: each point
    is checked for clearance of the spectrum, then solved and normed on its
    own. The batched version must return the same float and raise the same
    error for the same first offending point."""
    poles = np.linalg.eigvals(cl.A_hat)
    worst = 0.0
    n = cl.order
    for lam in lambdas:
        lam = complex(lam)
        if poles.size and np.min(np.abs(poles - lam)) < POLE_CLEARANCE:
            raise SampleTooCloseToPole(f"sample {lam} within 1e-6 of a pole")
        resolvent = np.linalg.solve(lam * np.eye(n) - cl.A_hat, cl.H_hat)
        G = cl.C_hat @ resolvent + cl.G_hat
        worst = max(worst, float(np.linalg.norm(G, 2)))
    return worst


def reference_default_lambdas(cl, count):
    """The closed form that `verify.default_lambdas` evaluates in one array,
    one point at a time: lambda_k = R exp(2 pi i (k + 0.3) / count) on the
    circle of radius R = 2 max(1, rho) around the loop's spectrum."""
    poles = cl.spectrum
    radius = 2.0 * max(1.0, float(np.max(np.abs(poles))) if poles.size else 1.0)
    return [radius * np.exp(1j * (2.0 * np.pi * (k + 0.3) / count)) for k in range(count)]


def random_lambdas(rng, cl, count):
    """`count` random complex points with radius uniform on [0.5 R, 1.5 R],
    R = 2 max(1, rho), and a uniform angle, each at least 1e-3 from every
    pole of `cl.spectrum`: varied points, inside the spectrum's reach too,
    for checking a sampler against its reference."""
    poles = cl.spectrum
    radius = 2.0 * max(1.0, float(np.max(np.abs(poles))) if poles.size else 1.0)
    points = []
    while len(points) < count:
        lam = rng.uniform(0.5 * radius, 1.5 * radius) * np.exp(2j * np.pi * rng.random())
        if not poles.size or np.min(np.abs(poles - lam)) >= 1e-3:
            points.append(lam)
    return points


def reference_stabilizing_gain(A, B, T1, region):
    """`geometry._stabilizing_gain` by scipy's public solvers: an ordered
    `scipy.linalg.schur` of the controllable block, then
    `solve_continuous_lyapunov` on T22 + SHIFT I, or
    `solve_discrete_lyapunov` on rho T22^-1 with rho = 1 - SHIFT. The
    kernel's continuous gains must equal these bit for bit (scipy's second
    Schur form of the already quasi-triangular T22 + SHIFT I is that matrix
    with Z = I); its discrete gains solve the same Stein equation another
    way, so they agree to roundoff."""
    kc = T1.shape[1]
    if kc == 0:
        return np.zeros((B.shape[1], A.shape[0]))
    T, Z, kept = scipy.linalg.schur(
        T1.T @ A @ T1, output="real",
        sort=lambda re, im: region.boundary_distance(complex(re, im)) > KEEP_MARGIN)
    if kept == kc:
        return np.zeros((B.shape[1], A.shape[0]))
    T22 = T[kept:, kept:]
    Q2 = T1 @ Z[:, kept:]
    B2 = Q2.T @ B
    if region.kind == "continuous":
        X = scipy.linalg.solve_continuous_lyapunov(T22 + SHIFT * np.eye(kc - kept),
                                                   B2 @ B2.T)
    else:
        T22_inv = np.linalg.inv(T22)
        B2 = T22_inv @ B2
        X = scipy.linalg.solve_discrete_lyapunov((1.0 - SHIFT) * T22_inv, B2 @ B2.T)
    return -np.linalg.solve(X, B2).T @ Q2.T


def reference_invariant_hull(A, S: Subspace, tol=DEFAULT_TOL) -> Subspace:
    """The growing loop that `subspaces.invariant_hull` replaced by the
    orthogonal staircase: one SVD of the augmented [basis, A basis] per
    step, cut against ||A||, until a step adds no dimension. The staircase
    must give the same dimension and, up to roundoff, the same subspace."""
    A = np.asarray(A, dtype=float)
    scale = max(1.0, float(np.linalg.norm(A, 2)))
    current = S
    for _ in range(S.ambient_dim + 1):
        grown = span_of(np.hstack([current.basis, A @ current.basis]), tol, scale=scale)
        if grown.dim == current.dim:
            return grown
        current = grown
    return current


def reference_controllable_split(A, B, tol=DEFAULT_TOL, scale: float = 0.0):
    """The hull and complement route that `geometry._controllable_split`
    replaced by one staircase: T1 grown from span_of(B) by the projected
    staircase (each step maps the newest block by A, projects the image off
    T1, cuts its SVD against max(1, ||A||) and projects the kept block off
    T1 once more), then T2 = complement(T1) by one more SVD, and the
    spectrum A induces on T2."""
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    hull_scale = max(1.0, float(np.linalg.norm(A, 2))) if n else 1.0
    Q = Z = span_of(B, tol, scale).basis
    while 0 < Q.shape[1] < n:
        Y = A @ Z
        Y -= Q @ (Q.T @ Y)
        U, s, _ = np.linalg.svd(Y, full_matrices=False)
        r = _numerical_rank(s, (n, n), tol.rank_rel, hull_scale)
        if r == 0:
            break
        Z = U[:, :r] - Q @ (Q.T @ U[:, :r])
        Q = np.concatenate((Q, Z), axis=1)
    T2 = complement(Subspace(n, Q), tol).basis
    fixed = np.linalg.eigvals(T2.T @ A @ T2) if T2.shape[1] else np.zeros(0, complex)
    return Q, T2, fixed


def reference_combine(mode: str, S1: Subspace, S2: Subspace, tol=DEFAULT_TOL) -> Subspace:
    """The SVD route `subspaces.combine` takes for every pair of operands,
    a full or trivial one included: the span of both bases for a sum, and
    B1 ker((I - P2) B1) for an intersection."""
    if mode == "sum":
        return span_of(np.hstack([S1.basis, S2.basis]), tol)
    B1, B2 = S1.basis, S2.basis
    return Subspace(S1.ambient_dim, B1 @ kernel_of(B1 - B2 @ (B2.T @ B1), tol, scale=1.0).basis)


def reference_vstar(q: Quadruple, tol=DEFAULT_TOL) -> list:
    """The preimage form of the V* recursion that `geometry.vstar` replaced
    by the complement recursion: V_0 = X and V_{k+1} the preimage under
    [A; C] of the span of (V_k x 0) and im [B; D], one SVD of that span and
    one of the projected [A; C] per step, up to the first iterate whose
    dimension repeats. The complement recursion must give the same
    dimension at every step and, up to roundoff, the same subspaces."""
    MT = np.vstack([q.A, q.C])
    BD = span_of(np.vstack([q.B, q.D]), tol)
    seq = [Subspace.full(q.n)]
    for _ in range(q.n + 1):
        target = combine("sum", embed(seq[-1], q.n + q.p), BD, tol)
        seq.append(preimage(MT, target, tol))
        if seq[-1].dim == seq[-2].dim:
            break
    return seq


def reference_nulling_residual(V: Subspace, q: Quadruple, N, tol=DEFAULT_TOL) -> float:
    """The target form of the output-nulling residual that
    `geometry._nulling_system` replaced: the distance of the columns of the
    stacked map N from an orthonormal basis of the span of (V x 0) and
    im [B; D], built by two span SVDs."""
    N = np.asarray(N, dtype=float)
    if N.shape[1] == 0:
        return 0.0
    target = combine("sum", embed(V, q.n + q.p), span_of(np.vstack([q.B, q.D]), tol), tol)
    return float(np.linalg.norm(N - target.basis @ (target.basis.T @ N), 2))


def reference_friend(V: Subspace, q: Quadruple) -> np.ndarray:
    """The joint least-squares friend that `geometry.friend` replaced:
    [A; C] v = [V; 0] x + [B; D] w solved for every basis vector v of V at
    once by np.linalg.lstsq, and F = -W V^T for the stacked w's W."""
    if V.is_trivial:
        return np.zeros((q.m, q.n))
    Vb = V.basis
    sys_mat = np.hstack([np.vstack([Vb, np.zeros((q.p, V.dim))]), np.vstack([q.B, q.D])])
    sol = np.linalg.lstsq(sys_mat, np.vstack([q.A, q.C]) @ Vb, rcond=None)[0]
    return -sol[V.dim:] @ Vb.T


def reference_kernel_condition(sys, S: Subspace, tol=DEFAULT_TOL) -> float:
    """The intersection form of coupling condition (b) that
    `lattice.disturbance_kernel_condition` replaced: the absolute norm of
    [E G_z] on an orthonormal basis of (S x W) ^ ker [C G_y]."""
    dom = combine("intersect", Subspace(sys.n + sys.q, lifted_basis(S, sys.q)),
                  kernel_of(np.hstack([sys.C, sys.G_y]), tol), tol)
    if dom.is_trivial:
        return 0.0
    return float(np.linalg.norm(np.hstack([sys.E, sys.G_z]) @ dom.basis, 2))
