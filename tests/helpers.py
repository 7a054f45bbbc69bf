"""Shared utilities for the test suite."""

from fractions import Fraction

import numpy as np
import scipy
from scipy.linalg import solve_continuous_are, solve_discrete_are

from geodd import Quadruple, Subspace, exact
from geodd.errors import SampleTooCloseToPole
from geodd.geometry import SKIP_GUARD, _controllable_split
from geodd.subspaces import (
    combine,
    complement,
    containment_residual,
    invariant_hull,
    kernel_of,
    lifted_basis,
    preimage,
    span_of,
)
from geodd.verify import POLE_CLEARANCE


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


def lapack_builds() -> str:
    """numpy's and scipy's versions and the BLAS/LAPACK builds they link.

    The failure message of every byte-parity assertion: geodd's kernels call
    scipy's LAPACK directly and are compared with numpy's and scipy's own
    wrappers, so their bits agree only where those builds round alike, and
    a last-bit failure should name the builds involved.
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


def quad_to_exact(q: Quadruple):
    return (exact.from_array(q.A), exact.from_array(q.B),
            exact.from_array(q.C), exact.from_array(q.D))


def rational_as_subspace(B_rat, ambient: int) -> Subspace:
    arr = exact.to_array(B_rat)
    if arr.size == 0:
        arr = np.zeros((ambient, 0))
    return span_of(arr)


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
        V = exact.preimage_span(MT, exact.sum_spans(below(V, p), BD))
        vdims.append(exact.shape(V)[1])
        if vdims[-1] == vdims[-2]:
            break
    for _ in range(n + 1):
        lifted = exact.hstack(below(S, m), inputs)
        S = exact.image_span(AB, exact.intersect_spans(lifted, ker_cd))
        sdims.append(exact.shape(S)[1])
        if sdims[-1] == sdims[-2]:
            break
    return vdims, sdims


def scipy_state_feedback(A, B, region, tol):
    """`geometry._place_state_feedback` as it was on scipy's Riccati solvers,
    the reference that the lean kernel `geometry._riccati` must reproduce
    bit for bit."""
    k = A.shape[0]
    if k == 0:
        return np.zeros((B.shape[1], 0)), np.zeros(0, dtype=complex)
    T1, fixed = _controllable_split(A, B, tol)
    kc = T1.shape[1]
    if kc == 0:
        return np.zeros((B.shape[1], k)), fixed
    Ac = T1.T @ A @ T1
    if all(region.boundary_distance(l) > SKIP_GUARD for l in np.linalg.eigvals(Ac)):
        return np.zeros((B.shape[1], k)), fixed
    Bc = T1.T @ B
    Q, R = np.eye(kc), np.eye(B.shape[1])
    if region.kind == "continuous":
        P = solve_continuous_are(Ac + (1.0 + region.margin) * np.eye(kc), Bc, Q, R)
        gain = -Bc.T @ P
    else:
        rho = (1.0 - region.margin) / 2.0
        As = Ac / rho
        P = solve_discrete_are(As, Bc, Q, R)
        gain = -rho * np.linalg.solve(R + Bc.T @ P @ Bc, Bc.T @ P @ As)
    return gain @ T1.T, fixed


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
