"""Geometric machinery for a quadruple (A, B, C, D).

Supremal output-nulling and infimal input-containing subspaces, their
friends, reachability/detectability subspaces, fixed spectra, invariant
zeros, stabilizability variants, and the self-bounded/self-hidden
predicates.

There is one engine, the output-nulling one. S is input containing for
(A, B, C, D) exactly when S^perp is output nulling for the dual quadruple
(A^T, C^T, B^T, D^T) (Basile & Marro 1992), so every input-containing
object (S*, its residual, injection friends, detectability subspaces and
their fixed spectra, the self-hidden test, S*_g) is the complement of its
output-nulling twin on `q.dual()`. `exact.sstar_span` keeps the primal
recursion, as the independent oracle that S* is checked against.

Stabilizing friends take shifted Riccati gains, solved by one private
kernel, `_riccati`: scipy 1.17.1's CARE/DARE algorithm step for step on
direct calls to scipy's LAPACK wrappers, which on these small pencils cost
less than scipy's own wrapping. Its solutions are scipy's bit for bit; a
scipy release that changes the algorithm breaks that parity, and its tests
say so.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgWarning
from scipy.linalg.lapack import (
    dgebal,
    dgeqrf,
    dgeqrf_lwork,
    dgetrf,
    dgges,
    dorgqr,
    dtgsen,
    dtrtrs,
)

from .errors import (
    DimensionMismatch,
    FixedSpectrumOutsideRegion,
    InvalidInput,
    NotInvariant,
    NotStabilizablePair,
)
from .subspaces import (
    DEFAULT_TOL,
    StabilityRegion,
    Subspace,
    ToleranceProfile,
    _norm2,
    _preimage,
    _singular_values,
    combine,
    complement,
    contains,
    embed,
    image_under,
    invariant_hull,
    kernel_of,
    modal_subspace,
    span_of,
)

OUTPUT_NULLING = "output_nulling"
INPUT_CONTAINING = "input_containing"

# Numerical guard against eigenvalues hugging the region boundary: fixed
# spectra this close are treated as violating, and the stabilizing gain is
# not skipped for blocks this close to instability.
REGION_GUARD = 1e-8
SKIP_GUARD = 1e-6


@dataclass(frozen=True)
class Quadruple:
    """State-space quadruple with direct feedthrough."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray

    def __post_init__(self):
        A = np.atleast_2d(np.asarray(self.A, dtype=float))
        B = np.atleast_2d(np.asarray(self.B, dtype=float))
        C = np.atleast_2d(np.asarray(self.C, dtype=float))
        D = np.atleast_2d(np.asarray(self.D, dtype=float))
        n = A.shape[0]
        if A.shape != (n, n):
            raise DimensionMismatch("A must be square")
        if B.shape[0] != n:
            raise DimensionMismatch("B row count must match A")
        if C.shape[1] != n:
            raise DimensionMismatch("C column count must match A")
        if D.shape != (C.shape[0], B.shape[1]):
            raise DimensionMismatch("D must be p x m")
        for name, M in (("A", A), ("B", B), ("C", C), ("D", D)):
            if M.size and not np.isfinite(M).all():
                raise InvalidInput(f"{name} contains non-finite entries")
        for name, M in (("A", A), ("B", B), ("C", C), ("D", D)):
            object.__setattr__(self, name, M)

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]

    @property
    def p(self) -> int:
        return self.C.shape[0]

    def dual(self) -> "Quadruple":
        return Quadruple(self.A.T, self.C.T, self.B.T, self.D.T)


@dataclass(frozen=True)
class FriendCertificate:
    """A feedback (m x n) or injection (n x p) matrix together with the
    residual of the invariance relation it witnesses."""

    F_or_G: np.ndarray
    kind: str
    residual: float

    @property
    def matrix(self) -> np.ndarray:
        return self.F_or_G


@dataclass(frozen=True)
class SpectralReport:
    """Fixed and assignable spectra attached to an invariant subspace."""

    internal_fixed: tuple
    external_fixed: tuple
    assignable_dims: tuple


def _stacked_output(q: Quadruple) -> np.ndarray:
    return np.vstack([q.A, q.C])


def _bd(q: Quadruple) -> np.ndarray:
    return np.vstack([q.B, q.D])


def _nulling_target(V: Subspace, q: Quadruple, BD: Subspace,
                    tol: ToleranceProfile) -> Subspace:
    """(V x 0_Y) + BD, BD = im [B; D]: the target of the output-nulling step."""
    return combine("sum", embed(V, q.n + q.p), BD, tol)


def _nulling_twin(kind: str, X: Subspace, q: Quadruple, tol: ToleranceProfile,
                  what: str = "kind") -> tuple[Subspace, Quadruple]:
    """The output-nulling twin of X: (X, q) when X is of the output-nulling
    kind, (X^perp, q.dual()) when it is of the input-containing kind. X is
    input containing for q exactly when X^perp is output nulling for the
    dual, and a friend G of X is the transpose of a friend of X^perp."""
    if kind == OUTPUT_NULLING:
        return X, q
    if kind == INPUT_CONTAINING:
        return complement(X, tol), q.dual()
    raise InvalidInput(f"unknown {what} {kind!r}")


def _twin_matrix(kind: str, M: np.ndarray) -> np.ndarray:
    """The friend of X made from a friend of its twin, or the other way
    round: transposed for the input-containing kind."""
    return M if kind == OUTPUT_NULLING else M.T


def _require_nulling(kind: str, V: Subspace, qv: Quadruple,
                     tol: ToleranceProfile):
    """Raise NotInvariant unless the twin V of a `kind` subspace is output
    nulling for qv."""
    r = output_nulling_residual(V, qv, tol)
    if r > tol.residual:
        raise NotInvariant(f"subspace is not {kind.replace('_', ' ')}", residual=r)


def output_nulling_residual(V: Subspace, q: Quadruple,
                            tol: ToleranceProfile = DEFAULT_TOL) -> float:
    """Residual of [A; C] V <= (V + 0_Y) + im [B; D]; zero iff output nulling."""
    if V.is_trivial:
        return 0.0
    target = _nulling_target(V, q, span_of(_bd(q), tol), tol)
    mapped = _stacked_output(q) @ V.basis
    resid = mapped - target.basis @ (target.basis.T @ mapped)
    return _norm2(resid)


def input_containing_residual(S: Subspace, q: Quadruple,
                              tol: ToleranceProfile = DEFAULT_TOL) -> float:
    """Zero iff [A B] ((S + U) ^ ker [C D]) <= S: the output-nulling
    residual of S^perp in the dual quadruple."""
    return output_nulling_residual(complement(S, tol), q.dual(), tol)


def vstar(q: Quadruple, tol: ToleranceProfile = DEFAULT_TOL,
          return_sequence: bool = False):
    """Largest output-nulling subspace via the non-increasing recursion.

    V_0 = X and V_{k+1} = [A; C]^{-1}(V_k x 0 + im [B; D]). The fixpoint is
    reached after at most n strict steps counted from V_0, a bound that is
    attained, and at most n-1 counted from the first iterate
    V_1 = C^{-1}(im D). The returned sequence starts at V_0 and ends with
    the first iterate whose dimension repeats.
    """
    V = Subspace.full(q.n)
    seq = [V]
    MT = _stacked_output(q)
    MT_norm = _norm2(MT)
    BD = span_of(_bd(q), tol)
    for _ in range(q.n + 1):
        Vnext = _preimage(MT, _nulling_target(V, q, BD, tol), tol, MT_norm)
        seq.append(Vnext)
        if Vnext.dim == V.dim:
            break
        V = Vnext
    result = seq[-1]
    return (result, seq) if return_sequence else result


def sstar(q: Quadruple, tol: ToleranceProfile = DEFAULT_TOL,
          return_sequence: bool = False):
    """Smallest input-containing subspace: the complement of V* of the dual.

    Step by step, the complements of the dual V_k are the iterates of
    S_0 = 0 and S_{k+1} = [A B]((S_k x U) ^ ker [C D]). The fixpoint is
    reached after at most n strict steps counted from S_0, a bound that is
    attained, and at most n-1 counted from the first iterate S_1 = B ker D.
    The returned sequence starts at S_0 and ends with the first iterate
    whose dimension repeats.
    """
    if not return_sequence:
        return complement(vstar(q.dual(), tol), tol)
    seq = [complement(V, tol) for V in vstar(q.dual(), tol, True)[1]]
    return seq[-1], seq


def rstar_qstar(q: Quadruple, tol: ToleranceProfile = DEFAULT_TOL):
    """(R*, Q*) = (V* ^ S*, V* + S*)."""
    V = vstar(q, tol)
    S = sstar(q, tol)
    return combine("intersect", V, S, tol), combine("sum", V, S, tol)


def friend(kind: str, V_or_S: Subspace, q: Quadruple,
           tol: ToleranceProfile = DEFAULT_TOL) -> FriendCertificate:
    """Feedback F with [A+BF; C+DF] V <= V + 0, or the dual injection G.

    The friend is solved column-by-column over a basis of the subspace by
    least squares and extended by zero on the orthogonal complement. The
    injection G of S is F^T for the friend F of S^perp in the dual.
    """
    if V_or_S.ambient_dim != q.n:
        raise DimensionMismatch("subspace must live in the state space")
    V, qv = _nulling_twin(kind, V_or_S, q, tol, "friend kind")
    _require_nulling(kind, V, qv, tol)
    if V.is_trivial:
        return FriendCertificate(_twin_matrix(kind, np.zeros((qv.m, qv.n))), kind, 0.0)
    Vb = V.basis
    # [A; C] v = [V; 0] x + [B; D] w, one column per basis vector.
    sys_mat = np.hstack([np.vstack([Vb, np.zeros((qv.p, V.dim))]), _bd(qv)])
    rhs = _stacked_output(qv) @ Vb
    sol, *_ = np.linalg.lstsq(sys_mat, rhs, rcond=None)
    W = sol[V.dim :, :]
    F = -W @ Vb.T
    resid = friend_residual(F, V, qv)
    if resid > tol.residual:
        what = "friend" if kind == OUTPUT_NULLING else "injection friend"
        raise NotInvariant(f"no exact {what} found", residual=resid)
    return FriendCertificate(_twin_matrix(kind, F), kind, resid)


def friend_residual(F: np.ndarray, V: Subspace, q: Quadruple) -> float:
    """Norm of [A+BF; C+DF] V outside V + 0_Y."""
    if V.is_trivial:
        return 0.0
    top = (q.A + q.B @ F) @ V.basis
    bot = (q.C + q.D @ F) @ V.basis
    top_out = top - V.basis @ (V.basis.T @ top)
    return _norm2(np.vstack([top_out, bot]))


def _reachable_in(kind: str, V: Subspace, F: np.ndarray, qv: Quadruple,
                  tol: ToleranceProfile) -> Subspace:
    """The reachability subspace on the output-nulling twin V, whose friend
    F is checked to fit it."""
    r = friend_residual(F, V, qv)
    if r > 10 * tol.residual:
        what = "friend" if kind == OUTPUT_NULLING else "injection"
        raise NotInvariant(f"{what} does not fit the subspace", residual=r)
    seed = combine("intersect", V, image_under(qv.B, kernel_of(qv.D, tol), tol), tol)
    return invariant_hull("smallest_containing", qv.A + qv.B @ F, seed, tol)


def reach_detect(kind: str, V_or_S: Subspace, cert: FriendCertificate,
                 q: Quadruple, tol: ToleranceProfile = DEFAULT_TOL) -> Subspace:
    """Reachability subspace on an output-nulling V, or the detectability
    subspace attached to an input-containing S: the complement of the
    reachability subspace on S^perp in the dual."""
    V, qv = _nulling_twin(kind, V_or_S, q, tol)
    RV = _reachable_in(kind, V, _twin_matrix(kind, cert.F_or_G), qv, tol)
    return RV if kind == OUTPUT_NULLING else complement(RV, tol)


def self_predicate(kind: str, X: Subspace, q: Quadruple,
                   tol: ToleranceProfile = DEFAULT_TOL) -> bool:
    """Self-bounded (R* <= X) or self-hidden (X <= Q*) test. X is self
    hidden exactly when X^perp is self bounded in the dual, whose R* is
    the complement of Q*."""
    twin_kind = {"bounded": OUTPUT_NULLING, "hidden": INPUT_CONTAINING}.get(kind)
    if twin_kind is None:
        raise InvalidInput(f"unknown predicate kind {kind!r}")
    V, qv = _nulling_twin(twin_kind, X, q, tol)
    _require_nulling(twin_kind, V, qv, tol)
    return contains(V, rstar_qstar(qv, tol)[0], tol)


def _extend_within(inner: Subspace, outer: Subspace,
                   tol: ToleranceProfile = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal columns extending a basis of `inner` to one of `outer`."""
    proj_out = outer.basis - inner.basis @ (inner.basis.T @ outer.basis)
    return span_of(proj_out, tol, scale=1.0).basis


def _induced_spectrum(A: np.ndarray, T: np.ndarray) -> tuple:
    """Eigenvalues of T^T A T, the map A induces in orthonormal columns T."""
    return tuple(np.linalg.eigvals(T.T @ A @ T)) if T.shape[1] else ()


def _outside(eigs, region: StabilityRegion) -> list:
    """The eigenvalues that violate the region, boundary guard included."""
    return [l for l in eigs if region.boundary_distance(l) <= REGION_GUARD]


def _controllable_split(A: np.ndarray, B, tol: ToleranceProfile):
    """Orthonormal basis of the reachable subspace of (A, B) and the
    spectrum A induces on its orthogonal complement (the uncontrollable,
    i.e. fixed, modes)."""
    reach = invariant_hull("smallest_containing", A, span_of(B, tol), tol)
    T2 = complement(reach, tol).basis
    fixed = np.linalg.eigvals(T2.T @ A @ T2) if T2.shape[1] else np.zeros(0, complex)
    return reach.basis, fixed


def _require_finite(*arrays):
    """scipy's `check_finite`: ValueError on any inf or NaN entry."""
    if not all(np.isfinite(M).all() for M in arrays):
        raise ValueError("array must not contain infs or NaNs")


def _no_sort(*_):
    """dgges's selection callback, unused: the ordering is dtgsen's."""


def _riccati(A: np.ndarray, B: np.ndarray, discrete: bool) -> np.ndarray:
    """Stabilizing solution P of the Riccati equation of (A, B) with
    identity weights: the CARE A^T P + P A - P B B^T P + I = 0, or, when
    `discrete`, the DARE A^T P A - P - A^T P B (I + B^T P B)^{-1} B^T P A + I = 0.

    scipy.linalg's CARE or DARE solver with Q = R = I, bit for bit, without
    its wrappers: scipy 1.17.1's algorithm step for step (extended pencil,
    structure-preserving balancing, QR deflation, ordered QZ, LU back
    substitution) on the same LAPACK routines. Every check that can fire
    raises scipy's exception with scipy's message; the Q/R symmetry and
    R-conditioning checks are gone, since identity weights always pass them.
    """
    _require_finite(A, B)
    k, m = B.shape
    n2 = 2 * k
    H = np.zeros((n2 + m, n2 + m))
    J = np.zeros_like(H)
    H[:k, :k] = A
    H[:k, n2:] = B
    H[k:n2, :k] = -np.eye(k)
    H[n2:, n2:] = np.eye(m)
    if discrete:  # symplectic pencil
        H[k:n2, k:n2] = np.eye(k)
        J[:k, :k] = np.eye(k)
        J[k:n2, k:n2] = A.T
        J[n2:, k:n2] = -B.T
    else:  # Hamiltonian pencil
        H[k:n2, k:n2] = -A.T
        H[n2:, k:n2] = B.T
        J[:n2, :n2] = np.eye(n2)
    # Balance by dgebal's scales of the off-diagonal magnitudes, paired as
    # diag(D, D^-1, .) to keep the pencil's structure; skipped when
    # np.allclose(scales, 1), as they are powers of 2.
    M = np.abs(H) + np.abs(J)
    np.fill_diagonal(M, 0.0)
    sca = dgebal(M, 1, 0)[3]
    if not (abs(sca - 1.0) <= 1e-8 + 1e-5).all():
        sca = np.log2(sca)
        d = np.round((sca[k:n2] - sca[:k]) / 2)
        sca = 2 ** np.r_[d, -d, sca[n2:]]
        scale = sca[:, None] * np.reciprocal(sca)
        H *= scale
        J *= scale
        _require_finite(H[:, n2:])
    # Deflate the m input columns with a full QR.
    qr, tau, _, _ = dgeqrf(H[:, n2:], int(dgeqrf_lwork(n2 + m, m)[0]))
    Q = np.zeros_like(H, order="F")
    Q[:, :m] = qr
    Q = dorgqr(Q, tau, int(dorgqr(Q, tau, -1)[1][0]), 1)[0][:, m:]
    Hd = Q.T.dot(H[:, :n2])
    Jd = Q.T.dot(J[:, :n2]) if discrete else Q[:n2].T.dot(J[:n2, :n2])
    # Ordered QZ: the stable deflating subspace leads, beta = 0 never selected.
    lwork = int(dgges(_no_sort, Hd, Jd, lwork=-1)[-2][0])
    AA, BB, _, alphar, alphai, beta, vsl, vsr, _, info = dgges(
        _no_sort, Hd, Jd, lwork=lwork, overwrite_a=1, overwrite_b=1, sort_t=0)
    if 0 < info <= n2:
        warnings.warn("The QZ iteration failed. (a,b) are not in Schur "
                      "form, but ALPHAR(j), ALPHAI(j), and BETA(j) should be "
                      f"correct for J={info-1},...,N", LinAlgWarning,
                      stacklevel=2)
    elif info > n2:
        raise np.linalg.LinAlgError("Something other than QZ iteration failed")
    nonzero = beta != 0
    ratio = (alphar + alphai * 1.0j)[nonzero] / beta[nonzero]
    select = np.zeros(beta.shape, dtype=bool)
    select[nonzero] = abs(ratio) < 1.0 if discrete else ratio.real < 0.0
    res = dtgsen(select, AA, BB, vsl, vsr, 0, 1, 1, 4 * n2 + 16, 1)
    if res[-1] == 1:
        raise ValueError("Reordering of (A, B) failed because the transformed"
                         " matrix pair (A, B) would be too far from "
                         "generalized Schur form; the problem is very "
                         "ill-conditioned. (A, B) may have been partially "
                         "reordered.")
    u00, u10 = res[6][:k, :k], res[6][k:, :k]
    # P u00 = L U, and X = u10 u00^{-1}: two triangular solves on the packed
    # factor, then the permutation, as scipy.linalg.lu/solve_triangular do.
    _require_finite(u00)
    lu, piv, _ = dgetrf(u00)
    uu = np.triu(lu)
    s = _singular_values(uu)
    with np.errstate(all="ignore"):
        cond = s[0] / s[-1]
    if np.isnan(cond) and not np.isnan(uu).any():
        cond = np.inf
    if 1 / cond < np.spacing(1.0):
        raise np.linalg.LinAlgError("Failed to find a finite solution.")
    _require_finite(u10)
    perm = np.arange(k)
    for i, p in enumerate(piv):
        perm[[i, p]] = perm[[p, i]]
    up = np.zeros((k, k))
    up[perm, np.arange(k)] = 1.0
    y = dtrtrs(lu.T, u10.T, 1)[0]
    x = dtrtrs(lu.T, y, 0, 0, 1)[0].T.dot(up.T)
    x *= sca[:k, None] * sca[:k]
    # A solution that is not symmetric means the pencil had no clean split.
    u_sym = u00.T.dot(u10)
    threshold = max(np.spacing(1000.0), 0.1 * np.linalg.norm(u_sym, 1))
    if np.linalg.norm(u_sym - u_sym.T, 1) > threshold:
        what = ("symplectic pencil has eigenvalues too close to the unit circle"
                if discrete else "Hamiltonian pencil has eigenvalues too close "
                "to the imaginary axis")
        raise np.linalg.LinAlgError(f"The associated {what}")
    return (x + x.T) / 2


def _place_state_feedback(A: np.ndarray, B: np.ndarray,
                          region: StabilityRegion,
                          tol: ToleranceProfile) -> tuple[np.ndarray, np.ndarray]:
    """Gain F with A + B F stable in the region where possible.

    The gain is the Riccati gain, with identity weights, of the controllable
    block (Ac, Bc), shifted so that its closed-loop spectrum lies beyond the
    region's margin: left of -(1 + margin) in continuous time, inside the
    disc of radius (1 - margin) / 2 in discrete time. The Riccati equation
    is solved by `_riccati`, whose solution is scipy's bit for bit, so the
    gain is the one scipy's CARE/DARE solvers give. Returns
    (F, uncontrollable_eigenvalues); the caller decides whether the fixed
    part violates the region.
    """
    k = A.shape[0]
    if k == 0:
        return np.zeros((B.shape[1], 0)), np.zeros(0, dtype=complex)
    T1, fixed = _controllable_split(A, B, tol)
    kc = T1.shape[1]
    if kc == 0:
        return np.zeros((B.shape[1], k)), fixed
    Ac = T1.T @ A @ T1
    # Leave a block alone only when it sits safely inside the region.
    if all(region.boundary_distance(l) > SKIP_GUARD for l in np.linalg.eigvals(Ac)):
        return np.zeros((B.shape[1], k)), fixed
    Bc = T1.T @ B
    if region.kind == "continuous":
        P = _riccati(Ac + (1.0 + region.margin) * np.eye(kc), Bc, False)
        gain = -Bc.T @ P
    else:
        rho = (1.0 - region.margin) / 2.0
        As = Ac / rho
        P = _riccati(As, Bc, True)
        R = np.eye(B.shape[1])
        gain = -rho * np.linalg.solve(R + Bc.T @ P @ Bc, Bc.T @ P @ As)
    return gain @ T1.T, fixed


def stabilizing_friend(V_or_S: Subspace, kind: str, q: Quadruple,
                       region: StabilityRegion,
                       tol: ToleranceProfile = DEFAULT_TOL, *,
                       base: np.ndarray | None = None,
                       pair_fixed: np.ndarray | None = None) -> FriendCertificate:
    """Friend whose closed map A+BF (dually A+GC) is stable in the region.

    The assignable spectra on the reachability part and on the quotient are
    moved into the region by shifted Riccati gains (`_place_state_feedback`);
    an injection friend is built as the feedback friend of the complement of
    S in the dual quadruple. Fails if a fixed spectrum violates the region,
    or if the pair (A, B), dually (A^T, C^T), is not stabilizable.

    A caller that already has them may pass `base`, a friend of V_or_S of
    the same kind (F, or the injection G), and `pair_fixed`, the
    uncontrollable spectrum of (A, B), or of (A^T, C^T) for an injection;
    each is computed here when not given. Every check runs either way.
    """
    V, qv = _nulling_twin(kind, V_or_S, q, tol, "friend kind")
    if base is not None:
        base = _twin_matrix(kind, base)
    if pair_fixed is None:
        pair_fixed = _controllable_split(qv.A, qv.B, tol)[1]
    bad = _outside(pair_fixed, region)
    if bad:
        raise NotStabilizablePair(
            f"pair (A, B) has unstabilizable modes {np.round(bad, 6)}"
        )
    if base is None:
        base = friend(OUTPUT_NULLING, V, qv, tol).F_or_G
    F = base.copy()

    # Internal loop shaping: extra feedback through inputs that keep V and
    # null the output, i.e. u in B^{-1} V ^ ker D.
    if not V.is_trivial:
        Pv = np.eye(qv.n) - V.projector()
        Uv = kernel_of(np.vstack([Pv @ qv.B, qv.D]), tol).basis
        Av = V.basis.T @ (qv.A + qv.B @ F) @ V.basis
        Bv = V.basis.T @ qv.B @ Uv
        dF, fixed_int = _place_state_feedback(Av, Bv, region, tol)
        bad = _outside(fixed_int, region)
        if bad:
            raise FixedSpectrumOutsideRegion(
                "fixed internal spectrum outside the region", bad
            )
        F = F + Uv @ dF @ V.basis.T

    # External loop shaping on the quotient by V; feedback vanishing on V
    # preserves friendship.
    W = complement(V, tol).basis
    if W.shape[1]:
        Aq = W.T @ (qv.A + qv.B @ F) @ W
        Bq = W.T @ qv.B
        dF2, fixed_ext = _place_state_feedback(Aq, Bq, region, tol)
        bad = _outside(fixed_ext, region)
        if bad:
            raise FixedSpectrumOutsideRegion(
                "fixed external spectrum outside the region", bad
            )
        F = F + dF2 @ W.T

    resid = friend_residual(F, V, qv)
    if resid > 100 * tol.residual:
        raise NotInvariant("stabilizing friend lost invariance", residual=resid)
    bad = _outside(np.linalg.eigvals(qv.A + qv.B @ F), region)
    if bad:
        raise FixedSpectrumOutsideRegion(
            "closed map spectrum escaped the region", bad
        )
    # The residual of an injection G = F^T on S is this one, transposed.
    if kind == INPUT_CONTAINING and resid > tol.residual:
        raise NotInvariant("stabilizing injection lost invariance", residual=resid)
    return FriendCertificate(_twin_matrix(kind, F), kind, resid)


def spectral_report(V_or_S: Subspace, kind: str, q: Quadruple,
                    cert: FriendCertificate | None = None,
                    tol: ToleranceProfile = DEFAULT_TOL) -> SpectralReport:
    """Fixed/assignable split of the spectrum attached to an invariant
    subspace, computed in adapted orthonormal coordinates.

    The split of an input-containing S is that of S^perp in the dual with
    the internal and external parts swapped: the map induced on Q_S/S is
    the transpose of the one on S^perp/Q_S^perp, and S ^ (unobservable) is
    the complement of S^perp + (reachable) in the dual."""
    V, qv = _nulling_twin(kind, V_or_S, q, tol)
    if cert is None:
        cert = friend(kind, V_or_S, q, tol)
    F = _twin_matrix(kind, cert.F_or_G)
    Acl = qv.A + qv.B @ F
    RV = _reachable_in(kind, V, F, qv, tol)
    reach = invariant_hull("smallest_containing", Acl, span_of(qv.B, tol), tol)
    VR = combine("sum", V, reach, tol)
    internal = _induced_spectrum(Acl, _extend_within(RV, V, tol))
    external = _induced_spectrum(Acl, complement(VR, tol).basis)
    dims = (RV.dim, VR.dim - V.dim)
    if kind == OUTPUT_NULLING:
        return SpectralReport(internal, external, dims)
    return SpectralReport(external, internal, dims[::-1])


def _quotient_map(q: Quadruple, V: Subspace, S: Subspace,
                  tol: ToleranceProfile = DEFAULT_TOL):
    """R = V ^ S, orthonormal columns T2 extending R to V, and the map that
    a friend of V induces on V/R in those coordinates; (R, None, None)
    when V = R."""
    R = combine("intersect", V, S, tol)
    if V.dim == R.dim:
        return R, None, None
    F = friend(OUTPUT_NULLING, V, q, tol).F_or_G
    T2 = _extend_within(R, V, tol)
    return R, T2, T2.T @ (q.A + q.B @ F) @ T2


def invariant_zeros(q: Quadruple, tol: ToleranceProfile = DEFAULT_TOL) -> np.ndarray:
    """Spectrum induced on V*/R* by any friend of V*."""
    _, _, M = _quotient_map(q, vstar(q, tol), sstar(q, tol), tol)
    return np.zeros(0, dtype=complex) if M is None else np.linalg.eigvals(M)


def _vstar_g(q: Quadruple, V: Subspace, S: Subspace, region: StabilityRegion,
             tol: ToleranceProfile = DEFAULT_TOL) -> Subspace:
    """`vstar_g` from the star pair (V*, S*) of q."""
    R, T2, M = _quotient_map(q, V, S, tol)
    if M is None:
        return R
    stable_part = modal_subspace(M, region, tol)
    return combine("sum", R, span_of(T2 @ stable_part.basis, tol), tol)


def vstar_g(q: Quadruple, region: StabilityRegion,
            tol: ToleranceProfile = DEFAULT_TOL) -> Subspace:
    """Largest stabilizability output-nulling subspace: R* plus the stable
    modal part of the map induced on V*/R*."""
    return _vstar_g(q, vstar(q, tol), sstar(q, tol), region, tol)


def sstar_g(q: Quadruple, region: StabilityRegion,
            tol: ToleranceProfile = DEFAULT_TOL) -> Subspace:
    """Smallest detectability input-containing subspace, by duality."""
    return complement(vstar_g(q.dual(), region, tol), tol)


def match_spectra(left, right, tol_match: float = 1e-6) -> bool:
    """Multiset equality of two spectra under optimal assignment."""
    left = np.sort_complex(np.asarray(left, dtype=complex))
    right = np.sort_complex(np.asarray(right, dtype=complex))
    if left.shape != right.shape:
        return False
    if left.size == 0:
        return True
    from scipy.optimize import linear_sum_assignment

    cost = np.abs(left[:, None] - right[None, :])
    rows, cols = linear_sum_assignment(cost)
    return bool(cost[rows, cols].max() <= tol_match)
