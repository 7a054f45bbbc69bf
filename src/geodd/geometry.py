"""Geometric machinery for a quadruple (A, B, C, D).

Supremal output-nulling and infimal input-containing subspaces, their
friends, reachability/detectability subspaces, fixed spectra, invariant
zeros, stabilizability variants, and the self-bounded/self-hidden
predicates. Dual objects are computed through the transposed quadruple.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_continuous_are, solve_discrete_are

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
    combine,
    complement,
    contains,
    embed,
    image_under,
    invariant_hull,
    kernel_of,
    lifted_basis,
    modal_subspace,
    preimage,
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


def _containing_domain(S: Subspace, q: Quadruple, ker_cd: Subspace,
                       tol: ToleranceProfile) -> Subspace:
    """(S x U) ^ ker_cd, ker_cd = ker [C D]: the input-containing step's domain."""
    return combine("intersect", Subspace._adopt(q.n + q.m, lifted_basis(S, q.m)),
                   ker_cd, tol)


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
    """Residual of [A B] ((S + U) ^ ker [C D]) <= S; zero iff input containing."""
    dom = _containing_domain(S, q, kernel_of(np.hstack([q.C, q.D]), tol), tol)
    mapped = np.hstack([q.A, q.B]) @ dom.basis
    resid = mapped - S.basis @ (S.basis.T @ mapped)
    return _norm2(resid)


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
    """Smallest input-containing subspace via the non-decreasing recursion.

    S_0 = 0 and S_{k+1} = [A B]((S_k x U) ^ ker [C D]). The fixpoint is
    reached after at most n strict steps counted from S_0, a bound that is
    attained, and at most n-1 counted from the first iterate S_1 = B ker D.
    The returned sequence starts at S_0 and ends with the first iterate
    whose dimension repeats.
    """
    S = Subspace.trivial(q.n)
    seq = [S]
    AB = np.hstack([q.A, q.B])
    AB_norm = _norm2(AB)
    ker_cd = kernel_of(np.hstack([q.C, q.D]), tol)
    for _ in range(q.n + 1):
        dom = _containing_domain(S, q, ker_cd, tol)
        Snext = span_of(AB @ dom.basis, tol, scale=AB_norm)
        seq.append(Snext)
        if Snext.dim == S.dim:
            break
        S = Snext
    result = seq[-1]
    return (result, seq) if return_sequence else result


def rstar_qstar(q: Quadruple, tol: ToleranceProfile = DEFAULT_TOL):
    """(R*, Q*) = (V* ^ S*, V* + S*)."""
    V = vstar(q, tol)
    S = sstar(q, tol)
    return combine("intersect", V, S, tol), combine("sum", V, S, tol)


def friend(kind: str, V_or_S: Subspace, q: Quadruple,
           tol: ToleranceProfile = DEFAULT_TOL) -> FriendCertificate:
    """Feedback F with [A+BF; C+DF] V <= V + 0, or the dual injection G.

    The friend is solved column-by-column over a basis of the subspace by
    least squares and extended by zero on the orthogonal complement.
    """
    if V_or_S.ambient_dim != q.n:
        raise DimensionMismatch("subspace must live in the state space")
    if kind == OUTPUT_NULLING:
        V = V_or_S
        memb = output_nulling_residual(V, q, tol)
        if memb > tol.residual:
            raise NotInvariant("subspace is not output nulling", residual=memb)
        if V.is_trivial:
            return FriendCertificate(np.zeros((q.m, q.n)), kind, 0.0)
        Vb = V.basis
        # [A; C] v = [V; 0] x + [B; D] w, one column per basis vector.
        sys_mat = np.hstack([np.vstack([Vb, np.zeros((q.p, V.dim))]), _bd(q)])
        rhs = _stacked_output(q) @ Vb
        sol, *_ = np.linalg.lstsq(sys_mat, rhs, rcond=None)
        W = sol[V.dim :, :]
        F = -W @ Vb.T
        resid = friend_residual(F, V, q)
        if resid > tol.residual:
            raise NotInvariant("no exact friend found", residual=resid)
        return FriendCertificate(F, kind, resid)
    if kind == INPUT_CONTAINING:
        S = V_or_S
        memb = input_containing_residual(S, q, tol)
        if memb > tol.residual:
            raise NotInvariant("subspace is not input containing", residual=memb)
        dual_cert = friend(OUTPUT_NULLING, complement(S, tol), q.dual(), tol)
        G = dual_cert.F_or_G.T
        resid = injection_residual(G, S, q)
        if resid > tol.residual:
            raise NotInvariant("no exact injection friend found", residual=resid)
        return FriendCertificate(G, kind, resid)
    raise InvalidInput(f"unknown friend kind {kind!r}")


def friend_residual(F: np.ndarray, V: Subspace, q: Quadruple) -> float:
    """Norm of [A+BF; C+DF] V outside V + 0_Y."""
    if V.is_trivial:
        return 0.0
    top = (q.A + q.B @ F) @ V.basis
    bot = (q.C + q.D @ F) @ V.basis
    top_out = top - V.basis @ (V.basis.T @ top)
    return _norm2(np.vstack([top_out, bot]))


def injection_residual(G: np.ndarray, S: Subspace, q: Quadruple) -> float:
    """Norm of [(A+GC) S, B+GD] outside S."""
    P = np.eye(q.n) - S.projector()
    blocks = [P @ (q.B + G @ q.D)]
    if not S.is_trivial:
        blocks.insert(0, P @ (q.A + G @ q.C) @ S.basis)
    return _norm2(np.hstack(blocks))


def reach_detect(kind: str, V_or_S: Subspace, cert: FriendCertificate,
                 q: Quadruple, tol: ToleranceProfile = DEFAULT_TOL) -> Subspace:
    """Reachability subspace on an output-nulling V, or the detectability
    subspace attached to an input-containing S."""
    if kind == OUTPUT_NULLING:
        F = cert.F_or_G
        r = friend_residual(F, V_or_S, q)
        if r > 10 * tol.residual:
            raise NotInvariant("friend does not fit the subspace", residual=r)
        seed = combine(
            "intersect", V_or_S, image_under(q.B, kernel_of(q.D, tol), tol), tol
        )
        return invariant_hull("smallest_containing", q.A + q.B @ F, seed, tol)
    if kind == INPUT_CONTAINING:
        G = cert.F_or_G
        r = injection_residual(G, V_or_S, q)
        if r > 10 * tol.residual:
            raise NotInvariant("injection does not fit the subspace", residual=r)
        ceiling = combine("sum", V_or_S, preimage(q.C, span_of(q.D, tol), tol), tol)
        return invariant_hull("largest_contained", q.A + G @ q.C, ceiling, tol)
    raise InvalidInput(f"unknown kind {kind!r}")


def self_predicate(kind: str, X: Subspace, q: Quadruple,
                   tol: ToleranceProfile = DEFAULT_TOL) -> bool:
    """Self-bounded (R* <= X) or self-hidden (X <= Q*) test."""
    R, Q = rstar_qstar(q, tol)
    if kind == "bounded":
        r = output_nulling_residual(X, q, tol)
        if r > tol.residual:
            raise NotInvariant("subspace is not output nulling", residual=r)
        return contains(X, R, tol)
    if kind == "hidden":
        r = input_containing_residual(X, q, tol)
        if r > tol.residual:
            raise NotInvariant("subspace is not input containing", residual=r)
        return contains(Q, X, tol)
    raise InvalidInput(f"unknown predicate kind {kind!r}")


def _extend_within(inner: Subspace, outer: Subspace,
                   tol: ToleranceProfile = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal columns extending a basis of `inner` to one of `outer`."""
    proj_out = outer.basis - inner.basis @ (inner.basis.T @ outer.basis)
    return span_of(proj_out, tol, scale=1.0).basis


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


def _place_state_feedback(A: np.ndarray, B: np.ndarray,
                          region: StabilityRegion,
                          tol: ToleranceProfile) -> tuple[np.ndarray, np.ndarray]:
    """Gain F with A + B F stable in the region where possible.

    The gain is the Riccati gain, with identity weights, of the controllable
    block (Ac, Bc), shifted so that its closed-loop spectrum lies beyond the
    region's margin: left of -(1 + margin) in continuous time, inside the
    disc of radius (1 - margin) / 2 in discrete time. Returns
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
    if kind == INPUT_CONTAINING:
        # G^T is the friend of the complement in the dual that
        # `friend(INPUT_CONTAINING, ...)` transposed into G.
        V, qv = complement(V_or_S, tol), q.dual()
        if base is not None:
            base = base.T
    elif kind == OUTPUT_NULLING:
        V, qv = V_or_S, q
    else:
        raise InvalidInput(f"unknown friend kind {kind!r}")
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
    if kind == OUTPUT_NULLING:
        return FriendCertificate(F, kind, resid)
    G = F.T
    resid = injection_residual(G, V_or_S, q)
    if resid > tol.residual:
        raise NotInvariant("stabilizing injection lost invariance", residual=resid)
    return FriendCertificate(G, kind, resid)


def spectral_report(V_or_S: Subspace, kind: str, q: Quadruple,
                    cert: FriendCertificate | None = None,
                    tol: ToleranceProfile = DEFAULT_TOL) -> SpectralReport:
    """Fixed/assignable split of the spectrum attached to an invariant
    subspace, computed in adapted orthonormal coordinates."""
    if kind == OUTPUT_NULLING:
        V = V_or_S
        if cert is None:
            cert = friend(OUTPUT_NULLING, V, q, tol)
        F = cert.F_or_G
        Acl = q.A + q.B @ F
        RV = reach_detect(OUTPUT_NULLING, V, cert, q, tol)
        reach = invariant_hull("smallest_containing", Acl, span_of(q.B, tol), tol)
        VR = combine("sum", V, reach, tol)
        T2 = _extend_within(RV, V, tol)
        internal = np.linalg.eigvals(T2.T @ Acl @ T2) if T2.shape[1] else np.zeros(0, complex)
        T4 = complement(VR, tol).basis
        external = np.linalg.eigvals(T4.T @ Acl @ T4) if T4.shape[1] else np.zeros(0, complex)
        dims = (RV.dim, VR.dim - V.dim)
        return SpectralReport(tuple(internal), tuple(external), dims)
    if kind == INPUT_CONTAINING:
        S = V_or_S
        if cert is None:
            cert = friend(INPUT_CONTAINING, S, q, tol)
        G = cert.F_or_G
        Acl = q.A + G @ q.C
        QS = reach_detect(INPUT_CONTAINING, S, cert, q, tol)
        unobs = invariant_hull("largest_contained", Acl, kernel_of(q.C, tol), tol)
        SQ = combine("intersect", S, unobs, tol)
        T1 = SQ.basis
        internal = np.linalg.eigvals(T1.T @ Acl @ T1) if T1.shape[1] else np.zeros(0, complex)
        T3 = _extend_within(S, QS, tol)
        external = np.linalg.eigvals(T3.T @ Acl @ T3) if T3.shape[1] else np.zeros(0, complex)
        dims = (S.dim - SQ.dim, q.n - QS.dim)
        return SpectralReport(tuple(internal), tuple(external), dims)
    raise InvalidInput(f"unknown kind {kind!r}")


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


def region_stabilizable(A, B, region: StabilityRegion,
                        tol: ToleranceProfile = DEFAULT_TOL) -> bool:
    """All uncontrollable modes of (A, B) strictly inside the region."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    return not _outside(_controllable_split(A, B, tol)[1], region)


def region_detectable(C, A, region: StabilityRegion,
                      tol: ToleranceProfile = DEFAULT_TOL) -> bool:
    A = np.atleast_2d(np.asarray(A, dtype=float))
    C = np.atleast_2d(np.asarray(C, dtype=float))
    return region_stabilizable(A.T, C.T, region, tol)


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
