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

One projected system (`_nulling_system`) answers how far a map lands from
(V x 0) + im [B; D]: the residual, the minimum-norm friend, which depends
on V alone, and Uv, for output nulling and for coupling conditions (a) and
(b) in `lattice`, (b) on the dual. Its factorization (I - P_V, the SVD of
M = [(I - P_V) B; D] and its rank) is taken once per subspace, quadruple
and tolerance profile: `_nulling_factors` is kept in V's memo
(`@subspaces._kept`), so (a) and the friend of V*, and (b) and the
injection of S*, share one SVD. `subspaces.complement` keeps its result in
the subspace's memo too, so (b) and the injection see the same S*^perp,
and `Quadruple.dual` keeps the dual in the quadruple's, as `_bd_norm`
keeps ||[B; D]||, the anchor of every rank cut of M over it. A quadruple holds
read-only copies of its matrices, so nothing kept for it can go stale.

The star recursion (`_nulling_steps`) runs on the orthogonal complement
(Moore & Laub 1978): each step carries V_k together with an orthonormal
basis of V_k^perp and takes two small SVDs, so S*, the complement of V* of
the dual, comes off the dual recursion with no complement SVD. It stops at
an iterate V_k = 0, whose successor is 0 without a step, and takes
||[A; C]|| only when a step first needs its rank cutoff: a recursion that
stops at its first step (V* = X, or S* = 0) takes none.

Reachable subspaces, and with them every fixed spectrum that builds a
friend or a hull, come from controllable splits (`_controllable_split`):
one full SVD of B and the orthogonal staircase of `subspaces` (Paige, IEEE
TAC 26, 1981), which carries the complement of the reachable subspace
along, so the uncontrollable block is read off with no complement SVD. The
two readers of a plant pair's uncontrollable modes alone, the p2
precondition and a stabilizing friend's pair check, share
`_pair_fixed_modes`: for a single input it reads them off one
controller-Hessenberg reduction (`subspaces._hessenberg_modes`), with no
basis, and it cuts both pairs of a plant against one ||A||, so the two
readers give one answer.

Stabilizing friends take mirror-image gains (`_stabilizing_gain`): one
ordered real Schur form of each controllable block (`subspaces._schur`,
LAPACK dgees) keeps the modes well inside the region, and one Lyapunov or
Stein equation on the quasi-triangular trailing block T22 mirrors the rest
into the region, so the moved spectrum is a function of the open-loop
spectrum alone. That equation is solved as one Sylvester equation on
T22's own Schur form by one LAPACK dtrsyl (`_sylvester`): M X + X M^T =
B2 B2^T with M = T22 + SHIFT I in continuous time, and (-rho^2 T22^-1) X +
X T22^T = T22^-1 B2 B2^T in discrete time. Both have unique solutions,
because no unkept mode lies more than KEEP_MARGIN inside the region.
Spectra are taken by `subspaces._eigvals`, numpy.linalg.eigvals bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dtrsyl

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
    _eigvals,
    _hessenberg_modes,
    _inv,
    _kept,
    _norm2,
    _numerical_rank,
    _region_part,
    _schur,
    _staircase,
    _svd,
    _svd_u,
    _svd_vh,
    combine,
    complement,
    contains,
    span_of,
)

OUTPUT_NULLING = "output_nulling"
INPUT_CONTAINING = "input_containing"

# The stabilizing gain keeps the modes more than KEEP_MARGIN inside the
# region and mirrors the rest about the boundary moved SHIFT into it: the
# line Re lam = -SHIFT, or the circle |lam| = 1 - SHIFT. Both were chosen
# once, from a table of certificate failures against stability margins on
# generated p2 plants (CHANGES.md).
KEEP_MARGIN = 0.05
SHIFT = 0.1


@dataclass(frozen=True, eq=False)
class Quadruple:
    """State-space quadruple with direct feedthrough. It holds read-only
    float copies of its matrices, as a plant does, so what is derived from
    it alone is kept (`@subspaces._kept`); it compares and hashes by identity."""

    _frozen_by_construction = True

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray

    def __post_init__(self):
        A, B, C, D = mats = [np.array(getattr(self, name), dtype=float, ndmin=2)
                             for name in "ABCD"]
        n = A.shape[0]
        if A.shape != (n, n):
            raise DimensionMismatch("A must be square")
        if B.shape[0] != n:
            raise DimensionMismatch("B row count must match A")
        if C.shape[1] != n:
            raise DimensionMismatch("C column count must match A")
        if D.shape != (C.shape[0], B.shape[1]):
            raise DimensionMismatch("D must be p x m")
        for name, M in zip("ABCD", mats):
            if M.size and not np.isfinite(M).all():
                raise InvalidInput(f"{name} contains non-finite entries")
            M.setflags(write=False)
            object.__setattr__(self, name, M)

    @classmethod
    def _checked(cls, A, B, C, D) -> "Quadruple":
        """A quadruple on float matrices that have passed these checks
        already (a plant's, stacks of a plant's, or the transposes of a
        quadruple's), built without copying or repeating them. It makes
        them read-only, as `__post_init__` does: a no-op on a plant's
        matrices and on their transposes, and a fresh stack, which the
        caller keeps no reference to, is frozen in place."""
        q = object.__new__(cls)
        for name, M in zip("ABCD", (A, B, C, D)):
            M.setflags(False)
            object.__setattr__(q, name, M)
        return q

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]

    @property
    def p(self) -> int:
        return self.C.shape[0]

    @_kept
    def dual(self) -> "Quadruple":
        """The dual quadruple (A^T, C^T, B^T, D^T), built on the first call
        and kept: read-only transposed views of this one's matrices."""
        return Quadruple._checked(self.A.T, self.C.T, self.B.T, self.D.T)


@dataclass(frozen=True, eq=False)
class FriendCertificate:
    """A feedback (m x n) or injection (n x p) matrix together with the
    residual of the invariance relation it witnesses."""

    F_or_G: np.ndarray
    kind: str
    residual: float


@dataclass(frozen=True)
class SpectralReport:
    """Fixed and assignable spectra attached to an invariant subspace."""

    internal_fixed: tuple
    external_fixed: tuple
    assignable_dims: tuple


def _stacked_output(q: Quadruple) -> np.ndarray:
    return np.concatenate((q.A, q.C))


def _bd(q: Quadruple) -> np.ndarray:
    return np.concatenate((q.B, q.D))


@_kept
def _bd_norm(q: Quadruple) -> float:
    """||[B; D]||, once per quadruple: the anchor of the rank cut of every
    nulling factorization over q, and of the K family's."""
    return _norm2(_bd(q))


def _twin_quadruple(kind: str, q: Quadruple) -> Quadruple:
    """The quadruple of the output-nulling twin: q itself for the
    output-nulling kind, q.dual() for the input-containing kind."""
    if kind == OUTPUT_NULLING:
        return q
    if kind == INPUT_CONTAINING:
        return q.dual()
    raise InvalidInput(f"unknown friend kind {kind!r}")


def _nulling_twin(kind: str, X: Subspace, q: Quadruple,
                  tol: ToleranceProfile) -> tuple[Subspace, Quadruple]:
    """The output-nulling twin of X: (X, q) when X is of the output-nulling
    kind, (X^perp, q.dual()) when it is of the input-containing kind. X is
    input containing for q exactly when X^perp is output nulling for the
    dual, and a friend G of X is the transpose of a friend of X^perp."""
    qv = _twin_quadruple(kind, q)
    return (X if kind == OUTPUT_NULLING else complement(X, tol)), qv


def _twin_matrix(kind: str, M: np.ndarray) -> np.ndarray:
    """The friend of X made from a friend of its twin, or the other way
    round: transposed for the input-containing kind."""
    return M if kind == OUTPUT_NULLING else M.T


@_kept
def _nulling_factors(V: Subspace, q: Quadruple, tol: ToleranceProfile):
    """(Pv, U, s, Vh, r): Pv = I - P_V and the SVD U diag(s) Vh of
    M = [Pv B; D], cut at rank r = the count of singular values above
    rank_rel * max(s_0, ||[B; D]||) * max(shape); U, s and Vh are None when
    q has no inputs. They depend on V, q and tol alone, so they are kept,
    read-only, in V's memo: every nulling system of V over q shares them
    (conditions (a) and (b), the nulling check, the friend, Uv)."""
    Pv = np.eye(q.n) - V.projector()
    if not q.m:
        return Pv, None, None, None, 0
    M = np.concatenate((Pv @ q.B, q.D))
    U, s, Vh = _svd(M, True)
    return Pv, U, s, Vh, _numerical_rank(s, M.shape, tol.rank_rel, _bd_norm(q))


def _nulling_system(V: Subspace, q: Quadruple, N: np.ndarray,
                    tol: ToleranceProfile):
    """How far does im N, N = [N_x; N_y], land from (V x 0_Y) + im [B; D],
    the orthogonal sum of V x 0_Y and im M, M = [(I - P_V) B; D]? The SVD
    of M (`_nulling_factors`) gives the minimum-norm W with M W = -R,
    R = [(I - P_V) N_x; N_y]; Uv = ker M, the inputs that keep V and null
    the output; and the residual ||R - P_M R||.
    """
    Pv, U, s, Vh, r = _nulling_factors(V, q, tol)
    R = np.concatenate((Pv @ N[:q.n], N[q.n:]))
    if U is None:
        return np.zeros((0, N.shape[1])), np.zeros((0, 0)), _norm2(R)
    UR = U[:, :r].T @ R
    return -Vh[:r].T @ (UR / s[:r, None]), Vh[r:].T, _norm2(R - U[:, :r] @ UR)


def output_nulling_residual(V: Subspace, q: Quadruple,
                            tol: ToleranceProfile = DEFAULT_TOL) -> float:
    """Residual of [A; C] V <= (V + 0_Y) + im [B; D]; zero iff output nulling."""
    return _nulling_system(V, q, _stacked_output(q) @ V.basis, tol)[2]


def input_containing_residual(S: Subspace, q: Quadruple,
                              tol: ToleranceProfile = DEFAULT_TOL) -> float:
    """Zero iff [A B] ((S + U) ^ ker [C D]) <= S: the output-nulling
    residual of S^perp in the dual quadruple."""
    return output_nulling_residual(complement(S, tol), q.dual(), tol)


def _nulling_steps(q: Quadruple, tol: ToleranceProfile) -> list:
    """The output-nulling recursion V_0 = X, V_{k+1} = [A; C]^{-1}(V_k x 0
    + im [B; D]) on the orthogonal complement, up to the first iterate
    whose dimension repeats: a list of (V_k, Z_k) basis pairs, Z_k an
    orthonormal basis of V_k^perp. The sequence is non-increasing, so an
    iterate V_k = 0 is the fixpoint: it is repeated without a step.

    ((V_k x 0) + im [B; D])^perp = (V_k^perp x Y) ^ (im [B; D])^perp has
    the orthonormal basis G_k = blockdiag(Z_k, I_p) N_k, N_k = ker(BD^T
    blockdiag(Z_k, I_p)) for an orthonormal basis BD of im [B; D], so
    V_{k+1} = ker(G_k^T [A; C]) (Moore & Laub 1978). The right singular
    vectors of that one SVD split into V_{k+1} (the trailing ones) and
    Z_{k+1} (the leading ones). G_k G_k^T is the projector off the target,
    so the kernel's rank cutoff, rank_rel * ||[A; C]|| * (n + p), is that of
    the preimage it replaces.
    """
    n, p = q.n, q.p
    MT_norm = None  # ||[A; C]||, taken when a step first needs its cutoff
    BD = span_of(_bd(q), tol).basis
    BD_x, BD_y = BD[:n], BD[n:]
    V, Z = np.eye(n), np.zeros((n, 0))
    steps = [(V, Z)]
    for _ in range(n + 1):
        if not V.shape[1]:
            # V_{k+1} <= V_k = 0: the fixpoint, repeated without a step
            steps.append((V, Z))
            break
        # LM = L^T [A; C] for L = blockdiag(Z, I_p), then G^T [A; C] = N^T LM
        LM = np.concatenate((Z.T @ q.A, q.C))
        if BD.shape[1] and LM.shape[0]:
            # BD^T L holds cosines of angles in R^(n+p): cut them as such
            s, Vh = _svd_vh(np.concatenate((BD_x.T @ Z, BD_y.T), axis=1), True)
            LM = Vh[_numerical_rank(s, (n + p,), tol.rank_rel, 1.0):] @ LM
        if 0 in LM.shape:
            Vnext, Z = np.eye(n), np.zeros((n, 0))
        else:
            s, Vh = _svd_vh(LM, True)
            if MT_norm is None:
                MT_norm = _norm2(_stacked_output(q))
            r = _numerical_rank(s, (n + p, n), tol.rank_rel, MT_norm)
            Vnext, Z = Vh[r:].T, Vh[:r].T
        steps.append((Vnext, Z))
        if Vnext.shape[1] == V.shape[1]:
            break
        V = Vnext
    return steps


def vstar(q: Quadruple, tol: ToleranceProfile = DEFAULT_TOL,
          return_sequence: bool = False):
    """Largest output-nulling subspace via the non-increasing recursion.

    V_0 = X and V_{k+1} = [A; C]^{-1}(V_k x 0 + im [B; D]), run on the
    orthogonal complements V_k^perp with two small SVDs per step
    (`_nulling_steps`). The fixpoint is reached after at most n strict
    steps counted from V_0, a bound that is attained, and at most n-1
    counted from the first iterate V_1 = C^{-1}(im D). The returned
    sequence starts at V_0 and ends with the first iterate whose dimension
    repeats.
    """
    steps = _nulling_steps(q, tol)
    if not return_sequence:
        return Subspace._adopt(q.n, steps[-1][0])
    seq = [Subspace._adopt(q.n, V) for V, _ in steps]
    return seq[-1], seq


def sstar(q: Quadruple, tol: ToleranceProfile = DEFAULT_TOL,
          return_sequence: bool = False):
    """Smallest input-containing subspace: the complement of V* of the dual.

    The complement recursion of `vstar` on q.dual() carries an orthonormal
    basis of each V_k^perp, so S* is its last complement, with no SVD to
    take it. Step by step, these complements are the iterates of S_0 = 0
    and S_{k+1} = [A B]((S_k x U) ^ ker [C D]). The fixpoint is reached
    after at most n strict steps counted from S_0, a bound that is
    attained, and at most n-1 counted from the first iterate S_1 = B ker D.
    The returned sequence starts at S_0 and ends with the first iterate
    whose dimension repeats.
    """
    steps = _nulling_steps(q.dual(), tol)
    if not return_sequence:
        return Subspace._adopt(q.n, steps[-1][1])
    seq = [Subspace._adopt(q.n, Z) for _, Z in steps]
    return seq[-1], seq


def rstar_qstar(q: Quadruple, tol: ToleranceProfile = DEFAULT_TOL):
    """(R*, Q*) = (V* ^ S*, V* + S*)."""
    V = vstar(q, tol)
    S = sstar(q, tol)
    return combine("intersect", V, S, tol), combine("sum", V, S, tol)


def _nulling_check(kind: str, V: Subspace, qv: Quadruple,
                   tol: ToleranceProfile) -> tuple[np.ndarray, np.ndarray]:
    """The nulling system of [A; C] V over qv, for the output-nulling twin V
    of a `kind` subspace: W and Uv. Raises NotInvariant unless V is output
    nulling for qv."""
    W, Uv, r = _nulling_system(V, qv, _stacked_output(qv) @ V.basis, tol)
    if r > tol.residual:
        raise NotInvariant(f"subspace is not {kind.replace('_', ' ')}", residual=r)
    return W, Uv


def _twin_friend(kind: str, V: Subspace, qv: Quadruple,
                 tol: ToleranceProfile) -> tuple[np.ndarray, float, np.ndarray]:
    """`friend` on the output-nulling twin V of a `kind` subspace, from
    `_nulling_check`: the feedback F of V, its residual, and Uv. Raises
    NotInvariant unless V is output nulling for qv and F fits it."""
    W, Uv = _nulling_check(kind, V, qv, tol)
    F = W @ V.basis.T
    resid = friend_residual(F, V, qv)
    if resid > tol.residual:
        what = "friend" if kind == OUTPUT_NULLING else "injection friend"
        raise NotInvariant(f"no exact {what} found", residual=resid)
    return F, resid, Uv


def friend(kind: str, V_or_S: Subspace, q: Quadruple,
           tol: ToleranceProfile = DEFAULT_TOL) -> FriendCertificate:
    """Feedback F with [A+BF; C+DF] V <= V + 0, or the dual injection G.

    F is the minimum-norm friend that vanishes on the orthogonal complement
    of V: on V it solves M F V = -[(I - P_V) A V; C V], M = [(I - P_V) B; D],
    by one SVD of M (`_nulling_system`), so it depends on the subspace V
    alone, not on its basis. The injection G of S is F^T for the friend F
    of S^perp in the dual.
    """
    if V_or_S.ambient_dim != q.n:
        raise DimensionMismatch("subspace must live in the state space")
    V, qv = _nulling_twin(kind, V_or_S, q, tol)
    F, resid, _ = _twin_friend(kind, V, qv, tol)
    return FriendCertificate(_twin_matrix(kind, F), kind, resid)


def friend_residual(F: np.ndarray, V: Subspace, q: Quadruple) -> float:
    """Norm of [A+BF; C+DF] V outside V + 0_Y."""
    if V.is_trivial:
        return 0.0
    top = (q.A + q.B @ F) @ V.basis
    bot = (q.C + q.D @ F) @ V.basis
    top_out = top - V.basis @ (V.basis.T @ top)
    return _norm2(np.concatenate((top_out, bot)))


def _controllable_split(A: np.ndarray, B, tol: ToleranceProfile,
                        scale: float = 0.0):
    """Orthonormal bases T1 of the reachable subspace of (A, B) and T2 of
    its orthogonal complement, and the spectrum A induces on T2 (the
    uncontrollable, i.e. fixed, modes).

    One full SVD of B splits R^n into im B and its complement, cut as in
    `span_of` with `scale` anchoring the rank decision on B; the orthogonal
    staircase (`subspaces._staircase`, Paige, IEEE TAC 26, 1981) grows the
    first into T1 and carries the second along as T2, with no complement
    SVD."""
    U, s = _svd_u(B, True)
    r = _numerical_rank(s, B.shape, tol.rank_rel, scale)
    T1, T2 = _staircase(A, U[:, :r], U[:, r:], tol)
    fixed = _eigvals(T2.T @ A @ T2) if T2.shape[1] else np.zeros(0, complex)
    return T1, T2, fixed


def _pair_fixed_modes(A: np.ndarray, B: np.ndarray, tol: ToleranceProfile,
                      norm_A: float | None) -> np.ndarray:
    """The uncontrollable modes of (A, B), for a caller that reads nothing
    else of the split: for one nonzero column B, off one Hessenberg
    reduction (`subspaces._hessenberg_modes`), cut against max(1, norm_A),
    and otherwise `_controllable_split`'s. norm_A is ||A||, which the
    caller takes only when some B has one column (None otherwise), so that
    the pairs (A, B) and (A^T, C^T) share one."""
    if B.shape[1] == 1 and B.any():
        return _hessenberg_modes(A, B, tol, max(1.0, norm_A))
    return _controllable_split(A, B, tol)[2]


@dataclass(frozen=True, eq=False)
class _TwinSplit:
    """The split of an output-nulling twin V over qv under a friend F, in
    the coordinates of V's basis: Uv spans the inputs ker [(I - P_V) B; D]
    that keep V and null the output, and (T1, T2, fixed) is the controllable
    split of (Av, Bv) = (V^T (A+BF) V, V^T B Uv), so V T1 is the
    reachability subspace on V and `fixed` the internal fixed spectrum,
    induced on T2. Both rank decisions are anchored to the data (||[B; D]||,
    ||B||), so roundoff in the projections neither adds nor loses an input."""

    V: Subspace
    qv: Quadruple
    F: np.ndarray
    Uv: np.ndarray
    Av: np.ndarray
    Bv: np.ndarray
    T1: np.ndarray
    T2: np.ndarray
    fixed: np.ndarray


def _twin_split(kind: str, V_or_S: Subspace, q: Quadruple, tol: ToleranceProfile,
                cert: FriendCertificate | None = None) -> _TwinSplit:
    """The split of the output-nulling twin of V_or_S. Uv and the nulling
    check come from the twin's nulling system (`_nulling_check`). So does
    the friend, with its own fit check (`_twin_friend`), unless the twin of
    the friend `cert` is given, which is then checked to fit instead."""
    if V_or_S.ambient_dim != q.n:
        raise DimensionMismatch("subspace must live in the state space")
    V, qv = _nulling_twin(kind, V_or_S, q, tol)
    if cert is None:
        F, _, Uv = _twin_friend(kind, V, qv, tol)
    else:
        _, Uv = _nulling_check(kind, V, qv, tol)
        F = _twin_matrix(kind, cert.F_or_G)
        r = friend_residual(F, V, qv)
        if r > 10 * tol.residual:
            what = "friend" if kind == OUTPUT_NULLING else "injection"
            raise NotInvariant(f"{what} does not fit the subspace", residual=r)
    Av = V.basis.T @ (qv.A + qv.B @ F) @ V.basis
    Bv = V.basis.T @ qv.B @ Uv
    return _TwinSplit(V, qv, F, Uv, Av, Bv,
                      *_controllable_split(Av, Bv, tol, _norm2(qv.B)))


def _external_split(split: _TwinSplit, F: np.ndarray, tol: ToleranceProfile):
    """Orthonormal columns W of V^perp, the map and inputs (W^T (A+BF) W,
    W^T B) induced on X / V, and their split, anchored as the internal one."""
    qv = split.qv
    W = complement(split.V, tol).basis
    Aq = W.T @ (qv.A + qv.B @ F) @ W
    Bq = W.T @ qv.B
    return W, Aq, Bq, _controllable_split(Aq, Bq, tol, _norm2(qv.B))


def reach_detect(kind: str, V_or_S: Subspace, cert: FriendCertificate,
                 q: Quadruple, tol: ToleranceProfile = DEFAULT_TOL) -> Subspace:
    """Reachability subspace on an output-nulling V, or the detectability
    subspace attached to an input-containing S: the complement of the
    reachability subspace on S^perp in the dual."""
    split = _twin_split(kind, V_or_S, q, tol, cert)
    RV = Subspace._adopt(q.n, split.V.basis @ split.T1)
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
    _nulling_check(twin_kind, V, qv, tol)  # raises unless V is output nulling
    return contains(V, combine("intersect", vstar(qv, tol), sstar(qv, tol), tol), tol)


def _sylvester(M: np.ndarray, N: np.ndarray, C: np.ndarray) -> np.ndarray:
    """X with M X + X N^T = C, for M and N in real Schur form: one LAPACK
    dtrsyl (Bartels & Stewart, CACM 15, 1972), which returns a solution Y
    of M Y + Y N^T = scale C with scale <= 1 chosen against overflow, so
    X = Y / scale. A nonzero info (M and -N with eigenvalues too close, so
    that dtrsyl perturbed them) raises LinAlgError."""
    Y, scale, info = dtrsyl(M, N, C, "N", "T", 1, 1)
    if info != 0:
        raise np.linalg.LinAlgError(
            f"Sylvester equation is singular or nearly so (dtrsyl info {info})")
    return Y / scale


def _stabilizing_gain(A: np.ndarray, B: np.ndarray, T1: np.ndarray,
                      region: StabilityRegion) -> np.ndarray:
    """Gain F with A + B F stable in the region where possible, given the
    orthonormal basis T1 of the reachable subspace of (A, B).

    The mirror-image gain (Bass's algorithm as extended by Armstrong, IEEE
    TAC 20, 1975) after a Schur deflation (Varga, IEEE TAC 26, 1981) of the
    controllable block Ac = T1^T A T1. Its ordered real Schur form
    Ac = Z T Z^T (`subspaces._schur`) puts the modes more than KEEP_MARGIN
    inside the region in front; the gain acts through the trailing Schur
    vectors Q2 alone, on the quasi-triangular T22 with inputs
    B2 = Q2^T T1^T B, so the kept modes stay where they are. With X > 0
    the solution of one Lyapunov or Stein equation, solved as one
    Sylvester equation on T22's own Schur form (`_sylvester`):

    - continuous time: M = T22 + SHIFT I is anti-stable, M X + X M^T =
      B2 B2^T, and the gain -B2^T X^-1 makes M - B2 B2^T X^-1 = -X M^T X^-1,
      so each moved mode lam lands on -conj(lam) - 2 SHIFT. Each unkept
      mode has Re lam >= -KEEP_MARGIN, so M's have real parts of at least
      SHIFT - KEEP_MARGIN > 0: no two sum to zero, and X is unique;
    - discrete time: with rho = 1 - SHIFT, N = rho T22^-1 is stable,
      Bn = T22^-1 B2, X = N X N^T + Bn Bn^T, and the gain -Bn^T X^-1 (the
      DARE gain -rho (I + B2^T P B2)^-1 B2^T P T22 / rho of T22 / rho with
      P = (rho^2 X)^-1, Q = 0 and R = I) makes T22 + B2 F = rho X N^T X^-1,
      so each moved mode lam lands on rho^2 / conj(lam). Multiplied by
      T22^T on the right, the Stein equation is the Sylvester equation
      (-rho^2 T22^-1) X + X T22^T = Bn B2^T, whose first coefficient is
      quasi-triangular too. Each unkept mode has |lam| >= 1 - KEEP_MARGIN,
      so each product of two has modulus above rho^2: no eigenvalue
      -rho^2 / lam of that coefficient is minus one of T22, and X is unique.

    A block whose modes are all kept gets no gain; otherwise every trailing
    mode is mirrored, the stable ones within KEEP_MARGIN of the boundary too.
    The uncontrollable modes stay where they are; the caller decides whether
    they violate the region.
    """
    kc = T1.shape[1]
    if kc == 0:
        return np.zeros((B.shape[1], A.shape[0]))
    T, Z, kept = _schur(T1.T @ A @ T1, lambda re, im:
                        region.boundary_distance(complex(re, im)) > KEEP_MARGIN)
    if kept == kc:
        return np.zeros((B.shape[1], A.shape[0]))
    T22 = T[kept:, kept:]
    Q2 = T1 @ Z[:, kept:]
    B2 = Q2.T @ B
    if region.kind == "continuous":
        M = T22 + SHIFT * np.eye(kc - kept)
        X = _sylvester(M, M, B2 @ B2.T)
    else:
        T22_inv = _inv(T22)
        Bn = T22_inv @ B2
        X = _sylvester(-(1.0 - SHIFT) ** 2 * T22_inv, T22, Bn @ B2.T)
        B2 = Bn  # the gain is -Bn^T X^-1
    return -np.linalg.solve(X, B2).T @ Q2.T


def _stabilized(kind: str, split: _TwinSplit, region: StabilityRegion,
                tol: ToleranceProfile) -> FriendCertificate:
    """`stabilizing_friend` from the split of the twin, after the pair
    check: the friend of the split, with the assignable spectra on the
    reachability part and on the quotient moved into the region."""
    V, qv = split.V, split.qv
    F = split.F.copy()

    # Internal loop shaping: extra feedback through the inputs Uv, which
    # keep V and null the output.
    if not V.is_trivial:
        dF = _stabilizing_gain(split.Av, split.Bv, split.T1, region)
        bad = region.outside(split.fixed)
        if bad:
            raise FixedSpectrumOutsideRegion(
                "fixed internal spectrum outside the region", bad
            )
        F = F + split.Uv @ dF @ V.basis.T

    # External loop shaping on the quotient by V; feedback vanishing on V
    # preserves friendship.
    if not V.is_full:
        W, Aq, Bq, (T1q, _, fixed_ext) = _external_split(split, F, tol)
        dF2 = _stabilizing_gain(Aq, Bq, T1q, region)
        bad = region.outside(fixed_ext)
        if bad:
            raise FixedSpectrumOutsideRegion(
                "fixed external spectrum outside the region", bad
            )
        F = F + dF2 @ W.T

    resid = friend_residual(F, V, qv)
    if resid > 100 * tol.residual:
        raise NotInvariant("stabilizing friend lost invariance", residual=resid)
    bad = region.outside(_eigvals(qv.A + qv.B @ F))
    if bad:
        raise FixedSpectrumOutsideRegion(
            "closed map spectrum escaped the region", bad
        )
    # The residual of an injection G = F^T on S is this one, transposed.
    if kind == INPUT_CONTAINING and resid > tol.residual:
        raise NotInvariant("stabilizing injection lost invariance", residual=resid)
    return FriendCertificate(_twin_matrix(kind, F), kind, resid)


def stabilizing_friend(V_or_S: Subspace, kind: str, q: Quadruple,
                       region: StabilityRegion,
                       tol: ToleranceProfile = DEFAULT_TOL) -> FriendCertificate:
    """Friend whose closed map A+BF (dually A+GC) is stable in the region.

    The assignable modes on the reachability part and on the quotient that
    are not well inside the region are mirrored into it by the mirror-image
    gain (`_stabilizing_gain`) on the blocks of the twin's split, and the
    rest stay where they are; an injection friend is built as the
    feedback friend of the complement of S in the dual quadruple. Fails if
    a fixed spectrum or the closed map violates the region
    (`StabilityRegion.outside`), or if the pair (A, B), dually (A^T, C^T),
    is not stabilizable. `solve_certified` builds the friends of a p2
    compensator by the same steps, from the splits of its analysis.
    """
    qv = _twin_quadruple(kind, q)
    # the norm of q's A on either side, as the p2 precondition takes it
    norm_A = _norm2(q.A) if qv.m == 1 else None
    bad = region.outside(_pair_fixed_modes(qv.A, qv.B, tol, norm_A))
    if bad:
        raise NotStabilizablePair(
            f"pair (A, B) has unstabilizable modes {np.round(bad, 6)}"
        )
    return _stabilized(kind, _twin_split(kind, V_or_S, q, tol), region, tol)


def spectral_report(V_or_S: Subspace, kind: str, q: Quadruple,
                    cert: FriendCertificate | None = None,
                    tol: ToleranceProfile = DEFAULT_TOL) -> SpectralReport:
    """Fixed/assignable split of the spectrum attached to an invariant
    subspace, computed in adapted orthonormal coordinates.

    The internal part is the split of the twin V (`_TwinSplit`), the
    external one the controllable split of the map and inputs induced on
    X / V. The split of an input-containing S is that of S^perp in the dual
    with the internal and external parts swapped: the map induced on Q_S/S
    is the transpose of the one on S^perp/Q_S^perp, and S ^ (unobservable)
    is the complement of S^perp + (reachable) in the dual."""
    split = _twin_split(kind, V_or_S, q, tol, cert)
    _, _, _, (T1q, _, fixed_ext) = _external_split(split, split.F, tol)
    internal, external = tuple(split.fixed), tuple(fixed_ext)
    dims = (split.T1.shape[1], T1q.shape[1])
    if kind == OUTPUT_NULLING:
        return SpectralReport(internal, external, dims)
    return SpectralReport(external, internal, dims[::-1])


def invariant_zeros(q: Quadruple, tol: ToleranceProfile = DEFAULT_TOL) -> np.ndarray:
    """Spectrum induced on V*/R* by any friend of V*: the fixed spectrum of
    the split of V*, whose reachability part is R*."""
    return _twin_split(OUTPUT_NULLING, vstar(q, tol), q, tol).fixed


def _stabilizability_subspace(kind: str, V_or_S: Subspace, q: Quadruple,
                              region: StabilityRegion,
                              tol: ToleranceProfile) -> Subspace:
    """V*_g from the split of V* (output nulling), or S*_g from the split of
    S* (input containing): the complement of V*_g on the dual quadruple.

    In the coordinates of the twin's basis, V*_g is T1 (R*) plus the stable
    modal part of the map on the complement T2 of T1, the map whose
    spectrum is the split's `fixed`, i.e. the invariant zeros. A zero is
    stable when `StabilityRegion.outside` accepts it, so one within the
    region guard of the boundary is decided as unstable, as every fixed
    spectrum of the analyses is."""
    split = _twin_split(kind, V_or_S, q, tol)
    T2 = split.T2
    stable = _region_part(T2.T @ split.Av @ T2, region).basis
    Vg = Subspace._adopt(q.n, split.V.basis @ np.hstack([split.T1, T2 @ stable]))
    return Vg if kind == OUTPUT_NULLING else complement(Vg, tol)


def vstar_g(q: Quadruple, region: StabilityRegion,
            tol: ToleranceProfile = DEFAULT_TOL) -> Subspace:
    """Largest stabilizability output-nulling subspace: R* plus the stable
    modal part of the map induced on V*/R*, both read from the split of
    V* that `invariant_zeros` reads."""
    return _stabilizability_subspace(OUTPUT_NULLING, vstar(q, tol), q, region, tol)


def sstar_g(q: Quadruple, region: StabilityRegion,
            tol: ToleranceProfile = DEFAULT_TOL) -> Subspace:
    """Smallest detectability input-containing subspace, by duality."""
    return complement(vstar_g(q.dual(), region, tol), tol)
