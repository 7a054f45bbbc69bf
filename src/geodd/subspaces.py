"""Tolerance-aware subspace arithmetic over real coordinate spaces.

A subspace is stored as an ambient dimension plus a matrix with orthonormal
columns (zero columns for the trivial subspace). All operations are pure
functions of immutable inputs; nothing here keeps global state.

Rank decisions use a relative singular-value cutoff, comparisons use
principal angles computed through their sines (well conditioned for the
tiny angles we care about).

Every real SVD and spectral norm of the package goes through the private
kernel `_svd`/`_singular_values`/`_norm2`, which calls LAPACK dgesdd (the
routine behind numpy.linalg.svd) directly: on matrices this small numpy's
wrapper costs more than the LAPACK work. The kernel runs scipy's LAPACK and
numpy.linalg.svd runs numpy's, so the two agree bit for bit only where those
builds round alike. They did with the numpy 2.4.6 and scipy 1.17.1 wheels
(OpenBLAS 0.3.31 and 0.3.30); a numpy and a scipy linked to different LAPACK
implementations (say MKL and OpenBLAS) may differ in the last bits, and the
kernel's bit-parity tests then fail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import dgesdd, dgesdd_lwork

from .errors import BoundarySpectrum, DimensionMismatch, InvalidInput

# Orthonormality slack for bases produced by SVD/QR; not user-tunable.
ORTHO_TOL = 1e-12


def _gesdd(M: np.ndarray, compute_uv: int, full_matrices: int):
    # numpy's workspace, from the same query: once min(M.shape) exceeds
    # LAPACK's block size, dgesdd rounds differently for another lwork.
    # Positional flags: the binding parses keywords several microseconds slower.
    lwork, _ = dgesdd_lwork(*M.shape, compute_uv, full_matrices)
    u, s, vt, info = dgesdd(M, compute_uv, full_matrices, int(lwork))
    if info != 0:
        raise np.linalg.LinAlgError(f"SVD did not converge (dgesdd info {info})")
    return u, s, vt


def _svd(M: np.ndarray, full_matrices: bool):
    """numpy.linalg.svd(M, full_matrices), bit for bit, without its wrapper.

    The factors come back C-ordered, as numpy returns them: the layout of U
    and Vh decides the rounding of every product taken with them later."""
    u, s, vt = _gesdd(M, 1, full_matrices)
    return np.ascontiguousarray(u), s, np.ascontiguousarray(vt)


def _singular_values(M: np.ndarray) -> np.ndarray:
    """numpy.linalg.svd(M, compute_uv=False), bit for bit."""
    return _gesdd(M, 0, 0)[1]


def _norm2(M: np.ndarray) -> float:
    """Spectral norm, numpy.linalg.norm(M, 2) bit for bit; 0.0 when empty."""
    if M.size == 0:
        return 0.0
    return float(_gesdd(M, 0, 0)[1][0])


@dataclass(frozen=True)
class ToleranceProfile:
    """Numerical thresholds shared across the package.

    rank_rel  - relative singular-value cutoff for numerical rank
    angle     - principal-angle threshold for equality/containment (radians)
    residual  - norm threshold for inclusion/invariance residuals
    """

    rank_rel: float = 1e-10
    angle: float = 1e-8
    residual: float = 1e-8

    def __post_init__(self):
        if not (0 < self.rank_rel < 1):
            raise InvalidInput("rank_rel must lie in (0, 1)")
        if self.angle <= 0 or self.residual <= 0:
            raise InvalidInput("tolerances must be strictly positive")


DEFAULT_TOL = ToleranceProfile()

CONTINUOUS = "continuous"
DISCRETE = "discrete"

# Eigenvalues closer than this to a region boundary are ambiguous.
BOUNDARY_CLUSTER_TOL = 1e-9


@dataclass(frozen=True)
class StabilityRegion:
    """Open left half-plane (continuous) or open unit disc (discrete),
    optionally shrunk by a nonnegative margin."""

    kind: str = CONTINUOUS
    margin: float = 0.0

    def __post_init__(self):
        if self.kind not in (CONTINUOUS, DISCRETE):
            raise InvalidInput(f"unknown region kind {self.kind!r}")
        if self.margin < 0:
            raise InvalidInput("margin must be nonnegative")

    def boundary_distance(self, lam: complex) -> float:
        """Signed distance into the (shrunk) region; positive means inside."""
        if self.kind == CONTINUOUS:
            return -lam.real - self.margin
        return 1.0 - self.margin - abs(lam)

    def contains(self, eigenvalues, margin: float | None = None) -> bool:
        extra = self.margin if margin is None else margin
        region = StabilityRegion(self.kind, extra)
        return all(region.boundary_distance(l) > 0 for l in np.atleast_1d(eigenvalues))


@dataclass(frozen=True, eq=False)
class Subspace:
    """A linear subspace of R^ambient_dim with an orthonormal basis matrix."""

    ambient_dim: int
    basis: np.ndarray = field(repr=False)

    def __post_init__(self):
        # A copy, so that freezing it leaves the caller's array writable.
        self._freeze(np.array(self.basis, dtype=float))

    @classmethod
    def _adopt(cls, ambient_dim: int, basis: np.ndarray) -> "Subspace":
        """A subspace on a float array that the caller has just computed and
        keeps no reference to (or a view into one). The array is checked
        and frozen in place, not copied: it keeps the memory layout that
        made it, and with it the rounding of every later product."""
        S = object.__new__(cls)
        object.__setattr__(S, "ambient_dim", ambient_dim)
        S._freeze(basis)
        return S

    def _freeze(self, b: np.ndarray):
        if b.ndim != 2 or b.shape[0] != self.ambient_dim:
            raise DimensionMismatch(
                f"basis shape {b.shape} incompatible with ambient dim {self.ambient_dim}"
            )
        if b.shape[1] > self.ambient_dim:
            raise DimensionMismatch("subspace dimension exceeds ambient dimension")
        if b.size:
            # ||B^T B - I||_F, on the flat buffer of the Gram matrix
            gram = (b.T @ b).ravel()
            gram[::b.shape[1] + 1] -= 1.0
            # written so that a NaN norm (a NaN entry) fails it too
            if not math.sqrt(gram @ gram) <= 10 * ORTHO_TOL:
                raise InvalidInput("basis columns are not orthonormal")
        object.__setattr__(self, "basis", b)
        b.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    @property
    def is_trivial(self) -> bool:
        return self.dim == 0

    @property
    def is_full(self) -> bool:
        return self.dim == self.ambient_dim

    @classmethod
    def trivial(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, np.zeros((ambient_dim, 0)))

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, np.eye(ambient_dim))

    def projector(self) -> np.ndarray:
        return self.basis @ self.basis.T

    def __eq__(self, other) -> bool:
        if not isinstance(other, Subspace):
            return NotImplemented
        return equal(self, other, DEFAULT_TOL)

    __hash__ = None  # tolerance-based equality is not hashable


def _as_matrix(M, what="matrix") -> np.ndarray:
    M = np.asarray(M, dtype=float)
    if M.ndim == 1:
        M = M.reshape(-1, 1)
    if M.ndim != 2:
        raise InvalidInput(f"{what} must be two-dimensional")
    if M.size and not np.isfinite(M).all():
        raise InvalidInput(f"{what} contains non-finite entries")
    return M


def _numerical_rank(s: np.ndarray, shape, rank_rel: float, scale: float) -> int:
    if s.size == 0:
        return 0
    cutoff = rank_rel * max(s[0], scale) * max(shape)
    return np.count_nonzero(s > cutoff) if cutoff > 0 else np.count_nonzero(s > 0)


def span_of(M, tol: ToleranceProfile = DEFAULT_TOL, scale: float = 0.0) -> Subspace:
    """Column space of M as a Subspace (ambient = row count).

    `scale` anchors the rank cutoff when M may be a roundoff shadow of an
    exact zero (e.g. a projected matrix); singular values below
    rank_rel * scale * max(shape) are then treated as zero.
    """
    M = _as_matrix(M)
    n = M.shape[0]
    if M.shape[1] == 0:
        return Subspace.trivial(n)
    U, s, _ = _svd(M, False)
    r = _numerical_rank(s, M.shape, tol.rank_rel, scale)
    return Subspace._adopt(n, U[:, :r])


def kernel_of(M, tol: ToleranceProfile = DEFAULT_TOL, scale: float = 0.0) -> Subspace:
    """Null space of M as a Subspace (ambient = column count).

    `scale` plays the same role as in span_of.
    """
    M = _as_matrix(M)
    n = M.shape[1]
    if M.shape[0] == 0 or n == 0:
        return Subspace.full(n)
    _, s, Vh = _svd(M, True)
    r = _numerical_rank(s, M.shape, tol.rank_rel, scale)
    return Subspace._adopt(n, Vh[r:].T)


def complement(S: Subspace, tol: ToleranceProfile = DEFAULT_TOL) -> Subspace:
    """Orthogonal complement."""
    if S.is_trivial:
        return Subspace.full(S.ambient_dim)
    return kernel_of(S.basis.T, tol)


def _check_same_ambient(S1: Subspace, S2: Subspace):
    if S1.ambient_dim != S2.ambient_dim:
        raise DimensionMismatch(
            f"ambient dimensions differ: {S1.ambient_dim} vs {S2.ambient_dim}"
        )


def combine(mode: str, S1: Subspace, S2: Subspace,
            tol: ToleranceProfile = DEFAULT_TOL) -> Subspace:
    """Sum or intersection of two subspaces of the same ambient space."""
    _check_same_ambient(S1, S2)
    if mode == "sum":
        return span_of(np.hstack([S1.basis, S2.basis]), tol)
    if mode == "intersect":
        # S1 ^ S2 = B1 ker((I - P2) B1): one rank decision, on the sines of
        # the principal angles (Bjorck & Golub 1973); the product stays orthonormal.
        B1, B2 = S1.basis, S2.basis
        null = kernel_of(B1 - B2 @ (B2.T @ B1), tol, scale=1.0)
        return Subspace._adopt(S1.ambient_dim, B1 @ null.basis)
    raise InvalidInput(f"unknown combine mode {mode!r}")


def preimage(M, S: Subspace, tol: ToleranceProfile = DEFAULT_TOL) -> Subspace:
    """{x : M x in S}; the kernel of M after projecting out S."""
    M = _as_matrix(M)
    if M.shape[0] != S.ambient_dim:
        raise DimensionMismatch(
            f"M maps into R^{M.shape[0]} but S lives in R^{S.ambient_dim}"
        )
    scale = _norm2(M)
    return _preimage(M, S, tol, scale)


def _preimage(M: np.ndarray, S: Subspace, tol: ToleranceProfile,
              scale: float) -> Subspace:
    """`preimage` of a checked M whose 2-norm `scale` the caller already has."""
    P_perp = np.eye(S.ambient_dim) - S.projector()
    return kernel_of(P_perp @ M, tol, scale=scale)


def image_under(M, S: Subspace, tol: ToleranceProfile = DEFAULT_TOL) -> Subspace:
    """M S = span of M applied to a basis of S."""
    M = _as_matrix(M)
    if M.shape[1] != S.ambient_dim:
        raise DimensionMismatch("matrix/subspace shape mismatch in image")
    scale = _norm2(M)
    return span_of(M @ S.basis, tol, scale=scale)


def containment_residual(inner: Subspace, outer: Subspace) -> float:
    """sin of the largest principal angle between `inner` and its projection
    into `outer`; zero iff inner is a subset of outer."""
    _check_same_ambient(inner, outer)
    if inner.is_trivial:
        return 0.0
    resid = inner.basis - outer.basis @ (outer.basis.T @ inner.basis)
    return _norm2(resid)


def contains(outer: Subspace, inner: Subspace,
             tol: ToleranceProfile = DEFAULT_TOL) -> bool:
    return containment_residual(inner, outer) <= tol.angle


def equal(S1: Subspace, S2: Subspace, tol: ToleranceProfile = DEFAULT_TOL) -> bool:
    _check_same_ambient(S1, S2)
    if S1.dim != S2.dim:
        return False
    return contains(S2, S1, tol) and contains(S1, S2, tol)


def principal_angles(S1: Subspace, S2: Subspace) -> np.ndarray:
    """Principal angles (radians, ascending), sine-based for small angles."""
    _check_same_ambient(S1, S2)
    k = min(S1.dim, S2.dim)
    if k == 0:
        return np.zeros(0)
    cosines = np.clip(_singular_values(S1.basis.T @ S2.basis), 0, 1)
    angles = np.arccos(cosines)
    # Refine the small angles (cosine resolution bottoms out near sqrt(eps)).
    small = cosines > 0.5
    if small.any():
        inner = S1 if S1.dim <= S2.dim else S2
        outer = S2 if S1.dim <= S2.dim else S1
        resid = inner.basis - outer.basis @ (outer.basis.T @ inner.basis)
        sines = np.sort(np.clip(_singular_values(resid), 0, 1))
        angles[small] = np.arcsin(sines[small])
    return np.sort(angles)


def relate(S1: Subspace, S2: Subspace, tol: ToleranceProfile = DEFAULT_TOL) -> str:
    """One of 'equal', 'contained' (S1 in S2), 'contains', 'incomparable'."""
    _check_same_ambient(S1, S2)
    fwd = contains(S2, S1, tol)
    bwd = contains(S1, S2, tol)
    if fwd and bwd:
        return "equal"
    if fwd:
        return "contained"
    if bwd:
        return "contains"
    return "incomparable"


def invariant_hull(direction: str, A, S: Subspace,
                   tol: ToleranceProfile = DEFAULT_TOL) -> Subspace:
    """Smallest A-invariant subspace containing S, or largest contained in S.

    The growing iteration S, S + A S, ... stabilizes in at most n-1 strict
    steps; the shrinking direction is computed through its dual.
    """
    A = _as_matrix(A)
    n = S.ambient_dim
    if A.shape != (n, n):
        raise DimensionMismatch("A must be square with the ambient dimension")
    if direction == "smallest_containing":
        # Rank decisions happen on the raw augmented matrix [basis, A basis]:
        # orthonormalizing the image separately would renormalize nearly
        # dependent image directions and amplify roundoff into new dims.
        scale = max(1.0, _norm2(A))
        current = S
        for _ in range(n + 1):
            grown = span_of(np.hstack([current.basis, A @ current.basis]),
                            tol, scale=scale)
            if grown.dim == current.dim:
                return grown
            current = grown
        return current
    if direction == "largest_contained":
        dual = invariant_hull("smallest_containing", A.T, complement(S, tol), tol)
        return complement(dual, tol)
    raise InvalidInput(f"unknown hull direction {direction!r}")


def modal_subspace(A, region: StabilityRegion,
                   tol: ToleranceProfile = DEFAULT_TOL) -> Subspace:
    """Maximal A-invariant subspace whose induced spectrum lies in the region.

    Uses an ordered real Schur decomposition; complex pairs stay in 2x2
    blocks. Raises BoundarySpectrum if an eigenvalue is ambiguous, i.e.
    within the clustering tolerance of the (shrunk) region boundary.
    """
    A = _as_matrix(A)
    n = A.shape[0]
    if A.shape != (n, n):
        raise DimensionMismatch("A must be square")
    if n == 0:
        return Subspace.trivial(0)
    eigs = np.linalg.eigvals(A)
    on_boundary = [l for l in eigs
                   if abs(region.boundary_distance(l)) <= BOUNDARY_CLUSTER_TOL]
    if on_boundary:
        raise BoundarySpectrum(
            "eigenvalue(s) on the stability-region boundary", on_boundary
        )

    def _inside(re, im):
        return region.boundary_distance(complex(re, im)) > 0

    _, Z, sdim = scipy.linalg.schur(A, output="real", sort=_inside)
    return Subspace._adopt(n, Z[:, :sdim])


def extended_ops(selector: str, W: Subspace, split: int,
                 tol: ToleranceProfile = DEFAULT_TOL) -> Subspace:
    """Projection onto / intersection with the leading `split` coordinates.

    project:   {x : exists p with (x, p) in W}
    intersect: {x : (x, 0) in W}
    """
    if not 0 <= split <= W.ambient_dim:
        raise DimensionMismatch("split exceeds the ambient dimension")
    top = W.basis[:split, :]
    # Basis columns are unit vectors, so 1.0 is the honest scale for blocks
    # of them that may be roundoff away from zero.
    if selector == "project":
        return span_of(top, tol, scale=1.0)
    if selector == "intersect":
        bottom_kernel = kernel_of(W.basis[split:, :], tol, scale=1.0)
        return span_of(top @ bottom_kernel.basis, tol, scale=1.0)
    raise InvalidInput(f"unknown selector {selector!r}")


def lifted_basis(S: Subspace, extra: int) -> np.ndarray:
    """Orthonormal basis [S 0; 0 I] of S x R^extra inside R^(n+extra)."""
    n = S.ambient_dim
    T = np.zeros((n + extra, S.dim + extra))
    T[:n, :S.dim] = S.basis
    T[n:, S.dim:] = np.eye(extra)
    return T


def embed(S: Subspace, total_dim: int, offset: int = 0,
          tol: ToleranceProfile = DEFAULT_TOL) -> Subspace:
    """S viewed inside R^total_dim, occupying coordinates [offset, offset+n)."""
    if offset + S.ambient_dim > total_dim:
        raise DimensionMismatch("embedded block does not fit")
    b = np.zeros((total_dim, S.dim))
    b[offset:offset + S.ambient_dim, :] = S.basis
    return Subspace._adopt(total_dim, b)
