"""Tolerance-aware subspace arithmetic over real coordinate spaces.

A subspace is stored as an ambient dimension plus a matrix with orthonormal
columns (zero columns for the trivial subspace). All operations are pure
functions of immutable inputs; the only global state is the dgesdd, dgees
and dgehrd workspace sizes below, functions of shape alone. What is derived
from an immutable object alone is one function decorated with `_kept`, kept
read-only in the object's memo, which lives and dies with it: a subspace
keeps its orthogonal complement per tolerance profile (`complement`). The
records that make their own arrays read-only when they are built (a
Subspace, and the Quadruple, PlantSystem and Compensator of the other
modules) declare `_frozen_by_construction`, so the memo does not walk them
again; a tolerance profile, part of most memo keys, is hashed once.

Rank decisions use a relative singular-value cutoff, comparisons use
principal angles computed through their sines (well conditioned for the
tiny angles we care about). A sum or intersection with a full or trivial
operand is decided by dimension, with no rank decision at all.

Invariant hulls and the controllable splits of `geometry` run one
orthogonal staircase (`_staircase`, Paige, IEEE TAC 26, 1981) that carries
the orthogonal complement of its basis along: each step is one SVD of the
newest block mapped into that complement, and splits the complement in
two, so neither a projection nor a complement SVD is ever taken. A caller
that reads only the uncontrollable modes of a single-input pair (the p2
precondition and a stabilizing friend's pair check) reads them off one
controller-Hessenberg reduction instead (`_hessenberg_modes`, one LAPACK
dgehrd, workspace kept per order in `_GEHRD_LWORK`), whose subdiagonal is
the single-input staircase's sequence of step norms, cut by the same rule.

Every real SVD and spectral norm of the package goes through the private
kernel `_svd`/`_norm2`, which calls LAPACK dgesdd (the routine behind
numpy.linalg.svd) through scipy directly: on matrices this small numpy's
wrapper costs more than the LAPACK work. A caller that reads one factor
takes `_svd_u` or `_svd_vh`, which copy only that one into C order; all
three make their one dgesdd call through `_gesdd`. Its workspace size
is queried once per shape and kept in `_GESDD_LWORK`: LAPACK's query
depends only on the routine, its flags and the shape, so the cached size is
the one a fresh query returns, and the one numpy asks for. A matrix with
an empty side, which dgesdd rejects, gets numpy's empty or identity
factors without a call. Every real Schur form of the package (`_schur`:
`_region_part` and the stabilizing gain's) calls LAPACK dgees directly,
with scipy's workspace, queried once per order and kept in `_GEES_LWORK`,
so it is scipy.linalg.schur's, bit for bit. Every eigenvalue
list of the float geometry (`_eigvals`), every inverse (`_inv`), every
single determinant (`_det`) and every QR basis (`_qr_basis`) are computed
by the gufunc that numpy.linalg itself calls, in numpy.linalg's error state
(`_linalg_state`), so those results are numpy's by construction. Every
matrix these kernels return is C-ordered, as numpy's are: the layout of a
factor decides the rounding of every product taken with it later. (The
Schur kernel's are Fortran-ordered, as scipy's are.)

The dgesdd, dgees and dgehrd kernels run scipy's LAPACK, and so does the
stabilizing gain's dtrsyl. Where numpy runs its own, the dgesdd kernel
agrees with numpy bit for bit only where numpy's and scipy's builds round
alike. They did with the numpy 2.4.6 and scipy 1.17.1 wheels (OpenBLAS
0.3.31 and 0.3.30). A numpy and a scipy linked to different LAPACK
implementations (say MKL and OpenBLAS) may differ in the last bits, and
that kernel's bit-parity tests then fail.
"""

from __future__ import annotations

import functools
import inspect
import math
from dataclasses import dataclass, field

import numpy as np
from numpy.linalg import LinAlgError, _umath_linalg
from scipy.linalg.lapack import dgees, dgehrd, dgehrd_lwork, dgesdd, dgesdd_lwork

from .errors import BoundarySpectrum, DimensionMismatch, InvalidInput

# Orthonormality slack for bases produced by SVD/QR; not user-tunable.
ORTHO_TOL = 1e-12


# dgesdd workspace sizes by (m, n, compute_uv, full_matrices).
_GESDD_LWORK: dict = {}


def _gesdd(M: np.ndarray, compute_uv: int, full_matrices: int):
    # numpy's workspace, from the same query: once min(M.shape) exceeds
    # LAPACK's block size, dgesdd rounds differently for another lwork.
    # Positional flags: the binding parses keywords several microseconds slower.
    rows, cols = M.shape
    if not rows or not cols:
        # dgesdd rejects an empty side (and prints so); numpy returns no
        # singular values and identity or empty factors
        if full_matrices:
            return np.eye(rows), np.zeros(0), np.eye(cols)
        return np.zeros((rows, 0)), np.zeros(0), np.zeros((0, cols))
    key = (rows, cols, compute_uv, full_matrices)
    lwork = _GESDD_LWORK.get(key)
    if lwork is None:
        lwork = _GESDD_LWORK[key] = int(dgesdd_lwork(*key)[0])
    u, s, vt, info = dgesdd(M, compute_uv, full_matrices, lwork)
    if info != 0:
        raise LinAlgError(f"SVD did not converge (dgesdd info {info})")
    return u, s, vt


# dgees workspace sizes by order.
_GEES_LWORK: dict = {}


def _schur(A: np.ndarray, select):
    """scipy.linalg.schur(A, output="real", sort=select), bit for bit,
    without its wrapper: (T, Z, sdim) with A = Z T Z^T, T quasi-triangular
    and the sdim eigenvalues that `select(re, im)` accepts in front. The
    workspace is scipy's, the query's answer for the order alone, asked
    once per order. Non-finite entries raise LinAlgError, as does a
    failure of dgees to converge or to reorder."""
    n = A.shape[0]
    if n == 0:
        return np.zeros((0, 0)), np.zeros((0, 0)), 0
    if not np.isfinite(A).all():
        raise LinAlgError("Array must not contain infs or NaNs")
    lwork = _GEES_LWORK.get(n)
    if lwork is None:
        lwork = _GEES_LWORK[n] = int(dgees(select, A, 1, 0, -1)[-2][0])
    T, sdim, _, _, Z, _, info = dgees(select, A, 1, 1, lwork)
    if info != 0:
        raise LinAlgError(f"Schur form not found (dgees info {info})")
    return T, Z, sdim


def _svd(M: np.ndarray, full_matrices: bool):
    """numpy.linalg.svd(M, full_matrices), bit for bit, without its wrapper.

    The factors come back C-ordered, as numpy returns them: the layout of U
    and Vh decides the rounding of every product taken with them later."""
    u, s, vt = _gesdd(M, 1, full_matrices)
    return np.ascontiguousarray(u), s, np.ascontiguousarray(vt)


def _svd_u(M: np.ndarray, full_matrices: bool):
    """(U, s) of `_svd`, bit for bit, for a caller that reads no Vh: only U
    is copied into C order."""
    u, s, _ = _gesdd(M, 1, full_matrices)
    return np.ascontiguousarray(u), s


def _svd_vh(M: np.ndarray, full_matrices: bool):
    """(s, Vh) of `_svd`, bit for bit, for a caller that reads no U: only
    Vh is copied into C order."""
    _, s, vt = _gesdd(M, 1, full_matrices)
    return s, np.ascontiguousarray(vt)


def _norm2(M: np.ndarray) -> float:
    """Spectral norm, numpy.linalg.norm(M, 2) bit for bit; 0.0 when empty."""
    if M.size == 0:
        return 0.0
    return float(_gesdd(M, 0, 0)[1][0])


def _linalg_state(failure: str | None) -> np.errstate:
    """numpy.linalg's error state for its gufuncs, as a decorator of the
    kernels that call them: overflow, division by zero and underflow pass
    silently, and the invalid flag, by which a gufunc reports a LAPACK
    failure, raises LinAlgError(failure). The det gufunc reports no failure
    (`failure` None): its invalid flag only marks arithmetic on NaNs, which
    passes silently too."""
    def fail(err, flag):
        raise LinAlgError(failure)
    return np.errstate(call=fail, invalid="call" if failure else "ignore",
                       over="ignore", divide="ignore", under="ignore")


def _check_square(M: np.ndarray) -> None:
    if M.shape != (M.shape[0], M.shape[0]):
        raise LinAlgError("Last 2 dimensions of the array must be square")


@_linalg_state("Eigenvalues did not converge")
def _eigvals(A: np.ndarray) -> np.ndarray:
    """numpy.linalg.eigvals(A), bit for bit, for a real square A. The
    result is real when every imaginary part is 0, as numpy's is; a
    non-square A or non-finite entries raise LinAlgError."""
    _check_square(A)
    if not np.isfinite(A).all():
        raise LinAlgError("Array must not contain infs or NaNs")
    w = _umath_linalg.eigvals(A, signature="d->D")
    return w if w.imag.any() else w.real


@_linalg_state("Singular matrix")
def _inv(M: np.ndarray) -> np.ndarray:
    """numpy.linalg.inv(M), bit for bit, for a real square M. A singular M
    raises LinAlgError("Singular matrix"), as numpy's does."""
    _check_square(M)
    return _umath_linalg.inv(M, signature="d->d")


@_linalg_state(None)
def _det(M: np.ndarray) -> float:
    """numpy.linalg.det(M), bit for bit, for a real square M, without its
    warnings: 0.0 when a pivot is exactly zero, +-inf on overflow, 1.0 for
    0 x 0."""
    _check_square(M)
    return float(_umath_linalg.det(M, signature="d->d"))


@_linalg_state("Incorrect argument found while performing QR factorization")
def _qr_basis(M: np.ndarray) -> np.ndarray:
    """Q of numpy.linalg.qr(M) in its reduced mode, bit for bit, C-ordered.
    An M with no columns (or rows) gives an empty Q of min(m, n) columns."""
    # qr_r_raw factors its argument in place, so it gets a copy, as in numpy
    qr = M.astype(float, copy=True)
    tau = _umath_linalg.qr_r_raw(qr, signature="d->d")
    return _umath_linalg.qr_reduced(qr, tau, signature="dd->d")


@dataclass(frozen=True)
class ToleranceProfile:
    """Numerical thresholds shared across the package.

    rank_rel  - relative singular-value cutoff for numerical rank
    angle     - principal-angle threshold for equality/containment (radians)
    residual  - norm threshold for inclusion/invariance residuals

    It compares and hashes by its three fields. Most memo keys hold a
    profile, so its hash, the dataclass's, is computed once, when the
    profile is made, not on every lookup.
    """

    rank_rel: float = 1e-10
    angle: float = 1e-8
    residual: float = 1e-8

    def __post_init__(self):
        # each message begins with the field it rejects
        for name, value in (("rank_rel", self.rank_rel), ("angle", self.angle),
                            ("residual", self.residual)):
            if not math.isfinite(value):
                raise InvalidInput(f"{name} must be finite, got {value!r}")
            if name == "rank_rel" and not 0 < value < 1:
                raise InvalidInput(f"rank_rel must lie in (0, 1), got {value!r}")
            if value <= 0:
                raise InvalidInput(f"{name} must be strictly positive, got {value!r}")
        object.__setattr__(self, "_hash",
                           hash((self.rank_rel, self.angle, self.residual)))

    def __hash__(self):
        return self._hash


DEFAULT_TOL = ToleranceProfile()

CONTINUOUS = "continuous"
DISCRETE = "discrete"

# Numerical guard against eigenvalues hugging the region boundary: one this
# close to it, or outside, violates the region, and one this close to it on
# either side is ambiguous for `modal_subspace`.
REGION_GUARD = 1e-8


@dataclass(frozen=True)
class StabilityRegion:
    """Open left half-plane (continuous) or open unit disc (discrete)."""

    kind: str = CONTINUOUS

    def __post_init__(self):
        if self.kind not in (CONTINUOUS, DISCRETE):
            raise InvalidInput(f"unknown region kind {self.kind!r}")

    def boundary_distance(self, lam: complex) -> float:
        """Signed distance into the region; positive means inside."""
        if self.kind == CONTINUOUS:
            return -lam.real
        return 1.0 - abs(lam)

    def outside(self, eigenvalues) -> list:
        """The eigenvalues that violate the region, boundary guard included:
        the one test of every fixed spectrum and closed-loop spectrum."""
        return [l for l in eigenvalues if self.boundary_distance(l) <= REGION_GUARD]


@dataclass(frozen=True, eq=False)
class Subspace:
    """A linear subspace of R^ambient_dim with an orthonormal basis matrix."""

    _frozen_by_construction = True

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
    """The number of singular values above rank_rel * max(s_0, scale) *
    max(shape), or above 0 when that cutoff is not positive. `s` must be in
    descending order, as dgesdd returns it: the count stops at the first
    value that is not above the cutoff. NaN values are skipped, not counted."""
    values = s.tolist()
    if not values:
        return 0
    cutoff = rank_rel * max(values[0], scale) * max(shape)
    if not cutoff > 0:
        cutoff = 0.0
    r = 0
    for v in values:
        if v > cutoff:
            r += 1
        elif v == v:  # not NaN: no later value is above the cutoff
            break
    return r


def span_of(M, tol: ToleranceProfile = DEFAULT_TOL, scale: float = 0.0) -> Subspace:
    """Column space of M as a Subspace (ambient = row count).

    `scale` anchors the rank cutoff when M may be a roundoff shadow of an
    exact zero (e.g. a projected matrix); singular values below
    rank_rel * scale * max(shape) are then treated as zero.
    """
    M = _as_matrix(M)
    n = M.shape[0]
    if 0 in M.shape:
        return Subspace.trivial(n)
    U, s = _svd_u(M, False)
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
    s, Vh = _svd_vh(M, True)
    r = _numerical_rank(s, M.shape, tol.rank_rel, scale)
    return Subspace._adopt(n, Vh[r:].T)


def _kept(f):
    """Decorator: `f(obj, *args)`, once per `args` for the immutable `obj`,
    in the package's one cache, the `_memo` dict of `obj`, made on first
    use, under `(f, *args)`: no two derivations share a key. Every caller
    shares the value, so its arrays are made read-only (`_frozen`), except
    in records that made them read-only when they were built. No value is
    None. Keyword arguments are bound to their positions, as `f` would."""
    bind = inspect.signature(f).bind

    @functools.wraps(f)
    def kept(obj=None, /, *args, **kwargs):
        if kwargs or obj is None:  # named arguments: bound, then passed by position
            given = () if obj is None else (obj, *args)
            return kept(*bind(*given, **kwargs).args)
        key = (f,) + args
        try:
            return obj._memo[key]
        except AttributeError:
            object.__setattr__(obj, "_memo", {})
        except KeyError:
            pass
        value = obj._memo[key] = _frozen(f(obj, *args))
        return value

    return kept


def _frozen(value):
    """`value`, with every array in it made read-only: a bare array, or one
    held, at any depth, by a tuple or a record (not by a record's `_memo`).
    A record whose type declares `_frozen_by_construction` (a Subspace,
    Quadruple, PlantSystem or Compensator) made every array it holds
    read-only when it was built, and is not walked."""
    if isinstance(value, np.ndarray):
        value.setflags(False)  # positional: numpy parses `write=` 0.1 us slower
    elif isinstance(value, tuple):
        for item in value:
            _frozen(item)
    elif (hasattr(value, "__dataclass_fields__")
          and not hasattr(value, "_frozen_by_construction")):
        for item in vars(value).values():
            _frozen(item)
    return value


def complement(S: Subspace, tol: ToleranceProfile = DEFAULT_TOL) -> Subspace:
    """Orthogonal complement, kept on S per tolerance profile: every call
    on one subspace returns the same object, and with it what that object
    keeps (`geometry._nulling_factors`)."""
    return _complement(S, tol)


@_kept
def _complement(S: Subspace, tol: ToleranceProfile) -> Subspace:
    if S.is_trivial:
        return Subspace.full(S.ambient_dim)
    if S.is_full:
        return Subspace.trivial(S.ambient_dim)
    return kernel_of(S.basis.T, tol)


def _check_same_ambient(S1: Subspace, S2: Subspace):
    if S1.ambient_dim != S2.ambient_dim:
        raise DimensionMismatch(
            f"ambient dimensions differ: {S1.ambient_dim} vs {S2.ambient_dim}"
        )


def combine(mode: str, S1: Subspace, S2: Subspace,
            tol: ToleranceProfile = DEFAULT_TOL) -> Subspace:
    """Sum or intersection of two subspaces of the same ambient space.

    A full or trivial operand decides the result by dimension alone, with
    no SVD: X + S = X, 0 + S = S, X ^ S = S and 0 ^ S = 0 return that
    operand itself, the same object."""
    _check_same_ambient(S1, S2)
    if mode == "sum":
        if S1.is_full or S2.is_trivial:
            return S1
        if S2.is_full or S1.is_trivial:
            return S2
        return span_of(np.concatenate((S1.basis, S2.basis), axis=1), tol)
    if mode == "intersect":
        if S1.is_trivial or S2.is_full:
            return S1
        if S2.is_trivial or S1.is_full:
            return S2
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
    P_perp = np.eye(S.ambient_dim) - S.projector()
    return kernel_of(P_perp @ M, tol, scale=_norm2(M))


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


def _staircase(A: np.ndarray, Q: np.ndarray, W: np.ndarray,
               tol: ToleranceProfile) -> tuple[np.ndarray, np.ndarray]:
    """The orthogonal controllability staircase of A (Paige, IEEE TAC 26,
    1981) from the orthonormal bases Q of a subspace and W of its
    orthogonal complement: bases of the smallest A-invariant subspace
    containing im Q and of its complement, [Q W] orthogonal throughout.

    The newest block Z of Q (at first Q itself) is mapped by A into the
    coordinates of W, and one SVD of Y = W^T A Z with full U = [U1 U2]
    splits W in two: Z <- W U1, the numerically nonzero left singular
    vectors, joins Q, and W <- W U2 stays the complement. No step projects
    and no complement is taken: each block is a product of orthonormal
    factors. The rank cut, rank_rel * max(s_0, max(1, ||A||)) * n, is taken
    against ||A||: orthonormalizing the image first would renormalize
    nearly dependent image directions and amplify roundoff into new dims.
    A step that adds nothing ends it, after at most n - 1 strict steps; an
    empty Q or W takes none, and no norm of A either. A Q that no step
    grows is returned itself; the blocks of a grown one are joined once."""
    if not (Q.shape[1] and W.shape[1]):
        return Q, W
    n = A.shape[0]
    scale = max(1.0, _norm2(A))
    blocks = [Q]
    Z = Q
    while Z.shape[1] and W.shape[1]:
        U, s = _svd_u(W.T @ (A @ Z), True)
        r = _numerical_rank(s, (n, n), tol.rank_rel, scale)
        if r == 0:
            break
        Z, W = W @ U[:, :r], W @ U[:, r:]
        blocks.append(Z)
    if len(blocks) > 1:
        Q = np.concatenate(blocks, axis=1)
    return Q, W


# dgehrd workspace sizes by order.
_GEHRD_LWORK: dict = {}


def _hessenberg_modes(A: np.ndarray, b: np.ndarray, tol: ToleranceProfile,
                      scale: float) -> np.ndarray:
    """The uncontrollable modes of the single-input pair (A, b), b one
    column of n, off one LAPACK dgehrd of the bordered matrix [0 0; b A]:
    the controller-Hessenberg form, with no basis.

    Its Householder reflectors map b to h_10 e_1 and A to upper Hessenberg
    form, so the subdiagonal h_10, h_21, ... is the sequence of step norms
    of the single-input staircase (`_staircase`, Paige 1981): ||b||, then
    the norm of each new direction's image off the directions before it.
    A zero b reaches nothing, a nonzero one reaches its own direction (the
    cut of its SVD, anchored on nothing, keeps any nonzero column), and
    each later step is cut by the staircase's own rule, rank_rel * max(|h|,
    scale) * n with scale = max(1, ||A||), which the caller passes. The
    first t steps kept span the reachable subspace, and the modes are the
    eigenvalues (`_eigvals`) of the trailing Hessenberg block past them;
    dgehrd keeps its reflectors below the subdiagonal, which are cleared."""
    n = A.shape[0]
    H = np.zeros((n + 1, n + 1), order="F")
    H[1:, 0] = b[:, 0]
    H[1:, 1:] = A
    lwork = _GEHRD_LWORK.get(n + 1)
    if lwork is None:
        lwork = _GEHRD_LWORK[n + 1] = int(dgehrd_lwork(n + 1)[0])
    h, _, info = dgehrd(H, 0, n, lwork, 1)
    if info != 0:
        raise LinAlgError(f"Hessenberg form not found (dgehrd info {info})")
    steps = np.diagonal(h, -1).tolist()
    t = 1 if b.any() else 0
    while 0 < t < n:
        v = abs(steps[t])
        if not v > tol.rank_rel * max(v, scale) * n:
            break
        t += 1
    if t == n:
        return np.zeros(0, complex)
    return _eigvals(np.triu(h[t + 1:, t + 1:], -1))


def invariant_hull(direction: str, A, S: Subspace,
                   tol: ToleranceProfile = DEFAULT_TOL) -> Subspace:
    """Smallest A-invariant subspace containing S, or largest contained in S.

    Both are read off one orthogonal staircase (`_staircase`, Paige 1981),
    which carries the complement of the hull along, started from the bases
    of S and of its complement: the growing direction returns its Q; the
    shrinking one runs the dual staircase of A^T from (S^perp, S), since
    the largest A-invariant subspace in S is the complement of the smallest
    A^T-invariant one containing S^perp, and returns its W.
    """
    A = _as_matrix(A)
    n = S.ambient_dim
    if A.shape != (n, n):
        raise DimensionMismatch("A must be square with the ambient dimension")
    if direction == "smallest_containing":
        Q, _ = _staircase(A, S.basis, complement(S, tol).basis, tol)
        return Subspace._adopt(n, Q) if Q is not S.basis else S
    if direction == "largest_contained":
        _, W = _staircase(A.T, complement(S, tol).basis, S.basis, tol)
        return Subspace._adopt(n, W) if W is not S.basis else S
    raise InvalidInput(f"unknown hull direction {direction!r}")


def _region_part(A: np.ndarray, region: StabilityRegion) -> Subspace:
    """Maximal invariant subspace of the square A whose induced spectrum
    `region.outside` accepts, so an eigenvalue within REGION_GUARD of the
    boundary counts as outside. Uses an ordered real Schur decomposition;
    complex pairs stay in 2x2 blocks."""
    n = A.shape[0]
    if n == 0:
        return Subspace.trivial(0)
    _, Z, sdim = _schur(A, lambda re, im: not region.outside([complex(re, im)]))
    return Subspace._adopt(n, Z[:, :sdim])


def modal_subspace(A, region: StabilityRegion) -> Subspace:
    """Maximal A-invariant subspace whose induced spectrum lies in the region.

    Raises BoundarySpectrum if an eigenvalue is ambiguous, i.e. within
    REGION_GUARD of the region boundary on either side. Otherwise inside
    the region means inside by more than the guard, and the subspace is
    `_region_part`'s.
    """
    A = _as_matrix(A)
    n = A.shape[0]
    if A.shape != (n, n):
        raise DimensionMismatch("A must be square")
    on_boundary = [l for l in _eigvals(A)
                   if abs(region.boundary_distance(l)) <= REGION_GUARD]
    if on_boundary:
        raise BoundarySpectrum(
            "eigenvalue(s) on the stability-region boundary", on_boundary
        )
    return _region_part(A, region)


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

