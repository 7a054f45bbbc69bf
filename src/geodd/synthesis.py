"""Solvers for the two decoupling problems.

Condition analysis, the affine family of static output-feedback parameters
K, well-posedness selection, compensator construction, and closed-loop
assembly. Everything runs in floating point except one step: when the
screen finds no well-posed member of the star-pair family, the
well-posedness condition rebuilds the family in exact rational arithmetic,
and its determinant grid proves or refutes the obstruction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import exact
from .errors import (
    AllSingular,
    CertificateFailed,
    DimensionMismatch,
    GeoddError,
    Infeasible,
    InvalidInput,
    NoSolution,
    NotWellPosed,
    WellPosednessObstruction,
    WellPosednessViolated,
)
from .geometry import (
    INPUT_CONTAINING,
    OUTPUT_NULLING,
    _bd_norm,
    _pair_fixed_modes,
    _stabilized,
    _twin_split,
    _TwinSplit,
    friend,
)
from .lattice import (
    PlantSystem,
    _star_coupling,
    _star_pair,
    vm_sM,
)
from .subspaces import (
    DEFAULT_TOL,
    Subspace,
    ToleranceProfile,
    _det,
    _inv,
    _kept,
    _norm2,
    _numerical_rank,
    _svd,
    combine,
    lifted_basis,
    span_of,
)
from .verify import ClosedLoop, certify_decoupled

# Well-posedness margin: |det(I + K D_y)| >= DELTA_WP * (1 + ||K D_y||).
DELTA_WP = 1e-8

# Gaussian members of a K family screened after its projected unit steps.
SAMPLE_TRIALS = 64


@dataclass(frozen=True, eq=False)
class Compensator:
    """Dynamic output-feedback regulator (A_c, B_c, C_c, D_c).

    The matrices are read-only copies, as a `PlantSystem`'s are, so that
    the non-finite check holds for the compensator's lifetime; the caller's
    arrays stay writable."""

    _frozen_by_construction = True

    A_c: np.ndarray
    B_c: np.ndarray
    C_c: np.ndarray
    D_c: np.ndarray

    def __post_init__(self):
        names = ("A_c", "B_c", "C_c", "D_c")
        Ac, Bc, Cc, Dc = mats = [np.array(getattr(self, name), dtype=float, ndmin=2)
                                 for name in names]
        for name, M in zip(names, mats):
            if M.size and not np.isfinite(M).all():
                raise InvalidInput(f"{name} contains non-finite entries")
        s = Ac.shape[0]
        if Ac.shape != (s, s) or Bc.shape[0] != s or Cc.shape[1] != s:
            raise DimensionMismatch("inconsistent compensator dimensions")
        if Dc.shape != (Cc.shape[0], Bc.shape[1]):
            raise DimensionMismatch("D_c must be m x p")
        self._adopt(mats)

    @classmethod
    def _checked(cls, A_c, B_c, C_c, D_c) -> "Compensator":
        """A compensator on float matrices that the caller has just built
        and checked as `__post_init__` does (finite, of consistent shapes)
        and keeps no reference to: they are frozen in place, not copied,
        and not checked again."""
        comp = object.__new__(cls)
        comp._adopt((A_c, B_c, C_c, D_c))
        return comp

    def _adopt(self, mats):
        for name, M in zip(("A_c", "B_c", "C_c", "D_c"), mats):
            M.setflags(write=False)
            object.__setattr__(self, name, M)

    @property
    def order(self) -> int:
        return self.A_c.shape[0]


@dataclass(frozen=True, eq=False)
class AffineKFamily:
    """Affine set {K0 + sum theta_i K_i} of feedback parameters.

    The set depends on its directions only through their span, which
    `_span` keeps in the family's memo (`subspaces._kept`) as an
    orthonormal basis of the directions vectorised column by column, so
    the directions need not be orthonormal or independent.
    """

    K0: np.ndarray
    directions: tuple

    @property
    def shape(self):
        return self.K0.shape

    @property
    def n_directions(self) -> int:
        return len(self.directions)

    @property
    @_kept
    def _span(self) -> Subspace:
        """The span of the vectorised directions in R^(m p)."""
        mp = self.K0.size
        return span_of(np.column_stack(
            [np.zeros((mp, 0))] + [D.flatten(order="F") for D in self.directions]))

    def member(self, thetas) -> np.ndarray:
        K = self.K0.copy()
        for th, D in zip(thetas, self.directions):
            K = K + th * D
        return K

    def distance(self, K) -> float:
        """Euclidean distance from K to the affine set."""
        v = (np.atleast_2d(K) - self.K0).flatten(order="F")
        B = self._span.basis
        return float(np.linalg.norm(v - B @ (B.T @ v)))


@dataclass(frozen=True)
class ConditionCheck:
    label: str
    passed: bool | None
    residual: float
    note: str = ""


@dataclass(frozen=True, eq=False)
class FeasibilityReport:
    problem: str
    conditions: tuple
    V: Subspace | None
    S: Subspace | None
    family: AffineKFamily | None
    K: np.ndarray | None
    overall: str
    extras: dict = field(default_factory=dict)

    def condition(self, label: str) -> ConditionCheck:
        for c in self.conditions:
            if c.label == label:
                return c
        raise KeyError(label)

    @property
    def solvable(self) -> bool:
        return self.overall == "solvable"

    def to_dict(self) -> dict:
        return {
            "problem": self.problem,
            "overall": self.overall,
            "conditions": {
                c.label: {
                    "passed": c.passed,
                    "residual": None if np.isnan(c.residual) else c.residual,
                    "note": c.note,
                }
                for c in self.conditions
            },
            "K": None if self.K is None else self.K.tolist(),
            "V_dim": None if self.V is None else self.V.dim,
            "S_dim": None if self.S is None else self.S.dim,
            "family_directions": None if self.family is None else self.family.n_directions,
            "extras": self.extras,
        }


def _coupling_data(sys: PlantSystem):
    """The block matrices of the coupling inclusion."""
    Atil = np.concatenate((np.concatenate((sys.A, sys.H), axis=1),
                           np.concatenate((sys.E, sys.G_z), axis=1)))
    Btil = np.concatenate((sys.B, sys.D_z))
    Ctil = np.concatenate((sys.C, sys.G_y), axis=1)
    return Atil, Btil, Ctil


def _target_projector(sys: PlantSystem, V: Subspace) -> np.ndarray:
    """Orthogonal projector onto the complement of V + 0_Z in R^(n+r)."""
    Vext = np.concatenate((V.basis, np.zeros((sys.r, V.dim))))
    return np.eye(sys.n + sys.r) - Vext @ Vext.T


def coupling_residual(sys: PlantSystem, V: Subspace, S: Subspace, K) -> float:
    """Residual of the coupling inclusion for a given K:

    [A+BKC  H+BKG_y; E+D_zKC  G_z+D_zKG_y] (S + W) <= V + 0_Z.
    """
    Atil, Btil, Ctil = _coupling_data(sys)
    K = np.atleast_2d(np.asarray(K, dtype=float))
    closed = Atil + Btil @ K @ Ctil
    P = _target_projector(sys, V)
    return _norm2(P @ closed @ lifted_basis(S, sys.q))


def k_affine_family(sys: PlantSystem, S: Subspace, V: Subspace,
                    tol: ToleranceProfile = DEFAULT_TOL) -> AffineKFamily:
    """Every K satisfying the coupling inclusion, as an affine set.

    The inclusion is vectorized into a linear system over the entries of K;
    the particular solution is the minimum-norm one. The family is computed
    in floating point only.
    """
    if S.ambient_dim != sys.n or V.ambient_dim != sys.n:
        raise DimensionMismatch("subspaces must live in the plant state space")
    Atil, Btil, Ctil = _coupling_data(sys)
    Tb = lifted_basis(S, sys.q)
    P = _target_projector(sys, V)
    Y = P @ Btil
    X = Ctil @ Tb
    rhs = -(P @ Atil @ Tb).flatten(order="F")
    m, p = sys.m, sys.p
    # the Kronecker product of X^T and Y: entry (i k, j l) is X[j, i] Y[k, l]
    Op = (X.T[:, None, :, None] * Y[None, :, None, :]).reshape(
        X.shape[1] * Y.shape[0], X.shape[0] * Y.shape[1])
    # One SVD and one rank cutoff for both: K0 is the pseudo-inverse
    # solution on the kept singular values, so it is orthogonal to the
    # directions, the right singular vectors of the dropped ones. An Op
    # with an empty side gets the SVD kernel's empty or identity factors.
    U, s, Vh = _svd(Op, True)
    # ||[B; D_z]|| is the control quadruple's ||[B; D]||, kept on it
    r = _numerical_rank(s, Op.shape, tol.rank_rel,
                        _bd_norm(sys.control_quadruple()) * max(_norm2(X), 1.0))
    K0_vec = Vh[:r].T @ ((U[:, :r].T @ rhs) / s[:r])
    null = Vh[r:].T
    if _frobenius(Op @ K0_vec - rhs) > tol.residual * (1 + _frobenius(rhs)):
        raise NoSolution("coupling inclusion has no solution")
    K0 = K0_vec.reshape((m, p), order="F")
    dirs = tuple(
        null[:, j].reshape((m, p), order="F") for j in range(null.shape[1])
    )
    return AffineKFamily(K0, dirs)


def _frobenius(M: np.ndarray) -> float:
    """numpy.linalg.norm(M), bit for bit: the square root of the dot
    product of M's entries in memory order."""
    v = M.ravel(order="K")
    return math.sqrt(v.dot(v))


def wellposedness_margin(K, D_y) -> float:
    """|det(I + K D_y)| normalized by the size of K D_y."""
    K = np.atleast_2d(np.asarray(K, dtype=float))
    D_y = np.atleast_2d(np.asarray(D_y, dtype=float))
    KD = K @ D_y
    return abs(_det(np.eye(K.shape[0]) + KD)) / (1.0 + _frobenius(KD))


def _screened_member(family: AffineKFamily, D_y: np.ndarray):
    """The first well-posed member of the sampling order after K0, or None.

    With P the orthogonal projector onto the span of the family's
    directions, the order is K0 + P(E_ij) and K0 - P(E_ij) for each unit
    m x p matrix E_ij in turn (column-major), then K0 + P(Z_t) for
    SAMPLE_TRIALS Gaussian m x p matrices Z_t from the fixed stream
    `default_rng(0)`, scaled by 1 + ||K0||. P depends on the span alone, so
    the member is a function of the affine set: it does not depend on the
    basis the directions are given in.

    The members are built as one stack, each P(W) as the sum of the columns
    of P weighted by the entries of W, elementwise and in column order, so
    that each equals the member built on its own bit for bit. They are
    screened, in logs, by one stacked `numpy.linalg.slogdet`, which costs
    less than a `_det` per member; its factors and the stacked Frobenius
    norm may differ from `wellposedness_margin`'s by roundoff, so each
    member the screen passes at half the threshold is confirmed by
    `wellposedness_margin`, in order.
    """
    K0 = family.K0
    m, p = K0.shape
    mp = m * p
    B = family._span.basis
    # unit steps +E_ij, -E_ij in turn: the Kronecker product of I and [1; -1]
    units = (np.eye(mp)[:, None, :] * np.array([[1.0], [-1.0]])).reshape(2 * mp, mp)
    draws = np.random.default_rng(0).standard_normal((SAMPLE_TRIALS, mp))
    weights = np.concatenate([units, draws * (1.0 + _frobenius(K0))])
    steps = np.zeros_like(weights)
    for k, column in enumerate((B @ B.T).T):
        steps = steps + weights[:, k:k + 1] * column
    members = K0 + steps.reshape(-1, p, m).transpose(0, 2, 1)
    KD = members @ D_y
    # margin >= DELTA_WP / 2, in logs, where no determinant overflows
    _, logdets = np.linalg.slogdet(np.eye(m) + KD)
    screened = logdets >= np.log(1.0 + np.linalg.norm(KD, axis=(1, 2))) + math.log(DELTA_WP / 2)
    for i in np.flatnonzero(screened):
        if wellposedness_margin(members[i], D_y) >= DELTA_WP:
            return members[i].copy()
    return None


def select_wellposed(family: AffineKFamily, D_y) -> np.ndarray:
    """Deterministic float search for a member with I + K D_y safely
    invertible.

    Order: the particular solution K0, then the members `_screened_member`
    screens (K0 plus the projections of the unit matrices and of
    SAMPLE_TRIALS fixed Gaussian matrices onto the direction span); a
    family whose directions span nothing has K0 as its only member and is
    not screened. Raises AllSingular when no member is well posed: only
    the exact grid of the well-posedness condition proves that every member
    is singular.
    """
    D_y = np.atleast_2d(np.asarray(D_y, dtype=float))
    if wellposedness_margin(family.K0, D_y) >= DELTA_WP:
        return family.K0
    if family._span.dim:
        K = _screened_member(family, D_y)
        if K is not None:
            return K
    raise AllSingular("no well-posed member found among sampled candidates")


def analysis_pair(sys: PlantSystem, problem: str,
                  tol: ToleranceProfile = DEFAULT_TOL) -> tuple[Subspace, Subspace]:
    """The (V, S) pair a compensator for `problem` is built on: (V*, S*) for
    p1, (V_m + S_M, S_M) for p2. Each pair is computed once per plant and
    tolerance profile and then read from the plant's memo."""
    if problem == "p1":
        return _star_pair(sys, tol)
    return _build_p2_pair(sys, tol)


@_kept
def _build_p2_pair(sys, tol):
    v_m, s_M = vm_sM(sys, tol)
    return combine("sum", v_m, s_M, tol), s_M


def analyze_p1(sys: PlantSystem,
               tol: ToleranceProfile = DEFAULT_TOL) -> FeasibilityReport:
    """Solvability analysis of decoupling without the stability demand."""
    Vst, Sst = analysis_pair(sys, "p1", tol)
    conds = _coupling_checks(_star_coupling(sys, tol), ("i", "ii", "iii"))
    family = K = None
    if all(c.passed for c in conds):
        family, check, K = _wellposedness_condition(sys, "iv", tol)
    else:
        check = ConditionCheck("iv", None, float("nan"), "not evaluated")
    conds.append(check)
    return FeasibilityReport("p1", tuple(conds), Vst, Sst, family, K,
                             _overall(conds))


def _coupling_checks(conds, labels):
    """The coupling conditions (a), (b), (c) of `conds` under `labels`."""
    return [ConditionCheck(label, *conds[key])
            for label, key in zip(labels, ("a", "b", "c"))]


# The note of the one failure of the well-posedness condition that proves
# an obstruction; `_overall` reads any other as a numerical failure.
_SINGULAR = "confirmed singular on exact grid"


def _overall(conds) -> str:
    """The verdict on a report's conditions, the well-posedness condition
    last: the first failed condition makes the plant infeasible, unless it
    is the well-posedness condition, which is an obstruction when the exact
    grid proves every member singular and a numerical failure otherwise."""
    failed = [c for c in conds if not c.passed]
    if not failed:
        return "solvable"
    if failed[0] is not conds[-1]:
        return f"infeasible({failed[0].label})"
    return ("well_posedness_obstruction" if failed[0].note == _SINGULAR
            else "numerical_failure")


def _wellposedness_condition(sys, label, tol):
    """The well-posedness condition (iv of p1, F of p2) on the star pair:
    build the K family on (S*, V*) and select a well-posed member.

    When `select_wellposed` finds none, the family is rebuilt in exact
    rational arithmetic (`exact._star_family`) and the determinant is
    evaluated on an exact grid: vanishing everywhere proves the
    obstruction, and the first grid point where it does not is the member,
    if its float margin reaches DELTA_WP, so that `synthesize` accepts it.
    A family that has no solution in floats or exactly, or an exact member
    that is singular in floats, fails the condition as a numerical failure.

    Returns (family, check, K). The condition depends on the plant alone
    and is the same computation for both problems, so its outcome
    (`_evaluate_wellposedness`) is kept in the plant's memo under the
    tolerance profile, and `label` is put on the check when it is read.
    Every report on the plant shares the family and the selected K, so the
    memo makes their arrays read-only: K0, every direction and K.
    """
    family, passed, residual, note, K = _evaluate_wellposedness(sys, tol)
    return family, ConditionCheck(label, passed, residual, note), K


@_kept
def _evaluate_wellposedness(sys, tol):
    Vst, Sst = analysis_pair(sys, "p1", tol)
    no_family = None, False, float("nan"), "family construction failed", None
    try:
        family = k_affine_family(sys, Sst, Vst, tol)
    except NoSolution:
        return no_family
    try:
        K = select_wellposed(family, sys.D_y)
    except AllSingular:
        twin = exact._star_family(sys.A, sys.B, sys.H, sys.C, sys.G_y,
                                  sys.E, sys.D_z, sys.G_z)
        if twin is None:
            return no_family
        # I + K D_y is m x m with entries affine in each theta_i, so its
        # determinant has degree at most m in every theta_i: m + 1 points
        # per variable prove that it vanishes identically.
        witness = exact.det_grid_scan(twin, exact.from_array(sys.D_y),
                                      sys.m + 1)
        if witness is None:
            return family, False, 0.0, _SINGULAR, None
        member = twin.member(witness)
        K = exact.to_array(member)
        margin = wellposedness_margin(K, sys.D_y)
        if margin < DELTA_WP:
            shown = "; ".join(" ".join(map(str, row)) for row in member)
            return (family, False, margin, f"exact grid member K = [{shown}] "
                    "has a float well-posedness margin below DELTA_WP", None)
    return (family, True, wellposedness_margin(K, sys.D_y),
            "residual holds the well-posedness margin", K)


_PRECONDITION_NOTE = "(A,B) stabilizable and (C,A) detectable required"


@_kept
def _stabilizable_detectable(sys, tol) -> bool:
    """The p2 precondition, once per plant and tolerance profile: no
    uncontrollable mode of (A, B) and none of (A^T, C^T) outside the
    region, read by `_pair_fixed_modes` (one Hessenberg reduction for a
    single input) against one ||A|| for both pairs. It is the pair check
    of both stabilizing friends, so `solve_certified` does not repeat it."""
    norm_A = _norm2(sys.A) if 1 in (sys.m, sys.p) else None
    return not any(sys.region.outside(_pair_fixed_modes(A, B, tol, norm_A))
                   for A, B in ((sys.A, sys.B), (sys.A.T, sys.C.T)))


@_kept
def _p2_side(sys, kind: str, tol) -> _TwinSplit:
    """One side of the p2 pair, once per plant, kind and tolerance profile:
    the split of the output-nulling twin of V_m + S_M over the control
    quadruple, or of S_M over the observation quadruple, under the twin's
    friend. Conditions D/E read its fixed spectrum, and `solve_certified`
    builds the stabilizing friends from it. Every reader shares it, so the
    memo makes its arrays read-only."""
    vm_sum, s_M = analysis_pair(sys, "p2", tol)
    sub, quad = ((vm_sum, sys.control_quadruple()) if kind == OUTPUT_NULLING
                 else (s_M, sys.observation_quadruple()))
    return _twin_split(kind, sub, quad, tol)


def analyze_p2(sys: PlantSystem,
               tol: ToleranceProfile = DEFAULT_TOL) -> FeasibilityReport:
    """Solvability analysis with internal stability, via the minimum
    self-bounded / maximum self-hidden pair.

    The equivalent test on the stabilizability/detectability subspaces is
    not run here; `lattice_report` carries it as `route_stabilizability`.
    """
    region = sys.region
    if not _stabilizable_detectable(sys, tol):
        conds = (ConditionCheck("precondition", False, float("nan"),
                                _PRECONDITION_NOTE),)
        return FeasibilityReport("p2", conds, None, None, None, None,
                                 "infeasible(precondition)")

    conds = _coupling_checks(_star_coupling(sys, tol), ("A", "B", "C"))
    vm_sum, s_M = analysis_pair(sys, "p2", tol)

    def spectra_check(kind, which):
        # D is the internal fixed spectrum of V_m + S_M, E the external one
        # of S_M: each is the internal fixed spectrum of the side's twin.
        try:
            fixed = _p2_side(sys, kind, tol).fixed
        except (GeoddError, np.linalg.LinAlgError) as err:
            return ConditionCheck(which, False, float("nan"), str(err))
        bad = region.outside(fixed)
        worst = max((-region.boundary_distance(l) for l in fixed), default=-1.0)
        shown = []  # the common case, an empty spectrum, takes no numpy call
        if len(fixed):
            # Sorted, so the note does not depend on the basis; + 0.0 maps
            # -0.0 to 0.0. A spectrum whose imaginary parts all round to 0
            # prints as real, whatever roundoff eigvals left in them.
            rounded = np.round(np.asarray(fixed), 6) + 0.0
            if not rounded.imag.any():
                rounded = rounded.real
            shown = np.sort(rounded).tolist()
        return ConditionCheck(which, not bad, max(worst, 0.0),
                              f"fixed spectrum {shown}")

    conds.append(spectra_check(OUTPUT_NULLING, "D"))
    conds.append(spectra_check(INPUT_CONTAINING, "E"))

    family, check_f, K = _wellposedness_condition(sys, "F", tol)
    conds.append(check_f)
    return FeasibilityReport("p2", tuple(conds), vm_sum, s_M, family, K,
                             _overall(conds))


def synthesize(sys: PlantSystem, K, F, G) -> Compensator:
    """Order-n compensator from a well-posed K, a friend F of V and a friend
    G of S, for a resolving pair (V, S) that K satisfies the coupling
    inclusion on (Basile & Marro 1992). Any friend pair works; a
    compensator stabilizes the loop when F and G are stabilizing friends.
    """
    K = np.atleast_2d(np.asarray(K, dtype=float))
    if K.shape != (sys.m, sys.p):
        raise DimensionMismatch(f"K must be {sys.m} x {sys.p}")
    if wellposedness_margin(K, sys.D_y) < DELTA_WP:
        raise WellPosednessViolated("I + K D_y is singular")
    F = np.atleast_2d(np.asarray(F, dtype=float))
    G = np.atleast_2d(np.asarray(G, dtype=float))
    Minv = _inv(np.eye(sys.m) + K @ sys.D_y)
    FKC = F - K @ sys.C
    BGDy = sys.B + G @ sys.D_y
    A_c = sys.A + G @ sys.C + BGDy @ Minv @ FKC
    B_c = BGDy @ Minv @ K - G
    C_c = Minv @ FKC
    D_c = Minv @ K
    return Compensator(A_c, B_c, C_c, D_c)


def recover_parameters(sys: PlantSystem, comp: Compensator):
    """Invert the compensator formulas: (K, F, G) from (B_c, C_c, D_c)."""
    Dc = comp.D_c
    if wellposedness_margin(sys.D_y, -Dc) < DELTA_WP:
        raise NotWellPosed("I - D_y D_c is singular; parameters undefined")
    inner_inv = _inv(np.eye(sys.p) - sys.D_y @ Dc)
    K = Dc @ inner_inv
    lead = _inv(np.eye(sys.m) - Dc @ sys.D_y)
    F = lead @ comp.C_c + K @ sys.C
    G = (sys.B @ Dc - comp.B_c) @ inner_inv
    return K, F, G


def close_loop(sys: PlantSystem, comp: Compensator) -> ClosedLoop:
    """Assemble the well-posed feedback interconnection."""
    Dy, Dc = sys.D_y, comp.D_c
    if comp.B_c.shape[1] != sys.p or comp.C_c.shape[0] != sys.m:
        raise DimensionMismatch("compensator does not match the plant ports")
    if wellposedness_margin(Dy, -Dc) < DELTA_WP:
        raise NotWellPosed("I - D_y D_c is singular")
    W = _inv(np.eye(sys.p) - Dy @ Dc)
    A, B, H, C, Gy = sys.A, sys.B, sys.H, sys.C, sys.G_y
    E, Dz, Gz = sys.E, sys.D_z, sys.G_z
    Ac, Bc, Cc = comp.A_c, comp.B_c, comp.C_c
    # the blocks [plant; compensator] of each matrix, written in place
    n, k = sys.n, comp.order
    A_hat = np.empty((n + k, n + k))
    A_hat[:n, :n] = A + B @ Dc @ W @ C
    A_hat[:n, n:] = B @ Cc + B @ Dc @ W @ Dy @ Cc
    A_hat[n:, :n] = Bc @ W @ C
    A_hat[n:, n:] = Ac + Bc @ W @ Dy @ Cc
    H_hat = np.empty((n + k, sys.q))
    H_hat[:n] = H + B @ Dc @ W @ Gy
    H_hat[n:] = Bc @ W @ Gy
    C_hat = np.empty((sys.r, n + k))
    C_hat[:, :n] = E + Dz @ Dc @ W @ C
    C_hat[:, n:] = Dz @ Cc + Dz @ Dc @ W @ Dy @ Cc
    G_hat = Gz + Dz @ Dc @ W @ Gy
    return ClosedLoop(A_hat, H_hat, C_hat, G_hat, W, sys.time_domain)


def solve_certified(sys: PlantSystem, problem: str = "p1",
                    tol: ToleranceProfile = DEFAULT_TOL):
    """Full pipeline: analyze, pick subspaces, select K, build friends,
    synthesize, close the loop, and certify it on the pair (report.V,
    report.S) the compensator was built on; for p2 also check the loop's
    spectrum. Returns (compensator, report, closed loop, certificate), so
    that callers that check the loop further need not rebuild it; raises
    Infeasible / WellPosednessObstruction with the report attached.

    The friends are `friend`'s for p1. For p2 they are built by the steps
    of `stabilizing_friend` from the splits of (V_m + S_M, S_M) that
    conditions D/E were read from; the pair check is the precondition the
    analysis passed. They are the friends that `stabilizing_friend` builds,
    bit for bit."""
    if problem == "p1":
        report = analyze_p1(sys, tol)
    elif problem == "p2":
        report = analyze_p2(sys, tol)
    else:
        raise ValueError(f"unknown problem {problem!r}")
    if report.overall == "well_posedness_obstruction":
        raise WellPosednessObstruction(
            "every admissible K makes I + K D_y singular", report)
    if not report.solvable:
        raise Infeasible(f"analysis verdict: {report.overall}", report)

    V, S = report.V, report.S
    if problem == "p1":
        F = friend(OUTPUT_NULLING, V, sys.control_quadruple(), tol).F_or_G
        G = friend(INPUT_CONTAINING, S, sys.observation_quadruple(), tol).F_or_G
    else:
        F, G = (_stabilized(kind, _p2_side(sys, kind, tol), sys.region, tol).F_or_G
                for kind in (OUTPUT_NULLING, INPUT_CONTAINING))
    comp = synthesize(sys, report.K, F, G)
    cl = close_loop(sys, comp)
    # For p2 the star-pair K is used on the self-bounded/self-hidden pair
    # (the two affine families coincide); a K off that family leaves the
    # loop outside the pair's subspace and fails here.
    cert = certify_decoupled(cl, tol, pair=(V, S))
    if not cert.valid:
        raise CertificateFailed(
            "synthesized loop failed its decoupling certificate "
            f"(residuals {cert.residual_invariance:.2e}, "
            f"{cert.residual_kernel:.2e}, {cert.feedthrough_norm:.2e})")
    if problem == "p2" and sys.region.outside(cl.spectrum):
        raise CertificateFailed("synthesized loop is not internally stable")
    return comp, report, cl, cert


def solve(sys: PlantSystem, problem: str = "p1",
          tol: ToleranceProfile = DEFAULT_TOL):
    """`solve_certified` without the loop and its certificate: returns
    (compensator, report)."""
    comp, report, _, _ = solve_certified(sys, problem, tol)
    return comp, report
