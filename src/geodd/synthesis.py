"""Solvers for the two decoupling problems.

Condition analysis, the affine family of static output-feedback parameters
K, well-posedness selection, compensator construction, and closed-loop
assembly. Everything runs in floating point except one step: when sampling
finds no well-posed member of the star-pair family, the family is rebuilt
in exact rational arithmetic and its determinant grid proves or refutes the
well-posedness obstruction.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from . import exact
from .errors import (
    AllSingular,
    CertificateFailed,
    DimensionMismatch,
    Infeasible,
    NoSolution,
    NotWellPosed,
    WellPosednessObstruction,
    WellPosednessViolated,
)
from .geometry import (
    INPUT_CONTAINING,
    OUTPUT_NULLING,
    _controllable_split,
    _outside,
    _vstar_g,
    friend,
    spectral_report,
    sstar,
    sstar_g,
    stabilizing_friend,
    vstar,
)
from .lattice import PlantSystem, coupling_conditions, vm_sM
from .subspaces import (
    DEFAULT_TOL,
    Subspace,
    ToleranceProfile,
    _norm2,
    combine,
    containment_residual,
    kernel_of,
    lifted_basis,
    span_of,
)

# Well-posedness margin: |det(I + K D_y)| >= DELTA_WP * (1 + ||K D_y||).
DELTA_WP = 1e-8

# Seeded random members of a K family tried before the exact grid.
SAMPLE_TRIALS = 64


@dataclass(frozen=True)
class Compensator:
    """Dynamic output-feedback regulator (A_c, B_c, C_c, D_c)."""

    A_c: np.ndarray
    B_c: np.ndarray
    C_c: np.ndarray
    D_c: np.ndarray

    def __post_init__(self):
        Ac = np.atleast_2d(np.asarray(self.A_c, dtype=float))
        Bc = np.atleast_2d(np.asarray(self.B_c, dtype=float))
        Cc = np.atleast_2d(np.asarray(self.C_c, dtype=float))
        Dc = np.atleast_2d(np.asarray(self.D_c, dtype=float))
        s = Ac.shape[0]
        if Ac.shape != (s, s) or Bc.shape[0] != s or Cc.shape[1] != s:
            raise DimensionMismatch("inconsistent compensator dimensions")
        if Dc.shape != (Cc.shape[0], Bc.shape[1]):
            raise DimensionMismatch("D_c must be m x p")
        for name, M in (("A_c", Ac), ("B_c", Bc), ("C_c", Cc), ("D_c", Dc)):
            object.__setattr__(self, name, M)

    @property
    def order(self) -> int:
        return self.A_c.shape[0]


@dataclass(frozen=True)
class ClosedLoop:
    """Assembled loop Dx^ = A^ x^ + H^ w, z = C^ x^ + G^ w.

    `spectrum`, the eigenvalues of A^ in LAPACK's order, is computed on
    first use and kept, read-only: the frequency samples, their pole
    clearance, the stability verdict and the p2 check of `solve` all read
    the same array. The matrices are not to be changed in place.
    """

    A_hat: np.ndarray
    H_hat: np.ndarray
    C_hat: np.ndarray
    G_hat: np.ndarray
    W: np.ndarray
    time_domain: str
    plant_order: int

    @property
    def order(self) -> int:
        return self.A_hat.shape[0]

    @cached_property
    def spectrum(self) -> np.ndarray:
        eigs = np.linalg.eigvals(self.A_hat)
        eigs.flags.writeable = False
        return eigs


@dataclass(frozen=True)
class AffineKFamily:
    """Affine set {K0 + sum theta_i K_i} of feedback parameters.

    Directions are orthonormal as vectors. `plant` is set only on the family
    written on the star pair (S*, V*); `select_wellposed` rebuilds that
    family from it in exact rational arithmetic when it must prove that
    every member is singular.
    """

    K0: np.ndarray
    directions: tuple
    plant: object = field(default=None, repr=False, compare=False)

    @property
    def shape(self):
        return self.K0.shape

    @property
    def n_directions(self) -> int:
        return len(self.directions)

    def member(self, thetas) -> np.ndarray:
        K = self.K0.copy()
        for th, D in zip(thetas, self.directions):
            K = K + th * D
        return K

    def distance(self, K) -> float:
        """Euclidean distance from K to the affine set."""
        v = (np.atleast_2d(K) - self.K0).flatten(order="F")
        for D in self.directions:
            d = D.flatten(order="F")
            v = v - d * (d @ v)
        return float(np.linalg.norm(v))


@dataclass(frozen=True)
class ConditionCheck:
    label: str
    passed: bool | None
    residual: float
    note: str = ""


@dataclass(frozen=True)
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
    Atil = np.block([[sys.A, sys.H], [sys.E, sys.G_z]])
    Btil = np.vstack([sys.B, sys.D_z])
    Ctil = np.hstack([sys.C, sys.G_y])
    return Atil, Btil, Ctil


def _target_projector(sys: PlantSystem, V: Subspace) -> np.ndarray:
    """Orthogonal projector onto the complement of V + 0_Z in R^(n+r)."""
    Vext = np.vstack([V.basis, np.zeros((sys.r, V.dim))])
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
    in floating point only; its `plant` field is left unset.
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
    if m * p == 0:
        if np.linalg.norm(rhs) > tol.residual:
            raise NoSolution("coupling inclusion infeasible with empty K")
        return AffineKFamily(np.zeros((m, p)), ())
    Op = np.kron(X.T, Y)
    if Op.shape[0] == 0:
        K0_vec = np.zeros(m * p)
    else:
        K0_vec, *_ = np.linalg.lstsq(Op, rhs, rcond=None)
    if np.linalg.norm(Op @ K0_vec - rhs) > tol.residual * (1 + np.linalg.norm(rhs)):
        raise NoSolution("coupling inclusion has no solution")
    K0 = K0_vec.reshape((m, p), order="F")
    op_scale = _norm2(Btil) * max(_norm2(X), 1.0)
    null = kernel_of(Op, tol, scale=op_scale)
    dirs = tuple(
        null.basis[:, j].reshape((m, p), order="F") for j in range(null.dim)
    )
    return AffineKFamily(K0, dirs)


def _exact_star_family(sys: PlantSystem):
    """The K family on the star pair (S*, V*) in exact rational arithmetic,
    or None when the exact coupling inclusion has no solution."""
    A = exact.from_array(sys.A)
    V = exact.vstar_span(A, exact.from_array(sys.B), exact.from_array(sys.E),
                         exact.from_array(sys.D_z))
    S = exact.sstar_span(A, exact.from_array(sys.H), exact.from_array(sys.C),
                         exact.from_array(sys.G_y))
    k = exact.shape(V)[1]
    if k == 0:
        N = exact.eye(sys.n + sys.r)
    else:
        V_ext = exact.vstack(V, exact.zeros(sys.r, k))
        N = exact.transpose(exact.kernel(exact.transpose(V_ext)))
    Atil, Btil, Ctil = (exact.from_array(M) for M in _coupling_data(sys))
    return exact.affine_k_family(Atil, Btil, Ctil, exact.lifted_span(S, sys.q), N)


def wellposedness_margin(K, D_y) -> float:
    """|det(I + K D_y)| normalized by the size of K D_y."""
    K = np.atleast_2d(np.asarray(K, dtype=float))
    D_y = np.atleast_2d(np.asarray(D_y, dtype=float))
    KD = K @ D_y
    return float(abs(np.linalg.det(np.eye(K.shape[0]) + KD))
                 / (1.0 + np.linalg.norm(KD)))


def select_wellposed(family: AffineKFamily, D_y, seed: int = 0) -> np.ndarray:
    """Deterministic search for a member with I + K D_y safely invertible.

    Order: the particular solution, each single direction at unit step,
    then SAMPLE_TRIALS seeded pseudo-random combinations. When every sample
    fails and the family has its `plant` set, the family is rebuilt in exact
    rational arithmetic and the determinant is evaluated on an exact grid:
    vanishing everywhere proves the obstruction (AllSingular, confirmed).
    Raises NoSolution when the exact coupling inclusion has no solution.
    """
    D_y = np.atleast_2d(np.asarray(D_y, dtype=float))

    def well_posed(K):
        return wellposedness_margin(K, D_y) >= DELTA_WP

    candidates = [family.K0]
    for D in family.directions:
        candidates.append(family.K0 + D)
        candidates.append(family.K0 - D)
    for K in candidates:
        if well_posed(K):
            return K
    rng = np.random.default_rng(seed)
    scale = 1.0 + np.linalg.norm(family.K0)
    for _ in range(SAMPLE_TRIALS):
        theta = rng.standard_normal(family.n_directions) * scale
        K = family.member(theta)
        if well_posed(K):
            return K

    if family.plant is not None:
        twin = _exact_star_family(family.plant)
        if twin is None:
            raise NoSolution("exact coupling inclusion has no solution")
        m = family.shape[0]
        # I + K D_y is m x m with entries affine in each theta_i, so its
        # determinant has degree at most m in every theta_i: m + 1 points
        # per variable prove that it vanishes identically.
        witness = exact.det_grid_scan(twin, exact.from_array(family.plant.D_y),
                                      m + 1)
        if witness is None:
            raise AllSingular(
                "det(I + K D_y) vanishes identically on the family",
                confirmed=True,
            )
        K = exact.to_array(twin.member(witness))
        if K.shape != family.shape:
            K = K.reshape(family.shape)
        return K
    raise AllSingular(
        "no well-posed member found among sampled candidates", confirmed=False
    )


def analysis_pair(sys: PlantSystem, problem: str,
                  tol: ToleranceProfile = DEFAULT_TOL) -> tuple[Subspace, Subspace]:
    """The (V, S) pair a compensator for `problem` is built on: (V*, S*) for
    p1, (V_m + S_M, S_M) for p2. Each pair is computed once per plant and
    tolerance profile and then read from the plant's memo."""
    def build():
        if problem == "p1":
            return (vstar(sys.control_quadruple(), tol),
                    sstar(sys.observation_quadruple(), tol))
        v_m, s_M = vm_sM(sys, tol)
        return combine("sum", v_m, s_M, tol), s_M
    return sys._memoized(("pair", problem, tol), build)


def analyze_p1(sys: PlantSystem, tol: ToleranceProfile = DEFAULT_TOL,
               seed: int = 0) -> FeasibilityReport:
    """Solvability analysis of decoupling without the stability demand."""
    Vst, Sst = analysis_pair(sys, "p1", tol)
    conds = _coupling_checks(_star_coupling(sys, tol), ("i", "ii", "iii"))
    family = None
    K = None
    failed = [c.label for c in conds if not c.passed]
    if failed:
        conds.append(ConditionCheck("iv", None, float("nan"), "not evaluated"))
        overall = f"infeasible({failed[0]})"
    else:
        family, check, K = _wellposedness_condition(sys, "iv", tol, seed)
        conds.append(check)
        if check.passed:
            overall = "solvable"
        elif check.note == "family construction failed":
            overall = "numerical_failure"
        else:
            overall = "well_posedness_obstruction"
    return FeasibilityReport("p1", tuple(conds), Vst, Sst, family, K, overall)


def _coupling_checks(conds, labels):
    """The coupling conditions (a), (b), (c) of `conds` under `labels`."""
    return [ConditionCheck(label, *conds[key])
            for label, key in zip(labels, ("a", "b", "c"))]


def _star_coupling(sys, tol) -> dict:
    """`coupling_conditions` on the star pair (V*, S*), once per plant and
    tolerance profile."""
    return sys._memoized(("coupling", tol), lambda: coupling_conditions(
        sys, *analysis_pair(sys, "p1", tol), tol))


def _wellposedness_condition(sys, label, tol, seed):
    """The well-posedness condition (iv of p1, F of p2) on the star pair:
    build the K family on (S*, V*) and try to select a well-posed member.

    Returns (family, check, K). The condition is the same computation for
    both problems, so its outcome is kept in the plant's memo under
    (tol, seed) and `label` is put on the check when it is read. The
    family's K0 and the selected K are read-only, since every report on
    the plant shares them.
    """
    def evaluate():
        Vst, Sst = analysis_pair(sys, "p1", tol)
        try:
            family = replace(k_affine_family(sys, Sst, Vst, tol), plant=sys)
            family.K0.setflags(write=False)
            K = select_wellposed(family, sys.D_y, seed)
        except NoSolution:
            return None, False, float("nan"), "family construction failed", None
        except AllSingular as err:
            note = ("confirmed singular on exact grid" if err.confirmed
                    else "no well-posed sample found")
            return family, False, 0.0, note, None
        K.setflags(write=False)
        return (family, True, wellposedness_margin(K, sys.D_y),
                "residual holds the well-posedness margin", K)

    family, passed, residual, note, K = sys._memoized(
        ("wellposed", tol, seed), evaluate)
    return family, ConditionCheck(label, passed, residual, note), K


_PRECONDITION_NOTE = "(A,B) stabilizable and (C,A) detectable required"


def _pair_fixed(sys, dual: bool, tol) -> np.ndarray:
    """The uncontrollable spectrum of (A, B), or of (A^T, C^T) when `dual`
    is set, from `_controllable_split`, once per plant and tolerance
    profile: the p2 precondition and the pair checks of both stabilizing
    friends read it."""
    def split():
        fixed = (_controllable_split(sys.A.T, sys.C.T, tol) if dual
                 else _controllable_split(sys.A, sys.B, tol))[1]
        fixed.setflags(write=False)
        return fixed
    return sys._memoized(("pair fixed", dual, tol), split)


def _stabilizable_detectable(sys, tol) -> bool:
    """The p2 precondition, once per plant and tolerance profile."""
    return sys._memoized(("precondition", tol), lambda: (
        not _outside(_pair_fixed(sys, False, tol), sys.region)
        and not _outside(_pair_fixed(sys, True, tol), sys.region)))


def _p2_friend(sys, kind: str, tol):
    """The friend that conditions D/E are read from, once per plant and
    tolerance profile: the feedback F of V_m + S_M over the control
    quadruple, or the injection G of S_M over the observation quadruple.
    `solve_certified` starts the stabilizing friends from it. Its matrix
    is read-only, since every reader shares it."""
    def build():
        vm_sum, s_M = analysis_pair(sys, "p2", tol)
        if kind == OUTPUT_NULLING:
            cert = friend(OUTPUT_NULLING, vm_sum, sys.control_quadruple(), tol)
        else:
            cert = friend(INPUT_CONTAINING, s_M, sys.observation_quadruple(), tol)
        cert.F_or_G.setflags(write=False)
        return cert
    return sys._memoized(("p2 friend", kind, tol), build)


def analyze_p2(sys: PlantSystem, tol: ToleranceProfile = DEFAULT_TOL,
               seed: int = 0) -> FeasibilityReport:
    """Solvability analysis with internal stability, via the minimum
    self-bounded / maximum self-hidden pair.

    The equivalent test on the stabilizability/detectability subspaces is
    not run here; `lattice_report` carries it as `route_stabilizability`.
    """
    region = sys.region
    quad_ctrl = sys.control_quadruple()
    quad_obs = sys.observation_quadruple()
    if not _stabilizable_detectable(sys, tol):
        conds = (ConditionCheck("precondition", False, float("nan"),
                                _PRECONDITION_NOTE),)
        return FeasibilityReport("p2", conds, None, None, None, None,
                                 "infeasible(precondition)")

    conds = _coupling_checks(_star_coupling(sys, tol), ("A", "B", "C"))
    vm_sum, s_M = analysis_pair(sys, "p2", tol)

    def spectra_check(sub, kind, quad, which):
        try:
            rep = spectral_report(sub, kind, quad, cert=_p2_friend(sys, kind, tol),
                                  tol=tol)
        except Exception as err:  # not invariant => condition fails
            return ConditionCheck(which, False, float("nan"), str(err))
        fixed = rep.internal_fixed if which == "D" else rep.external_fixed
        bad = _outside(fixed, region)
        worst = max((-region.boundary_distance(l) for l in fixed), default=-1.0)
        # Sorted, so the note does not depend on the basis; + 0.0 maps -0.0 to
        # 0.0. A spectrum whose imaginary parts all round to 0 prints as real,
        # whatever roundoff eigvals left in them.
        rounded = np.round(np.asarray(fixed), 6) + 0.0
        if not rounded.imag.any():
            rounded = rounded.real
        shown = np.sort(rounded).tolist()
        return ConditionCheck(which, not bad, max(worst, 0.0),
                              f"fixed spectrum {shown}")

    conds.append(spectra_check(vm_sum, OUTPUT_NULLING, quad_ctrl, "D"))
    conds.append(spectra_check(s_M, INPUT_CONTAINING, quad_obs, "E"))

    family, check_f, K = _wellposedness_condition(sys, "F", tol, seed)
    conds.append(check_f)
    obstruction = (not check_f.passed
                   and check_f.note != "family construction failed")

    failed = [c.label for c in conds if not c.passed]
    if not failed:
        overall = "solvable"
    elif failed == ["F"] and obstruction:
        overall = "well_posedness_obstruction"
    else:
        overall = f"infeasible({failed[0]})"
    return FeasibilityReport("p2", tuple(conds), vm_sum, s_M, family, K,
                             overall)


def _stabilizability_route(sys, Vst, Sst, tol) -> dict:
    """The p2 solvability test on the largest stabilizability and smallest
    detectability subspaces, given the star pair (Vst, Sst) of the control
    quadruple. The verdict is None when the test cannot be evaluated."""
    if not _stabilizable_detectable(sys, tol):
        return {"verdict": None, "conditions": {}, "error": _PRECONDITION_NOTE}
    try:
        VstG = _vstar_g(sys.control_quadruple(), Vst, Sst, sys.region, tol)
        SstG = sstar_g(sys.observation_quadruple(), sys.region, tol)
    except Exception as err:
        return {"verdict": None, "conditions": {}, "error": str(err)}
    ok = {c.label: c.passed
          for c in _coupling_checks(coupling_conditions(sys, VstG, SstG, tol),
                                    ("i", "ii", "iii"))}
    if all(ok.values()):
        try:
            select_wellposed(k_affine_family(sys, SstG, VstG, tol), sys.D_y)
            ok["iv"] = True
        except (AllSingular, NoSolution):
            ok["iv"] = False
    else:
        ok["iv"] = None
    return {"verdict": all(v is True for v in ok.values()), "conditions": ok}


def k_set_equivalence(sys: PlantSystem,
                      tol: ToleranceProfile = DEFAULT_TOL) -> tuple[bool, dict]:
    """Affine-set equality of the K-families written on (S*, V*) and on the
    self-hidden/self-bounded pair (S_M, V_m + S_M)."""
    Vst, Sst = analysis_pair(sys, "p1", tol)
    vm_sum, s_M = analysis_pair(sys, "p2", tol)
    fam1 = k_affine_family(sys, Sst, Vst, tol)
    fam2 = k_affine_family(sys, s_M, vm_sum, tol)
    residuals = {
        "K0_1_in_2": fam2.distance(fam1.K0),
        "K0_2_in_1": fam1.distance(fam2.K0),
    }
    mp = sys.m * sys.p
    span1, span2 = (
        span_of(np.column_stack([np.zeros((mp, 0))]
                                + [D.flatten(order="F") for D in fam.directions]), tol)
        for fam in (fam1, fam2))
    residuals["dirs_1_in_2"] = containment_residual(span1, span2)
    residuals["dirs_2_in_1"] = containment_residual(span2, span1)
    equal_sets = (
        fam1.n_directions == fam2.n_directions
        and residuals["K0_1_in_2"] <= tol.residual
        and residuals["K0_2_in_1"] <= tol.residual
        and residuals["dirs_1_in_2"] <= tol.angle
        and residuals["dirs_2_in_1"] <= tol.angle
    )
    return equal_sets, residuals


def synthesize(sys: PlantSystem, V: Subspace, S: Subspace, K,
               stabilize: bool = False, F=None, G=None,
               tol: ToleranceProfile = DEFAULT_TOL) -> Compensator:
    """Order-n compensator from a well-posed K and friends of V and S.

    F and G may be supplied explicitly (any valid friend pair works); when
    omitted they are computed, as stabilizing friends whose closed maps lie
    inside the plant's stability region if `stabilize` is set.
    """
    K = np.atleast_2d(np.asarray(K, dtype=float))
    if K.shape != (sys.m, sys.p):
        raise DimensionMismatch(f"K must be {sys.m} x {sys.p}")
    if wellposedness_margin(K, sys.D_y) < DELTA_WP:
        raise WellPosednessViolated("I + K D_y is singular")
    if F is None:
        if stabilize:
            F = stabilizing_friend(V, OUTPUT_NULLING, sys.control_quadruple(),
                                   sys.region, tol).matrix
        else:
            F = friend(OUTPUT_NULLING, V, sys.control_quadruple(), tol).matrix
    if G is None:
        if stabilize:
            G = stabilizing_friend(S, INPUT_CONTAINING, sys.observation_quadruple(),
                                   sys.region, tol).matrix
        else:
            G = friend(INPUT_CONTAINING, S, sys.observation_quadruple(), tol).matrix
    F = np.atleast_2d(np.asarray(F, dtype=float))
    G = np.atleast_2d(np.asarray(G, dtype=float))
    Minv = np.linalg.inv(np.eye(sys.m) + K @ sys.D_y)
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
    p, m = sys.p, sys.m
    I_p = np.eye(p)
    I_m = np.eye(m)
    if wellposedness_margin(sys.D_y, -Dc) < DELTA_WP:
        raise NotWellPosed("I - D_y D_c is singular; parameters undefined")
    inner = I_p - sys.D_y @ Dc
    K = Dc @ np.linalg.inv(inner)
    lead = np.linalg.inv(I_m - Dc @ sys.D_y)
    F = lead @ comp.C_c + K @ sys.C
    G = (sys.B @ Dc - comp.B_c) @ np.linalg.inv(inner)
    return K, F, G


def close_loop(sys: PlantSystem, comp: Compensator,
               tol: ToleranceProfile = DEFAULT_TOL) -> ClosedLoop:
    """Assemble the well-posed feedback interconnection."""
    Dy, Dc = sys.D_y, comp.D_c
    if comp.B_c.shape[1] != sys.p or comp.C_c.shape[0] != sys.m:
        raise DimensionMismatch("compensator does not match the plant ports")
    if wellposedness_margin(Dy, -Dc) < DELTA_WP:
        raise NotWellPosed("I - D_y D_c is singular")
    W = np.linalg.inv(np.eye(sys.p) - Dy @ Dc)
    A, B, H, C, Gy = sys.A, sys.B, sys.H, sys.C, sys.G_y
    E, Dz, Gz = sys.E, sys.D_z, sys.G_z
    Ac, Bc, Cc = comp.A_c, comp.B_c, comp.C_c
    A_hat = np.block([
        [A + B @ Dc @ W @ C, B @ Cc + B @ Dc @ W @ Dy @ Cc],
        [Bc @ W @ C, Ac + Bc @ W @ Dy @ Cc],
    ])
    H_hat = np.vstack([H + B @ Dc @ W @ Gy, Bc @ W @ Gy])
    C_hat = np.hstack([E + Dz @ Dc @ W @ C, Dz @ Cc + Dz @ Dc @ W @ Dy @ Cc])
    G_hat = Gz + Dz @ Dc @ W @ Gy
    return ClosedLoop(A_hat, H_hat, C_hat, G_hat, W, sys.time_domain, sys.n)


def solve_certified(sys: PlantSystem, problem: str = "p1",
                    tol: ToleranceProfile = DEFAULT_TOL, seed: int = 0):
    """Full pipeline: analyze, pick subspaces, select K, build friends,
    synthesize, close the loop, and certify it on the pair (report.V,
    report.S) the compensator was built on; for p2 also check the loop's
    spectrum. Returns (compensator, report, closed loop, certificate), so
    that callers that check the loop further need not rebuild it; raises
    Infeasible / WellPosednessObstruction with the report attached.

    For p2 the stabilizing friends start from what the analysis already
    built on the plant's memo: the friends of (V_m + S_M, S_M) that
    conditions D/E were read from, and the controllable splits of (A, B)
    and (A^T, C^T) of the precondition. They are the friends and splits
    that `stabilizing_friend` would build, so the compensator is the one
    `synthesize(..., stabilize=True)` returns."""
    from .verify import _spectrum_stable, certify_decoupled

    if problem == "p1":
        report = analyze_p1(sys, tol, seed)
    elif problem == "p2":
        report = analyze_p2(sys, tol, seed)
    else:
        raise ValueError(f"unknown problem {problem!r}")
    if report.overall == "well_posedness_obstruction":
        raise WellPosednessObstruction(
            "every admissible K makes I + K D_y singular", report)
    if not report.solvable:
        raise Infeasible(f"analysis verdict: {report.overall}", report)

    V, S = report.V, report.S
    F = G = None
    if problem == "p2":
        region = sys.region
        F = stabilizing_friend(
            V, OUTPUT_NULLING, sys.control_quadruple(), region, tol,
            base=_p2_friend(sys, OUTPUT_NULLING, tol).F_or_G,
            pair_fixed=_pair_fixed(sys, False, tol)).F_or_G
        G = stabilizing_friend(
            S, INPUT_CONTAINING, sys.observation_quadruple(), region, tol,
            base=_p2_friend(sys, INPUT_CONTAINING, tol).F_or_G,
            pair_fixed=_pair_fixed(sys, True, tol)).F_or_G
    comp = synthesize(sys, V, S, report.K, F=F, G=G, tol=tol)
    cl = close_loop(sys, comp, tol)
    # For p2 the star-pair K is used on the self-bounded/self-hidden pair
    # (the two affine families coincide); a K off that family leaves the
    # loop outside the pair's subspace and fails here.
    cert = certify_decoupled(cl, tol, pair=(V, S))
    if not cert.valid:
        raise CertificateFailed(
            "synthesized loop failed its decoupling certificate "
            f"(residuals {cert.residual_invariance:.2e}, "
            f"{cert.residual_kernel:.2e}, {cert.feedthrough_norm:.2e})")
    if problem == "p2":
        ok, _ = _spectrum_stable(cl.spectrum, sys.region)
        if not ok:
            raise CertificateFailed("synthesized loop is not internally stable")
    return comp, report, cl, cert


def solve(sys: PlantSystem, problem: str = "p1",
          tol: ToleranceProfile = DEFAULT_TOL, seed: int = 0):
    """`solve_certified` without the loop and its certificate: returns
    (compensator, report)."""
    comp, report, _, _ = solve_certified(sys, problem, tol, seed)
    return comp, report
