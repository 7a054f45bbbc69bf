"""Dual lattice constructions for the nine-matrix plant.

The plant couples a control channel (A, B, E, D_z) with an observation
channel (A, H, C, G_y). Extending each channel with the disturbance data
gives the two quadruples whose minimum self-bounded and maximum self-hidden
elements drive the synthesis with stability. The numerical audit of the
lattice identities, `lattice_report`, is in `audit`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InvalidInput
from .geometry import Quadruple, _nulling_system, sstar, vstar
from .subspaces import (
    CONTINUOUS,
    DEFAULT_TOL,
    DISCRETE,
    StabilityRegion,
    Subspace,
    ToleranceProfile,
    _kept,
    combine,
    complement,
    containment_residual,
    span_of,
)

# The plant matrices in field order, each with the dims of its rows and
# columns: state n, control m, disturbance q, measurement p, output r.
_MATRIX_SHAPES = {
    "A": ("n", "n"), "B": ("n", "m"), "H": ("n", "q"),
    "C": ("p", "n"), "D_y": ("p", "m"), "G_y": ("p", "q"),
    "E": ("r", "n"), "D_z": ("r", "m"), "G_z": ("r", "q"),
}


@dataclass(frozen=True, eq=False)
class PlantSystem:
    """The nine matrices of the plant plus its time domain.

    State n, control m, disturbance q, measurement p, regulated output r:
        Dx = A x + B u + H w
        y  = C x + D_y u + G_y w
        z  = E x + D_z u + G_z w

    The plant is immutable: each matrix is stored as a read-only float copy
    of what was passed in, so writing into `plant.A` raises ValueError.
    That makes it sound for the analyses to keep what they derive from the
    plant alone (its quadruples, the star and p2 pairs and the sides of the
    p2 pair, the coupling conditions, the well-posedness result and the p2
    precondition) in the plant's memo, read-only: each is one `@_kept`
    function of `subspaces`, so `analyze_p1`, `analyze_p2` and `solve` on
    one plant share one computation of each. The memo lives and dies with
    the plant; `dataclasses.replace` returns a plant without one.
    """

    A: np.ndarray
    B: np.ndarray
    H: np.ndarray
    C: np.ndarray
    D_y: np.ndarray
    G_y: np.ndarray
    E: np.ndarray
    D_z: np.ndarray
    G_z: np.ndarray
    time_domain: str = CONTINUOUS

    def __post_init__(self):
        mats = {}
        for name in _MATRIX_SHAPES:
            M = np.array(getattr(self, name), dtype=float, ndmin=2)
            if M.size and not np.isfinite(M).all():
                raise InvalidInput(f"{name} contains non-finite entries")
            mats[name] = M
        dims = {"n": mats["A"].shape[0], "m": mats["B"].shape[1],
                "q": mats["H"].shape[1], "p": mats["C"].shape[0],
                "r": mats["E"].shape[0]}
        for name, (rows, cols) in _MATRIX_SHAPES.items():
            shp = (dims[rows], dims[cols])
            if mats[name].shape != shp:
                raise DimensionMismatch(
                    f"{name} has shape {mats[name].shape}, expected {shp}"
                )
        if self.time_domain not in (CONTINUOUS, DISCRETE):
            raise InvalidInput(f"unknown time domain {self.time_domain!r}")
        self._adopt(mats)

    @classmethod
    def _checked(cls, mats: dict, time_domain: str) -> "PlantSystem":
        """A plant on the float matrices `mats` (by name) that the caller
        has just built and checked as `__post_init__` does (finite, of
        consistent shapes, a known time domain) and keeps no reference to:
        they are frozen in place, not copied, and not checked again."""
        sys_ = object.__new__(cls)
        object.__setattr__(sys_, "time_domain", time_domain)
        sys_._adopt(mats)
        return sys_

    def _adopt(self, mats: dict):
        for name in _MATRIX_SHAPES:
            M = mats[name]
            M.setflags(write=False)
            object.__setattr__(self, name, M)

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]

    @property
    def q(self) -> int:
        return self.H.shape[1]

    @property
    def p(self) -> int:
        return self.C.shape[0]

    @property
    def r(self) -> int:
        return self.E.shape[0]

    @property
    def region(self) -> StabilityRegion:
        return StabilityRegion(self.time_domain)

    @_kept
    def control_quadruple(self) -> Quadruple:
        """(A, B, E, D_z), one object per plant."""
        return Quadruple._checked(self.A, self.B, self.E, self.D_z)

    @_kept
    def observation_quadruple(self) -> Quadruple:
        """(A, H, C, G_y), one object per plant."""
        return Quadruple._checked(self.A, self.H, self.C, self.G_y)


@_kept
def extended_quadruples(sys: PlantSystem) -> tuple[Quadruple, Quadruple]:
    """Input-extended (A, [B H], E, [D_z G_z]) and output-extended
    (A, H, [C; E], [G_y; G_z]) quadruples, one pair per plant. Every caller
    shares them, so their stacked matrices are read-only, as the plant's are."""
    BH = np.concatenate((sys.B, sys.H), axis=1)
    DG = np.concatenate((sys.D_z, sys.G_z), axis=1)
    CE = np.concatenate((sys.C, sys.E))
    GG = np.concatenate((sys.G_y, sys.G_z))
    return (Quadruple._checked(sys.A, BH, sys.E, DG),
            Quadruple._checked(sys.A, sys.H, CE, GG))


def disturbance_image_condition(sys: PlantSystem, V: Subspace,
                                tol: ToleranceProfile = DEFAULT_TOL) -> float:
    """Residual of im [H; G_z] <= (V + 0_Z) + im [B; D_z]: the nulling
    residual of an orthonormal basis of im [H; G_z], a sine."""
    HG = span_of(np.concatenate((sys.H, sys.G_z)), tol).basis
    return _nulling_system(V, sys.control_quadruple(), HG, tol)[2]


def disturbance_kernel_condition(sys: PlantSystem, S: Subspace,
                                 tol: ToleranceProfile = DEFAULT_TOL) -> float:
    """Residual of ker [E G_z] >= (S + W) ^ ker [C G_y], by complements
    im [E G_z]^T <= (S^perp + 0_W) + im [C G_y]^T: (a)'s residual on S^perp
    and the dual observation quadruple (A^T, C^T, H^T, G_y^T)."""
    EG = span_of(np.concatenate((sys.E, sys.G_z), axis=1).T, tol).basis
    dual = sys.observation_quadruple().dual()
    return _nulling_system(complement(S, tol), dual, EG, tol)[2]


def coupling_conditions(sys: PlantSystem, V: Subspace, S: Subspace,
                        tol: ToleranceProfile = DEFAULT_TOL) -> dict:
    """Residuals of the three coupling conditions for a candidate pair:

    (a) im [H; G_z] <= (V + 0_Z) + im [B; D_z]
    (b) ker [E G_z] >= (S + W) ^ ker [C G_y]
    (c) S <= V
    """
    ra = disturbance_image_condition(sys, V, tol)
    rb = disturbance_kernel_condition(sys, S, tol)
    rc = containment_residual(S, V)
    return {
        "a": (ra <= tol.residual, ra),
        "b": (rb <= tol.residual, rb),
        "c": (rc <= tol.angle, rc),
    }


@_kept
def _star_pair(sys: PlantSystem, tol: ToleranceProfile) -> tuple[Subspace, Subspace]:
    """The star pair (V*, S*): V* of the control quadruple and S* of the
    observation one, once per plant and tolerance profile."""
    return vstar(sys.control_quadruple(), tol), sstar(sys.observation_quadruple(), tol)


@_kept
def _star_coupling(sys: PlantSystem, tol: ToleranceProfile) -> dict:
    """`coupling_conditions` on the star pair, once per plant and tolerance
    profile."""
    return coupling_conditions(sys, *_star_pair(sys, tol), tol)


def vm_sM(sys: PlantSystem,
          tol: ToleranceProfile = DEFAULT_TOL) -> tuple[Subspace, Subspace]:
    """Minimum self-bounded element of the input-extended lattice and
    maximum self-hidden element of the output-extended one.

    v_m is R* = V* ^ S* of the input-extended quadruple and s_M is
    Q* = V* + S* of the output-extended one, so only that half of each
    `rstar_qstar` pair is built. Under coupling condition (a) on the star
    pair, V* of the input-extended quadruple is the plant's V*: any V
    output nulling for it gives V + V* output nulling for the control
    quadruple, since (a) writes each disturbance column as a V* part plus a
    control column. Dually, under (b), S* of the output-extended quadruple
    is the plant's S*. So each of those two recursions runs only when its
    condition fails, and the star pair and the conditions are read from
    the plant's memo. `lattice_report` builds the same pair from its own
    recursions and cross-checks both halves against their reduced forms."""
    quad_b, quad_c = extended_quadruples(sys)
    Vst, Sst = _star_pair(sys, tol)
    conds = _star_coupling(sys, tol)
    v_til = Vst if conds["a"][0] else vstar(quad_b, tol)
    s_bar = Sst if conds["b"][0] else sstar(quad_c, tol)
    v_m = combine("intersect", v_til, sstar(quad_b, tol), tol)
    s_M = combine("sum", vstar(quad_c, tol), s_bar, tol)
    return v_m, s_M
