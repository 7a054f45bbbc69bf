"""Dual lattice constructions for the nine-matrix plant.

The plant couples a control channel (A, B, E, D_z) with an observation
channel (A, H, C, G_y). Extending each channel with the disturbance data
gives the two quadruples whose minimum self-bounded and maximum self-hidden
elements drive the synthesis with stability.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, InvalidInput
from .geometry import (
    Quadruple,
    _bd,
    _nulling_target,
    input_containing_residual,
    output_nulling_residual,
    sstar,
    vstar,
)
from .subspaces import (
    CONTINUOUS,
    DEFAULT_TOL,
    DISCRETE,
    StabilityRegion,
    Subspace,
    ToleranceProfile,
    _norm2,
    combine,
    containment_residual,
    contains,
    equal,
    kernel_of,
    lifted_basis,
    span_of,
)

_MATRIX_FIELDS = ("A", "B", "H", "C", "D_y", "G_y", "E", "D_z", "G_z")


@dataclass(frozen=True)
class PlantSystem:
    """The nine matrices of the plant plus its time domain.

    State n, control m, disturbance q, measurement p, regulated output r:
        Dx = A x + B u + H w
        y  = C x + D_y u + G_y w
        z  = E x + D_z u + G_z w

    The plant is immutable: each matrix is stored as a read-only float copy
    of what was passed in, so writing into `plant.A` raises ValueError.
    That makes it sound for the analyses to keep what they derive from the
    plant alone (the star pair, the coupling conditions on it, the
    well-posedness result and the stabilizability precondition) in a
    private per-instance memo, so that `analyze_p1`, `analyze_p2` and
    `solve` on one plant share one computation of each. The memo lives and
    dies with the object; `dataclasses.replace` returns a plant with an
    empty one.
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
        for name in _MATRIX_FIELDS:
            M = np.array(getattr(self, name), dtype=float, ndmin=2)
            if M.size and not np.isfinite(M).all():
                raise InvalidInput(f"{name} contains non-finite entries")
            mats[name] = M
        n = mats["A"].shape[0]
        m = mats["B"].shape[1]
        q = mats["H"].shape[1]
        p = mats["C"].shape[0]
        r = mats["E"].shape[0]
        expected = {
            "A": (n, n), "B": (n, m), "H": (n, q),
            "C": (p, n), "D_y": (p, m), "G_y": (p, q),
            "E": (r, n), "D_z": (r, m), "G_z": (r, q),
        }
        for name, shp in expected.items():
            if mats[name].shape != shp:
                raise DimensionMismatch(
                    f"{name} has shape {mats[name].shape}, expected {shp}"
                )
        if self.time_domain not in (CONTINUOUS, DISCRETE):
            raise InvalidInput(f"unknown time domain {self.time_domain!r}")
        for name, M in mats.items():
            M.setflags(write=False)
            object.__setattr__(self, name, M)
        object.__setattr__(self, "_memo", {})

    def _memoized(self, key, compute):
        """compute(), evaluated once per key for this plant. The key must
        name everything the value depends on besides the plant itself."""
        try:
            return self._memo[key]
        except KeyError:
            value = self._memo[key] = compute()
            return value

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

    def control_quadruple(self) -> Quadruple:
        return Quadruple(self.A, self.B, self.E, self.D_z)

    def observation_quadruple(self) -> Quadruple:
        return Quadruple(self.A, self.H, self.C, self.G_y)


def extended_quadruples(sys: PlantSystem) -> tuple[Quadruple, Quadruple]:
    """Input-extended (A, [B H], E, [D_z G_z]) and output-extended
    (A, H, [C; E], [G_y; G_z]) quadruples."""
    quad_b = Quadruple(
        sys.A, np.hstack([sys.B, sys.H]), sys.E, np.hstack([sys.D_z, sys.G_z])
    )
    quad_c = Quadruple(
        sys.A, sys.H, np.vstack([sys.C, sys.E]), np.vstack([sys.G_y, sys.G_z])
    )
    return quad_b, quad_c


def disturbance_image_condition(sys: PlantSystem, V: Subspace,
                                tol: ToleranceProfile = DEFAULT_TOL) -> float:
    """Residual of im [H; G_z] <= (V + 0_Z) + im [B; D_z]."""
    quad = sys.control_quadruple()
    target = _nulling_target(V, quad, span_of(_bd(quad), tol), tol)
    HG = span_of(np.vstack([sys.H, sys.G_z]), tol)
    return containment_residual(HG, target)


def disturbance_kernel_condition(sys: PlantSystem, S: Subspace,
                                 tol: ToleranceProfile = DEFAULT_TOL) -> float:
    """Residual of ker [E G_z] >= (S + W) ^ ker [C G_y]."""
    dom = combine("intersect", Subspace._adopt(sys.n + sys.q, lifted_basis(S, sys.q)),
                  kernel_of(np.hstack([sys.C, sys.G_y]), tol), tol)
    if dom.is_trivial:
        return 0.0
    return _norm2(np.hstack([sys.E, sys.G_z]) @ dom.basis)


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


def vm_sM(sys: PlantSystem,
          tol: ToleranceProfile = DEFAULT_TOL) -> tuple[Subspace, Subspace]:
    """Minimum self-bounded element of the input-extended lattice and
    maximum self-hidden element of the output-extended one.

    v_m is R* = V* ^ S* of the input-extended quadruple and s_M is
    Q* = V* + S* of the output-extended one, so only that half of each
    `rstar_qstar` pair is built. `lattice_report` builds the same pair
    from its own recursions and cross-checks v_m against its reduced form."""
    quad_b, quad_c = extended_quadruples(sys)
    v_m = combine("intersect", vstar(quad_b, tol), sstar(quad_b, tol), tol)
    s_M = combine("sum", vstar(quad_c, tol), sstar(quad_c, tol), tol)
    return v_m, s_M


@dataclass(frozen=True)
class LatticeCheck:
    """One named inclusion/equality with its hypothesis gate."""

    name: str
    hypothesis_ok: bool
    passed: bool | None  # None when the hypothesis fails (skipped)
    residual: float
    marginal: bool = False

    @property
    def skipped(self) -> bool:
        return self.passed is None


@dataclass(frozen=True)
class LatticeReport:
    v_m: Subspace
    s_M: Subspace
    inclusion_checks: tuple
    interleaved_sums_ok: bool | None
    extended_lattice_ok: bool | None
    reduced_lattice_ok: bool | None
    # The p2 solvability test rerun on the stabilizability/detectability
    # subspaces (V*_g, S*_g): {"verdict", "conditions"[, "error"]}. The
    # paper's claim is that its verdict equals `analyze_p2(...).solvable`.
    route_stabilizability: dict
    sequences: dict = field(repr=False)

    def check(self, name: str) -> LatticeCheck:
        for c in self.inclusion_checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def to_dict(self) -> dict:
        def verdict(x):
            return "skipped" if x is None else bool(x)

        return {
            "v_m_dim": self.v_m.dim,
            "s_M_dim": self.s_M.dim,
            "checks": [
                {
                    "name": c.name,
                    "hypothesis_ok": c.hypothesis_ok,
                    "verdict": "skipped" if c.skipped else bool(c.passed),
                    "residual": c.residual,
                    "marginal": c.marginal,
                }
                for c in self.inclusion_checks
            ],
            "interleaved_sums": verdict(self.interleaved_sums_ok),
            "extended_lattice": verdict(self.extended_lattice_ok),
            "reduced_lattice": verdict(self.reduced_lattice_ok),
            "route_stabilizability": self.route_stabilizability,
        }


def _inclusion_check(name, inner, outer, hypothesis_ok, hyp_residual, tol,
                     both_ways=False):
    if not hypothesis_ok:
        return LatticeCheck(name, False, None, float("nan"))
    resid = containment_residual(inner, outer)
    if both_ways:
        resid = max(resid, containment_residual(outer, inner))
    marginal = hyp_residual > tol.residual / 10.0
    return LatticeCheck(name, True, resid <= tol.angle, resid, marginal)


def lattice_report(sys: PlantSystem,
                   tol: ToleranceProfile = DEFAULT_TOL) -> LatticeReport:
    """Numerical audit of the dual-lattice identities on one plant.

    Every conclusion is evaluated only when its hypothesis holds; a failed
    hypothesis yields a skipped check, never a failed one. Hypotheses that
    pass within a factor ten of the threshold are flagged marginal. Each
    star recursion runs once.
    """
    from .synthesis import _stabilizability_route

    quad_ctrl = sys.control_quadruple()
    quad_obs = sys.observation_quadruple()
    quad_b, quad_c = extended_quadruples(sys)

    v_hat, v_hat_seq = vstar(quad_ctrl, tol, return_sequence=True)
    s_hat, s_hat_seq = sstar(quad_ctrl, tol, return_sequence=True)
    v_til, v_til_seq = vstar(quad_b, tol, return_sequence=True)
    s_til, s_til_seq = sstar(quad_b, tol, return_sequence=True)
    s_chk, s_chk_seq = sstar(quad_obs, tol, return_sequence=True)
    v_bar, v_bar_seq = vstar(quad_c, tol, return_sequence=True)
    s_bar = sstar(quad_c, tol)

    # vm_sM from the recursions above: v_m = R*(quad_b), s_M = Q*(quad_c).
    v_m = combine("intersect", v_til, s_til, tol)
    s_M = combine("sum", v_bar, s_bar, tol)
    vm_plus_sM = combine("sum", v_m, s_M, tol)
    vm_cap_sM = combine("intersect", v_m, s_M, tol)

    hyps = coupling_conditions(sys, v_hat, s_chk, tol)
    a_ok, hyp_a = hyps["a"]
    b_ok, hyp_b = hyps["b"]
    c_ok, hyp_c = hyps["c"]

    checks = [
        _inclusion_check("v_chain_upper", v_hat, v_til, True, 0.0, tol),
        _inclusion_check("v_chain_lower", v_bar, v_hat, a_ok, hyp_a, tol),
        _inclusion_check("s_chain_lower", s_bar, s_chk, True, 0.0, tol),
        _inclusion_check("s_chain_upper", s_chk, s_til, b_ok, hyp_b, tol),
        _inclusion_check("mixed_chain", s_bar, v_til, c_ok, hyp_c, tol),
        _inclusion_check("vm_in_vstar", v_m, v_hat, a_ok, hyp_a, tol),
        # With the disturbance image inside the control channel, v_m can
        # also be written against the unextended supremal subspace.
        _inclusion_check("vm_reduced_form", v_m,
                         combine("intersect", v_hat, s_til, tol),
                         a_ok, hyp_a, tol, both_ways=True),
    ]

    # Extended and plain recursions interleave: V-hat_i + S-tilde_j equals
    # V-hat_i + S-hat_j at every pair of indices once the disturbance image
    # condition holds (and the V-sequences themselves coincide).
    interleave_ok = None
    if a_ok:
        interleave_ok = all(
            equal(vi, vt, tol) for vi, vt in zip(v_hat_seq, v_til_seq)
        )
        for vi in v_hat_seq:
            for sj_t, sj_h in zip(s_til_seq, s_hat_seq):
                lhs = combine("sum", vi, sj_t, tol)
                rhs = combine("sum", vi, sj_h, tol)
                if not equal(lhs, rhs, tol):
                    interleave_ok = False

    extended_lattice_ok = None
    if c_ok:
        # R*(quad_b) is v_m and Q*(quad_c) is s_M, so the self-bounded and
        # self-hidden containments hold by construction; only the
        # invariance residuals can fail.
        extended_lattice_ok = (
            output_nulling_residual(vm_plus_sM, quad_b, tol) <= tol.residual
            and input_containing_residual(vm_cap_sM, quad_c, tol) <= tol.residual
        )

    reduced_lattice_ok = None
    if c_ok and (a_ok or b_ok):
        parts = []
        if a_ok:
            r_ctrl = combine("intersect", v_hat, s_hat, tol)
            parts.append(
                output_nulling_residual(vm_plus_sM, quad_ctrl, tol) <= tol.residual
                and contains(vm_plus_sM, r_ctrl, tol)
            )
        if b_ok:
            q_obs = combine("sum", vstar(quad_obs, tol), s_chk, tol)
            parts.append(
                input_containing_residual(vm_cap_sM, quad_obs, tol) <= tol.residual
                and contains(q_obs, vm_cap_sM, tol)
            )
        reduced_lattice_ok = all(parts)

    sequences = {
        "v_hat": v_hat_seq, "s_hat": s_hat_seq,
        "v_tilde": v_til_seq, "s_tilde": s_til_seq,
        "s_check": s_chk_seq, "v_bar": v_bar_seq,
    }
    return LatticeReport(
        v_m=v_m,
        s_M=s_M,
        inclusion_checks=tuple(checks),
        interleaved_sums_ok=interleave_ok,
        extended_lattice_ok=extended_lattice_ok,
        reduced_lattice_ok=reduced_lattice_ok,
        route_stabilizability=_stabilizability_route(sys, v_hat, s_hat, tol),
        sequences=sequences,
    )

