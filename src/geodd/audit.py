"""Audit of the paper's structural claims, beside the solver: code that no
solve path runs. It imports the solve modules, and none of them imports it.

`lattice_report` checks the dual-lattice identities of Basile & Marro (1992),
each gated by its hypothesis, and reruns the p2 test on the stabilizability
and detectability subspaces (V*_g, S*_g); `k_set_equivalence` checks that
the K families on (S*, V*) and on (S_M, V_m + S_M) are one affine set;
`necessity_round_trip` reads the coupling conditions back from a certified
loop, and `simulate_impulse` gives a discrete loop's peak output under
disturbance impulses.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import AllSingular, ContinuousNotSupported, GeoddError, NoSolution
from .geometry import (
    INPUT_CONTAINING,
    OUTPUT_NULLING,
    _stabilizability_subspace,
    input_containing_residual,
    output_nulling_residual,
    sstar,
    vstar,
)
from .lattice import PlantSystem, coupling_conditions, extended_quadruples
from .subspaces import (
    DEFAULT_TOL,
    DISCRETE,
    Subspace,
    ToleranceProfile,
    combine,
    containment_residual,
    contains,
    equal,
    extended_ops,
)
from .synthesis import (
    _PRECONDITION_NOTE,
    _coupling_checks,
    _stabilizable_detectable,
    analysis_pair,
    k_affine_family,
    select_wellposed,
)
from .verify import ClosedLoop, certify_decoupled


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


@dataclass(frozen=True, eq=False)
class LatticeReport:
    v_m: Subspace
    s_M: Subspace
    inclusion_checks: tuple
    interleaved_sums_ok: bool | None
    extended_lattice_ok: bool | None
    reduced_lattice_ok: bool | None
    # The p2 solvability test rerun on the stabilizability/detectability
    # subspaces (V*_g, S*_g), read from the splits of the report's V* of the
    # control quadruple and S* of the observation one:
    # {"verdict", "conditions"[, "error"]}. The paper's claim is that its
    # verdict equals `analyze_p2(...).solvable`.
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
        # Dually, with the disturbance kernel condition, s_M against the
        # unextended infimal subspace.
        _inclusion_check("sM_reduced_form", s_M,
                         combine("sum", v_bar, s_chk, tol),
                         b_ok, hyp_b, tol, both_ways=True),
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
        route_stabilizability=_stabilizability_route(sys, v_hat, s_chk, tol),
        sequences=sequences,
    )


def _stabilizability_route(sys, Vst, Sst, tol) -> dict:
    """The p2 solvability test on the largest stabilizability and smallest
    detectability subspaces, built from the splits of the star pair it is
    given: V* of the control quadruple and S* of the observation one, so it
    runs no star recursion of its own. The verdict is None when the test
    cannot be evaluated."""
    if not _stabilizable_detectable(sys, tol):
        return {"verdict": None, "conditions": {}, "error": _PRECONDITION_NOTE}
    try:
        VstG = _stabilizability_subspace(
            OUTPUT_NULLING, Vst, sys.control_quadruple(), sys.region, tol)
        SstG = _stabilizability_subspace(
            INPUT_CONTAINING, Sst, sys.observation_quadruple(), sys.region, tol)
    except (GeoddError, np.linalg.LinAlgError) as err:
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
    span1, span2 = fam1._span, fam2._span
    residuals = {
        "K0_1_in_2": fam2.distance(fam1.K0),
        "K0_2_in_1": fam1.distance(fam2.K0),
        "dirs_1_in_2": containment_residual(span1, span2),
        "dirs_2_in_1": containment_residual(span2, span1),
    }
    equal_sets = (
        span1.dim == span2.dim
        and residuals["K0_1_in_2"] <= tol.residual
        and residuals["K0_2_in_1"] <= tol.residual
        and residuals["dirs_1_in_2"] <= tol.angle
        and residuals["dirs_2_in_1"] <= tol.angle
    )
    return equal_sets, residuals


def simulate_impulse(cl: ClosedLoop, steps: int = 50) -> float:
    """Peak |z| under unit disturbance impulses, one channel at a time.

    Discrete time only; continuous loops are checked through
    transfer_samples instead.
    """
    if cl.time_domain != DISCRETE:
        raise ContinuousNotSupported("impulse simulation needs discrete time")
    n = cl.order
    q = cl.H_hat.shape[1]
    peak = 0.0
    for j in range(q):
        x = np.zeros(n)
        w = np.zeros(q)
        w[j] = 1.0
        z = cl.C_hat @ x + cl.G_hat @ w
        peak = max(peak, float(np.max(np.abs(z))) if z.size else 0.0)
        x = cl.A_hat @ x + cl.H_hat @ w
        for _ in range(1, steps):
            z = cl.C_hat @ x
            peak = max(peak, float(np.max(np.abs(z))) if z.size else 0.0)
            x = cl.A_hat @ x
    return peak


def necessity_round_trip(sys: PlantSystem, cl: ClosedLoop,
                         tol: ToleranceProfile = DEFAULT_TOL) -> dict:
    """Extract V = p(I^), S = i(I^) from a certified loop and re-check the
    coupling conditions they must satisfy."""
    cert = certify_decoupled(cl, tol)
    I_hat = cert.invariant_subspace
    V = extended_ops("project", I_hat, sys.n, tol)
    S = extended_ops("intersect", I_hat, sys.n, tol)
    conds = coupling_conditions(sys, V, S, tol)
    return {
        "certificate": cert,
        "V": V,
        "S": S,
        "output_nulling_residual": output_nulling_residual(
            V, sys.control_quadruple(), tol),
        "input_containing_residual": input_containing_residual(
            S, sys.observation_quadruple(), tol),
        "a": conds["a"],
        "b": conds["b"],
        "S_in_V_residual": containment_residual(S, V),
    }
