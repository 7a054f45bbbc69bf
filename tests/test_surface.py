"""The public surface of geodd: the names the package exports and the
signatures of the geometry functions whose input-containing kind is computed
through the dual quadruple. A change here is a change of the public API."""

import inspect

import geodd
from geodd import geometry

EXPORTED = {
    # errors
    "AllSingular", "BoundarySpectrum", "CertificateFailed", "ContinuousNotSupported",
    "DimensionMismatch", "FixedSpectrumOutsideRegion", "GenerationFailed",
    "GeoddError", "Infeasible", "InvalidInput", "NoSolution", "NotInvariant",
    "NotStabilizablePair", "NotWellPosed", "ParseError", "SampleTooCloseToPole",
    "ShapeError", "WellPosednessObstruction", "WellPosednessViolated",
    # geometry
    "FriendCertificate", "Quadruple", "SpectralReport", "friend", "invariant_zeros",
    "reach_detect", "rstar_qstar", "self_predicate", "spectral_report", "sstar",
    "sstar_g", "stabilizing_friend", "vstar", "vstar_g",
    # lattice
    "LatticeReport", "PlantSystem", "extended_quadruples", "lattice_report",
    "coupling_conditions", "vm_sM",
    # subspaces
    "StabilityRegion", "Subspace", "ToleranceProfile", "combine", "extended_ops",
    "invariant_hull", "kernel_of", "modal_subspace", "preimage", "relate", "span_of",
    # synthesis
    "AffineKFamily", "ClosedLoop", "Compensator", "FeasibilityReport", "analyze_p1",
    "analyze_p2", "coupling_residual", "close_loop", "k_affine_family",
    "k_set_equivalence", "recover_parameters", "select_wellposed", "solve",
    "synthesize",
    # verify
    "DecouplingCertificate", "InstanceSpec", "certify_decoupled", "default_lambdas",
    "generate_instance", "necessity_round_trip", "simulate_impulse",
    "stability_check", "transfer_samples",
}

TOL = "tol: 'ToleranceProfile' = ToleranceProfile(rank_rel=1e-10, angle=1e-08, residual=1e-08)"
SIGNATURES = {
    "sstar": f"(q: 'Quadruple', {TOL}, return_sequence: 'bool' = False)",
    "input_containing_residual": f"(S: 'Subspace', q: 'Quadruple', {TOL}) -> 'float'",
    "friend": f"(kind: 'str', V_or_S: 'Subspace', q: 'Quadruple', {TOL})"
              " -> 'FriendCertificate'",
    "reach_detect": f"(kind: 'str', V_or_S: 'Subspace', cert: 'FriendCertificate',"
                    f" q: 'Quadruple', {TOL}) -> 'Subspace'",
    "spectral_report": f"(V_or_S: 'Subspace', kind: 'str', q: 'Quadruple',"
                       f" cert: 'FriendCertificate | None' = None, {TOL})"
                       " -> 'SpectralReport'",
    "self_predicate": f"(kind: 'str', X: 'Subspace', q: 'Quadruple', {TOL}) -> 'bool'",
    "stabilizing_friend": f"(V_or_S: 'Subspace', kind: 'str', q: 'Quadruple',"
                          f" region: 'StabilityRegion', {TOL}, *,"
                          " base: 'np.ndarray | None' = None,"
                          " pair_fixed: 'np.ndarray | None' = None)"
                          " -> 'FriendCertificate'",
}


def test_exported_names():
    public = {name for name, value in vars(geodd).items()
              if not name.startswith("_") and not inspect.ismodule(value)}
    assert public == EXPORTED


def test_geometry_signatures():
    got = {name: str(inspect.signature(getattr(geometry, name))) for name in SIGNATURES}
    assert got == SIGNATURES


def test_kind_strings():
    assert (geometry.OUTPUT_NULLING, geometry.INPUT_CONTAINING) == (
        "output_nulling", "input_containing")
