"""The public surface of geodd: the names the package exports, the
signatures of the geometry functions whose input-containing kind is computed
through the dual quadruple, the `exact` functions that the benchmark's
oracle and the plant generator call, and the command line (subcommands,
flags, their defaults and choices, and the entry points a tracer wraps). A
change here is a change of the public API."""

import argparse
import dataclasses
import inspect

import pytest

import geodd
from geodd import cli, exact, geometry, subspaces, synthesis, verify

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
                          f" region: 'StabilityRegion', {TOL})"
                          " -> 'FriendCertificate'",
}


# The Fraction interface of `exact` that the benchmark's exact oracle
# (bench/cases.py) and `generate.generate_instance` call: a rename here would
# break every benchmark set-up.
EXACT_SIGNATURES = {
    "from_array": "(A) -> 'RatMat'",
    "to_array": "(M: 'RatMat') -> 'np.ndarray'",
    "shape": "(M: 'RatMat')",
    "zeros": "(r: 'int', c: 'int') -> 'RatMat'",
    "eye": "(n: 'int') -> 'RatMat'",
    "transpose": "(M: 'RatMat') -> 'RatMat'",
    "vstack": "(*mats: 'RatMat') -> 'RatMat'",
    "hstack": "(*mats: 'RatMat') -> 'RatMat'",
    "matmul": "(A: 'RatMat', B: 'RatMat') -> 'RatMat'",
    "kernel": "(M: 'RatMat') -> 'RatMat'",
    "sum_spans": "(B1: 'RatMat', B2: 'RatMat') -> 'RatMat'",
    "intersect_spans": "(B1: 'RatMat', B2: 'RatMat') -> 'RatMat'",
    "contains_span": "(outer: 'RatMat', inner: 'RatMat') -> 'bool'",
    "lifted_span": "(S: 'RatMat', extra: 'int') -> 'RatMat'",
    "clear_denominators": "(B: 'RatMat') -> 'RatMat'",
    "vstar_span": "(A: 'RatMat', B: 'RatMat', C: 'RatMat', D: 'RatMat') -> 'RatMat'",
    "sstar_span": "(A: 'RatMat', B: 'RatMat', C: 'RatMat', D: 'RatMat') -> 'RatMat'",
    "affine_k_family": "(Atil: 'RatMat', Btil: 'RatMat', Ctil: 'RatMat', Tb: 'RatMat',"
                       " N: 'RatMat')",
    "det_grid_scan": "(family: 'ExactAffineFamily', Dy: 'RatMat', points_per_var: 'int')",
}


# The compensator formula, the loop-stability test, the analyses and solvers
# (which take no seed: the selected K is a function of the plant) and the
# fields of the records they read and return.
FORMULA_SIGNATURES = {
    synthesis.synthesize: "(sys: 'PlantSystem', K, F, G) -> 'Compensator'",
    verify.stability_check: "(A_hat, region: 'StabilityRegion') -> 'tuple[bool, np.ndarray]'",
    synthesis.select_wellposed: "(family: 'AffineKFamily', D_y) -> 'np.ndarray'",
    synthesis.analyze_p1: f"(sys: 'PlantSystem', {TOL}) -> 'FeasibilityReport'",
    synthesis.analyze_p2: f"(sys: 'PlantSystem', {TOL}) -> 'FeasibilityReport'",
    synthesis.solve: f"(sys: 'PlantSystem', problem: 'str' = 'p1', {TOL})",
    synthesis.solve_certified: f"(sys: 'PlantSystem', problem: 'str' = 'p1', {TOL})",
}
FIELDS = {
    subspaces.StabilityRegion: ("kind",),
    synthesis.AffineKFamily: ("K0", "directions"),
    synthesis.ClosedLoop: ("A_hat", "H_hat", "C_hat", "G_hat", "W", "time_domain"),
    geometry.FriendCertificate: ("F_or_G", "kind", "residual"),
}


def test_exported_names():
    public = {name for name, value in vars(geodd).items()
              if not name.startswith("_") and not inspect.ismodule(value)}
    assert public == EXPORTED


def test_geometry_signatures():
    got = {name: str(inspect.signature(getattr(geometry, name))) for name in SIGNATURES}
    assert got == SIGNATURES


def test_formula_signatures():
    got = {fn: str(inspect.signature(fn)) for fn in FORMULA_SIGNATURES}
    assert got == FORMULA_SIGNATURES


def test_record_fields():
    got = {cls: tuple(f.name for f in dataclasses.fields(cls)) for cls in FIELDS}
    assert got == FIELDS


def test_exact_signatures():
    got = {name: str(inspect.signature(getattr(exact, name))) for name in EXACT_SIGNATURES}
    assert got == EXACT_SIGNATURES


def test_kind_strings():
    assert (geometry.OUTPUT_NULLING, geometry.INPUT_CONTAINING) == (
        "output_nulling", "input_containing")


# {flag: (default, choices, required, type)} shared by every subcommand; a
# run is a function of its files, so no flag sets a tolerance, a seed or a
# sample count
COMMON_FLAGS = {
    "--input": (None, None, True, None),
    "--problem": ("p1", ["p1", "p2"], False, None),
    "--output": (None, None, False, None),
}
CLI_FLAGS = {
    "analyze": COMMON_FLAGS,
    "solve": COMMON_FLAGS,
    "verify": dict(COMMON_FLAGS, **{"--compensator": (None, None, True, None)}),
}
CLI_SIGNATURES = {
    "main": "(argv=None) -> 'int'",
    "build_parser": "() -> 'argparse.ArgumentParser'",
    "parse_problem": "(path: 'str')",
    "parse_compensator": "(path: 'str') -> 'Compensator'",
}


def cli_flags(parser) -> dict:
    """{subcommand: {flag: (default, choices, required, type name)}}."""
    [sub] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert sub.dest == "command" and sub.required
    return {name: {a.option_strings[0]: (a.default, a.choices, a.required,
                                         getattr(a.type, "__name__", None))
                   for a in command._actions if a.dest != "help"}
            for name, command in sub.choices.items()}


@pytest.mark.parametrize("parser", [cli.build_parser(), cli._PARSER],
                         ids=["fresh", "cached"])
def test_cli_flags(parser):
    assert cli_flags(parser) == CLI_FLAGS
    assert parser.prog == "geodd"


def test_cli_signatures():
    got = {name: str(inspect.signature(getattr(cli, name))) for name in CLI_SIGNATURES}
    assert got == CLI_SIGNATURES
    assert str(inspect.signature(verify.default_lambdas)) == (
        "(cl: 'ClosedLoop', count: 'int' = 20) -> 'list'")
