import copy
import itertools
import sys
import warnings
from dataclasses import replace
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from geodd import GenerationFailed, audit, exact, geometry, lattice, subspaces, synthesis, verify
from geodd.audit import k_set_equivalence, lattice_report
from geodd.errors import (
    AllSingular,
    CertificateFailed,
    GeoddError,
    Infeasible,
    InvalidInput,
    NotWellPosed,
    WellPosednessObstruction,
    WellPosednessViolated,
)
from geodd.generate import InstanceSpec, generate_instance
from geodd.geometry import (
    INPUT_CONTAINING,
    OUTPUT_NULLING,
    friend,
    rstar_qstar,
    spectral_report,
    sstar,
    sstar_g,
    vstar,
    vstar_g,
)
from geodd.lattice import PlantSystem, extended_quadruples, vm_sM
from geodd.subspaces import (
    CONTINUOUS,
    DEFAULT_TOL,
    DISCRETE,
    Subspace,
    ToleranceProfile,
    combine,
    complement,
    equal,
    relate,
    span_of,
)
from geodd.synthesis import (
    DELTA_WP,
    AffineKFamily,
    Compensator,
    analysis_pair,
    analyze_p1,
    analyze_p2,
    coupling_residual,
    close_loop,
    k_affine_family,
    recover_parameters,
    select_wellposed,
    solve,
    solve_certified,
    synthesize,
    wellposedness_margin,
)
from geodd.verify import certify_decoupled, stability_check
from helpers import (
    count_calls,
    lapack_builds,
    match_spectra,
    lifted_obstruction,
    reference_affine_k_family,
    reference_det_grid_scan,
    reference_kernel,
    reference_sampled_member,
    reference_spectral_report,
    reference_sstar_span,
    reference_vstar_span,
    stabilized_compensator,
)


class TestAffineFamily:
    def test_mismatched_plant_contains_the_stated_feedback(self, mismatched_plant, mismatched_plant_pair):
        V, S = mismatched_plant_pair
        K = np.array([[1.0, -1.0], [1.0, -1.0]])
        assert coupling_residual(mismatched_plant, V, S, K) <= 1e-10
        family = k_affine_family(mismatched_plant, S, V)
        assert family.distance(K) <= 1e-10
        assert relate(S, V) == "incomparable"

    def test_singular_family_plant_family_shape(self, singular_family_plant):
        S = span_of(np.array([[1.0], [-1.0], [1.0]]))
        family = k_affine_family(singular_family_plant, S, Subspace.full(3))
        assert np.allclose(family.K0, [[-1.0, 0.0], [0.0, 0.0]], atol=1e-10)
        assert family.n_directions == 2
        # free entries live in the second row
        for D in family.directions:
            assert np.linalg.norm(D[0]) <= 1e-10

    def test_unconstrained_family_spans_everything(self):
        sys = PlantSystem(A=np.eye(2), B=np.eye(2), H=[[1.0], [0.0]],
                          C=np.eye(2), D_y=np.zeros((2, 2)), G_y=np.zeros((2, 1)),
                          E=[[1.0, 0.0]], D_z=np.zeros((1, 2)), G_z=np.zeros((1, 1)))
        fam = k_affine_family(sys, Subspace.trivial(2), Subspace.full(2))
        assert fam.n_directions == sys.m * sys.p

    def test_member_soundness(self, singular_family_plant):
        S = span_of(np.array([[1.0], [-1.0], [1.0]]))
        V = Subspace.full(3)
        fam = k_affine_family(singular_family_plant, S, V)
        rng = np.random.default_rng(1)
        for _ in range(50):
            K = fam.member(rng.standard_normal(fam.n_directions) * 3)
            assert coupling_residual(singular_family_plant, V, S, K) <= 1e-8

    @pytest.mark.parametrize("domain", ["continuous", "discrete"])
    def test_particular_solution_is_orthogonal_to_the_directions(self, domain):
        # K0 is the minimum-norm member: a component along a direction, left
        # by a roundoff singular value the direction cutoff drops, moves
        # every compensator built on the family.
        for seed in range(60):
            plant = generate_instance(InstanceSpec(seed=seed, n=4 + seed % 5,
                                                   time_domain=domain))
            fam = k_affine_family(plant, *reversed(analysis_pair(plant, "p1")))
            bound = 1e-12 * (1 + np.linalg.norm(fam.K0))
            for D in fam.directions:
                assert abs(np.sum(D * fam.K0)) <= bound


class TestSelectWellposed:
    def test_zero_feedthrough_returns_particular(self, mismatched_plant, mismatched_plant_pair):
        V, S = mismatched_plant_pair
        fam = k_affine_family(mismatched_plant, S, V)
        K = select_wellposed(fam, mismatched_plant.D_y)
        assert np.allclose(K, fam.K0)

    def test_singular_family_plant_all_singular_confirmed(self, singular_family_plant,
                                                          monkeypatch):
        plant = singular_family_plant
        grids = []
        scan = exact.det_grid_scan

        def recording_scan(family, Dy, points_per_var):
            grids.append(points_per_var)
            return scan(family, Dy, points_per_var)

        monkeypatch.setattr(exact, "det_grid_scan", recording_scan)
        family = k_affine_family(plant, *reversed(analysis_pair(plant, "p1")))
        # the float screen proves nothing and runs no grid
        with pytest.raises(AllSingular):
            select_wellposed(family, plant.D_y)
        assert grids == []
        family, check, K = synthesis._wellposedness_condition(plant, "iv", DEFAULT_TOL)
        assert (check.passed, check.note, K) == (
            False, "confirmed singular on exact grid", None)
        # det(I + K D_y) has degree at most m in each theta_i, so an m + 1
        # point grid per variable is the proof, whatever the family's size
        assert grids == [family.shape[0] + 1]

    def test_scalar_channel_plant_half_is_well_posed(self, scalar_channel_plant):
        rep = analyze_p1(scalar_channel_plant)
        assert rep.family.distance([[0.5]]) <= 1e-10
        assert wellposedness_margin([[0.5]], scalar_channel_plant.D_y) >= 1e-8


# Entries of the K families below: few values, so that members, sums and
# determinants vanish exactly often enough to reach every branch.
FAMILY_ENTRIES = st.sampled_from([-1.0, -0.5, 0.0, 0.0, 0.5, 1.0, 2.0])


@st.composite
def k_families(draw):
    """(AffineKFamily, D_y). Half are diagonal families
    K = -I + sum theta_i c_i E_ii with D_y = I, whose determinant prod of the
    covered theta_i vanishes at K0 and at every unit step when m > 1, and
    everywhere when a diagonal entry is left uncovered."""
    if draw(st.booleans()):
        m = draw(st.integers(1, 3))
        covered = draw(st.lists(st.integers(0, m - 1), max_size=m, unique=True))
        dirs = []
        for i in covered:
            D = np.zeros((m, m))
            D[i, i] = draw(st.sampled_from([-2.0, -1.0, 0.5, 1.0]))
            dirs.append(D)
        return AffineKFamily(-np.eye(m), tuple(dirs)), np.eye(m)
    m, p = draw(st.integers(1, 3)), draw(st.integers(1, 3))

    def block(r, c):
        return np.array([[draw(FAMILY_ENTRIES) for _ in range(c)] for _ in range(r)])

    nd = draw(st.integers(0, 3))
    return AffineKFamily(block(m, p), tuple(block(m, p) for _ in range(nd))), block(p, m)


def projected_unit_steps(family):
    """K0 + P(E_ij) and K0 - P(E_ij) for each unit matrix E_ij, column-major,
    with P the orthogonal projector onto the span of the directions."""
    m, p = family.shape
    B = family._span.basis
    P = B @ B.T
    return [family.K0 + sign * P[:, k].reshape((m, p), order="F")
            for k in range(m * p) for sign in (1.0, -1.0)]


def selected_or_none(family, D_y):
    try:
        return select_wellposed(family, D_y)
    except AllSingular:
        return None


class TestWellposedScreen:
    """`select_wellposed` against the one-member-at-a-time sampling loop it
    replaces (`helpers.reference_sampled_member`)."""

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(k_families())
    def test_same_member_bit_for_bit(self, family_and_dy):
        family, D_y = family_and_dy
        want = reference_sampled_member(family, D_y)
        if want is None:
            with pytest.raises(AllSingular):
                select_wellposed(family, D_y)
            return
        got = select_wellposed(family, D_y)
        assert (got.shape, got.dtype, got.tobytes()) == (want.shape, want.dtype,
                                                         want.tobytes())

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(k_families(), st.integers(0, 2**32 - 1))
    def test_member_does_not_depend_on_the_direction_basis(self, family_and_dy,
                                                           rotation_seed):
        # the selected K is a function of the affine set: a random orthogonal
        # rotation of the directions moves it by roundoff only
        family, D_y = family_and_dy
        nd = family.n_directions
        Q, _ = np.linalg.qr(np.random.default_rng(rotation_seed).standard_normal((nd, nd)))
        rotated = AffineKFamily(family.K0, tuple(
            sum(Q[i, j] * D for i, D in enumerate(family.directions))
            for j in range(nd)))
        want = selected_or_none(family, D_y)
        got = selected_or_none(rotated, D_y)
        assert (got is None) == (want is None)
        if want is not None:
            assert np.linalg.norm(got - want) <= 1e-12 * (1 + np.linalg.norm(want))

    @pytest.mark.parametrize("m,p", [(2, 2), (2, 3)])
    def test_dependent_directions_give_the_member_of_their_span(self, m, p):
        # K0 D_y = -I, so K0 is singular and the screen decides
        rng = np.random.default_rng(m * p)
        D_y = rng.standard_normal((p, m))
        K0 = -np.linalg.pinv(D_y)
        basis = np.linalg.qr(rng.standard_normal((m * p, 2)))[0]
        d1, d2 = (basis[:, j].reshape((m, p), order="F") for j in range(2))
        orthonormal = AffineKFamily(K0, (d1, d2))
        mixed = AffineKFamily(K0, (2 * d1 + d2, 3 * d2, d1 - d2, 0 * d1))
        want = select_wellposed(orthonormal, D_y)
        assert not np.array_equal(want, K0)
        assert np.linalg.norm(select_wellposed(mixed, D_y) - want) \
            <= 1e-12 * np.linalg.norm(want)
        assert mixed.distance(want) <= 1e-12 and orthonormal.distance(want) <= 1e-12

    @pytest.mark.parametrize("K0,dirs,branch", [
        ([[0.5, 0.0], [0.0, 0.5]], [], "K0"),
        ([[-1.0, 0.0], [0.0, 0.0]], [[[1.0, 0.0], [0.0, 0.0]]], "unit step"),
        ([[-1.0, 0.0], [0.0, -1.0]], [[[1.0, 0.0], [0.0, 0.0]],
                                      [[0.0, 0.0], [0.0, 1.0]]], "trial"),
        ([[-1.0, 0.0], [0.0, -1.0]], [[[1.0, 0.0], [0.0, 0.0]]], "none"),
        # a direction that is no unit matrix: the step is its projection
        ([[-1.0, 0.0], [0.0, 0.0]], [[[1.0, 1.0], [0.0, 0.0]]], "unit step"),
    ])
    def test_each_branch(self, K0, dirs, branch):
        family = AffineKFamily(np.array(K0), tuple(np.array(D) for D in dirs))
        D_y = np.eye(2)
        want = reference_sampled_member(family, D_y)
        if branch == "none":
            assert want is None
            with pytest.raises(AllSingular):
                select_wellposed(family, D_y)
            return
        got = select_wellposed(family, D_y)
        assert got.tobytes() == want.tobytes()
        steps = projected_unit_steps(family) if dirs else []
        assert (np.array_equal(got, family.K0), any(np.array_equal(got, K) for K in steps)) \
            == {"K0": (True, False), "unit step": (False, True), "trial": (False, False)}[branch]

    def test_point_family_evaluates_one_margin(self, monkeypatch):
        # K0 is the only member of a family without directions: one margin
        # decides, where the sampling loop evaluated K0 another 64 times
        calls = count_calls(monkeypatch, "wellposedness_margin", synthesis)
        singular = AffineKFamily(np.array([[-1.0]]), ())
        with pytest.raises(AllSingular):
            select_wellposed(singular, [[1.0]])
        assert len(calls) == 1
        well_posed = AffineKFamily(np.array([[0.5]]), ())
        assert select_wellposed(well_posed, [[1.0]]) is well_posed.K0
        assert len(calls) == 2

    def test_point_family_obstruction_goes_straight_to_the_grid(self, monkeypatch):
        # an m = p = 1 plant whose star family is the single K0 = -1/2, D_y = 2
        plant = generate_instance(InstanceSpec(seed=28, n=3, m=1, q=1, p=1, r=1,
                                               solvable_by_construction=False))
        calls = count_calls(monkeypatch, "wellposedness_margin", synthesis)
        family, check, _ = synthesis._wellposedness_condition(plant, "iv", DEFAULT_TOL)
        assert family.n_directions == 0
        assert check.note == "confirmed singular on exact grid" and len(calls) == 1


def exact_star_family(sys):
    """`exact._star_family` on the plant's matrices, as the well-posedness
    condition calls it."""
    return exact._star_family(sys.A, sys.B, sys.H, sys.C, sys.G_y, sys.E, sys.D_z,
                              sys.G_z)


def reference_star_family(sys):
    """`exact_star_family` on the Fraction reference functions."""
    A, B, H, C, G_y, E, D_z = (exact.from_array(M) for M in (
        sys.A, sys.B, sys.H, sys.C, sys.G_y, sys.E, sys.D_z))
    V = reference_vstar_span(A, B, E, D_z)
    S = reference_sstar_span(A, H, C, G_y)
    k = exact.shape(V)[1]
    N = (exact.eye(sys.n + sys.r) if k == 0 else exact.transpose(
        reference_kernel(exact.transpose(exact.vstack(V, exact.zeros(sys.r, k))))))
    Atil, Btil, Ctil = (exact.from_array(M) for M in synthesis._coupling_data(sys))
    return reference_affine_k_family(Atil, Btil, Ctil, exact.lifted_span(S, sys.q), N)


@st.composite
def star_plants(draw):
    """Plants with n = 1-5 and m, q, p, r in 0-2, in either time domain,
    whose blocks are often zero (so that V* < X and S* != 0 both occur) and
    otherwise hold small integers, halved in about one block of three (dyadic
    entries)."""
    n = draw(st.integers(1, 5))
    m, q, p, r = (draw(st.integers(0, 2)) for _ in range(4))

    def block(rows, cols):
        if draw(st.integers(0, 2)) == 0:
            return np.zeros((rows, cols))
        cells = draw(st.lists(st.integers(-2, 2), min_size=rows * cols,
                              max_size=rows * cols))
        scale = draw(st.sampled_from([1.0, 1.0, 0.5]))
        return np.array(cells, dtype=float).reshape(rows, cols) * scale

    return PlantSystem(block(n, n), block(n, m), block(n, q), block(p, n), block(p, m),
                       block(p, q), block(r, n), block(r, m), block(r, q),
                       time_domain=draw(st.sampled_from(["continuous", "discrete"])))


def assert_star_family_is_reference(plant):
    """The integer star family (`exact._star_family`) and its grid witness
    equal the Fraction reference's, entry for entry. Returns the witness."""
    got = exact_star_family(plant)
    want = reference_star_family(plant)
    assert (got is None) == (want is None)
    if got is None:
        return None
    assert (got.K0, got.directions) == want
    assert all(type(x) is Fraction for M in [got.K0, *got.directions]
               for row in M for x in row)
    Dy = exact.from_array(plant.D_y)
    witness = exact.det_grid_scan(got, Dy, plant.m + 1)
    if plant.m * plant.p == 0:
        # I + K D_y = I: the first grid point is a witness
        assert witness == [0] * len(got.directions)
    else:
        assert witness == reference_det_grid_scan(*want, Dy, plant.m + 1)
    return witness


def test_exact_star_family_matches_fraction_reference(singular_family_plant):
    """The integer twin's K0 and directions equal the Fraction twin's, entry
    for entry, on the singular-family plant and on random plants of both
    kinds."""
    plants = [singular_family_plant]
    for seed in range(6):
        plants.append(generate_instance(InstanceSpec(seed=seed, n=4, m=2, q=1, p=2, r=1)))
        plants.append(generate_instance(InstanceSpec(
            seed=seed, n=4, m=1, q=1, p=1, r=1, solvable_by_construction=False)))
    for plant in plants:
        assert_star_family_is_reference(plant)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(star_plants())
def test_star_family_equals_fraction_reference_on_random_plants(plant):
    assert_star_family_is_reference(plant)


@pytest.mark.parametrize("time_domain", ["continuous", "discrete"])
def test_lifted_obstruction_has_no_witness(singular_family_plant, time_domain):
    rng = np.random.default_rng(7)
    for k in (2, 5):
        plant = lifted_obstruction(singular_family_plant, k, time_domain, rng)
        assert exact_star_family(plant) is not None
        assert assert_star_family_is_reference(plant) is None
        assert analyze_p1(plant).condition("iv").note == "confirmed singular on exact grid"


class TestAnalyzeP1:
    def test_no_disturbance_path_solvable_with_zero(self):
        rng = np.random.default_rng(2)
        A = rng.integers(-2, 3, size=(3, 3)).astype(float)
        sys = PlantSystem(A=A, B=rng.integers(-2, 3, size=(3, 2)),
                          H=np.zeros((3, 1)), C=rng.integers(-2, 3, size=(2, 3)),
                          D_y=np.zeros((2, 2)), G_y=np.zeros((2, 1)),
                          E=rng.integers(-2, 3, size=(1, 3)),
                          D_z=np.zeros((1, 2)), G_z=np.zeros((1, 1)))
        rep = analyze_p1(sys)
        assert rep.solvable
        assert np.allclose(rep.K, 0.0)

    def test_scalar_channel_plant_solvable(self, scalar_channel_plant):
        rep = analyze_p1(scalar_channel_plant)
        assert rep.solvable
        assert wellposedness_margin(rep.K, scalar_channel_plant.D_y) >= 1e-8

    def test_singular_family_plant_obstruction(self, singular_family_plant):
        rep = analyze_p1(singular_family_plant)
        for label in ("i", "ii", "iii"):
            assert rep.condition(label).passed
        assert rep.overall == "well_posedness_obstruction"
        assert rep.condition("iv").note == "confirmed singular on exact grid"


def _static_plants(domain: str):
    """Static plants (n = 0) of every shape with m, q, p, r in 0..2, four
    draws each with entries in {-1, 0, 1}: empty sides of every kind,
    the shapes with r = 0 and m >= 1 or q = 0 and p >= 1 among them."""
    rng = np.random.default_rng(3)
    for m, q, p, r in itertools.product(range(3), repeat=4):
        for _ in range(4):
            draw = lambda rows, cols: rng.integers(-1, 2, size=(rows, cols)).astype(float)
            yield PlantSystem(A=np.zeros((0, 0)), B=np.zeros((0, m)), H=np.zeros((0, q)),
                              C=np.zeros((p, 0)), D_y=draw(p, m), G_y=draw(p, q),
                              E=np.zeros((r, 0)), D_z=draw(r, m), G_z=draw(r, q),
                              time_domain=domain)


class TestStaticPlants:
    @pytest.mark.parametrize("domain", [CONTINUOUS, DISCRETE])
    def test_verdicts_agree_with_the_exact_family(self, domain, capfd):
        # exact: the coupling inclusion has no K (infeasible), or its K
        # family keeps I + K D_y singular on the whole grid (obstruction)
        verdicts = set()
        for plant in _static_plants(domain):
            family = exact._star_family(plant.A, plant.B, plant.H, plant.C, plant.G_y,
                                        plant.E, plant.D_z, plant.G_z)
            if family is None:
                want = "infeasible"
            elif exact.det_grid_scan(family, exact.from_array(plant.D_y),
                                     plant.m + 1) is None:
                want = "well_posedness_obstruction"
            else:
                want = "solvable"
            for analyze in (analyze_p1, analyze_p2):
                assert analyze(plant).overall.split("(")[0] == want
            verdicts.add(want)
        assert verdicts == {"infeasible", "well_posedness_obstruction", "solvable"}
        assert capfd.readouterr() == ("", "")


class TestExactTwinOnDemand:
    def test_p1_without_exact_arithmetic(self, monkeypatch, scalar_channel_plant):
        # generated before the patch: the generator itself is exact
        generated = generate_instance(InstanceSpec(seed=0, n=8, m=2, q=1, p=2, r=1))

        def forbidden(*args):
            raise AssertionError("exact rational twin built")

        for name in ("vstar_span", "sstar_span", "affine_k_family", "_star_family"):
            monkeypatch.setattr(exact, name, forbidden)
        for sys in (scalar_channel_plant, generated):
            assert analyze_p1(sys).solvable
            comp, report = solve(sys, "p1")
            assert report.solvable
            assert certify_decoupled(close_loop(sys, comp)).valid

    def test_exact_infeasibility_is_a_numerical_failure(self, monkeypatch,
                                                        singular_family_plant):
        monkeypatch.setattr(exact, "_star_family", lambda *args: None)
        rep = analyze_p1(singular_family_plant)
        assert rep.overall == "numerical_failure"
        assert rep.condition("iv").note == "family construction failed"
        assert rep.family is None

    def test_exact_infeasibility_is_a_numerical_failure_in_p2(self, monkeypatch,
                                                              singular_family_plant):
        # discrete time, so that A-E hold and F is the only failed condition
        monkeypatch.setattr(exact, "_star_family", lambda *args: None)
        rep = analyze_p2(replace(singular_family_plant, time_domain="discrete"))
        assert [c.label for c in rep.conditions if not c.passed] == ["F"]
        assert rep.overall == "numerical_failure"
        assert rep.condition("F").note == "family construction failed"
        assert rep.family is None

    def test_witness_singular_in_floats_is_a_numerical_failure(
            self, float_singular_witness_plant):
        # the exact grid's member is not identically singular, but its float
        # margin is below DELTA_WP, so synthesize would reject it: no
        # analysis calls the plant solvable, and solve builds nothing
        plant = float_singular_witness_plant
        for analyze, label in ((analyze_p1, "iv"), (analyze_p2, "F")):
            rep = analyze(plant)
            assert rep.overall == "numerical_failure" and rep.K is None
            check = rep.condition(label)
            assert not check.passed and 0 < check.residual < DELTA_WP
            assert check.note == ("exact grid member K = [1 1] has a float "
                                  "well-posedness margin below DELTA_WP")
        for problem in ("p1", "p2"):
            with pytest.raises(Infeasible) as err:
                solve(plant, problem)
            assert err.value.report.overall == "numerical_failure"

    def test_twin_grows_its_stars_without_the_literal_intersection(
            self, monkeypatch, singular_family_plant):
        # each star step eliminates [C S_k  D] alone: no (n + m)-row
        # intersection of S_k x U with ker [C D]; three obstructions, the
        # last a static one (n = 0)
        lifted = lifted_obstruction(singular_family_plant, 5, CONTINUOUS,
                                    np.random.default_rng(7))
        static = next(plant for plant in _static_plants(CONTINUOUS)
                      if (plant.m, plant.q, plant.p, plant.r) == (2, 2, 2, 2)
                      and exact_star_family(plant) is not None)

        def forbidden(*args):
            raise AssertionError("literal intersection in the exact twin")

        monkeypatch.setattr(exact, "_intersect", forbidden)
        for plant in (singular_family_plant, lifted, static):
            assert exact_star_family(plant) is not None
            assert assert_star_family_is_reference(plant) is None


class TestSynthesize:
    def test_formula_collapse_with_zero_parameters(self, scalar_channel_plant):
        comp = synthesize(scalar_channel_plant, [[0.0]], np.zeros((1, 2)), np.zeros((2, 1)))
        assert np.allclose(comp.A_c, scalar_channel_plant.A)
        assert not comp.B_c.any() and not comp.C_c.any() and not comp.D_c.any()

    def test_scalar_channel_exact_values(self, scalar_channel_plant):
        comp = synthesize(scalar_channel_plant, [[0.5]], [[1.0, 0.0]], np.zeros((2, 1)))
        assert np.allclose(comp.A_c, [[2 / 3, 0.0], [0.0, 1.0]], atol=1e-12)
        assert np.allclose(comp.B_c, [[-1 / 3], [0.0]], atol=1e-12)
        assert np.allclose(comp.C_c, [[1 / 3, 0.0]], atol=1e-12)
        assert np.allclose(comp.D_c, [[1 / 3]], atol=1e-12)

    def test_singular_k_rejected(self, scalar_channel_plant):
        with pytest.raises(WellPosednessViolated):
            synthesize(scalar_channel_plant, [[-1.0]], [[1.0, 0.0]], np.zeros((2, 1)))

    def test_recovered_parameters(self, scalar_channel_plant):
        given = Compensator([[0, 0], [0, 0]], [[0], [10]], [[0, 3]], [[6]])
        K, F, G = recover_parameters(scalar_channel_plant, given)
        assert K[0, 0] == pytest.approx(-6 / 5, abs=1e-12)
        assert np.allclose(F, [[-6 / 5, -3 / 5]], atol=1e-12)
        assert np.allclose(G, [[6 / 5], [2.0]], atol=1e-12)

    def test_recovery_inverts_each_loop_matrix_once(self, monkeypatch, mismatched_plant):
        # one inverse of I - D_y D_c serves K and G, one of I - D_c D_y serves F
        plant = replace(mismatched_plant, D_y=[[0.5, 0.0], [0.25, -1.0]])
        comp = Compensator(np.eye(3), np.ones((3, 2)), np.ones((2, 3)), [[0.5, 1.0], [0.0, 0.25]])
        inverses = count_calls(monkeypatch, "_inv", synthesis)
        K, F, G = recover_parameters(plant, comp)
        inner = np.eye(2) - plant.D_y @ comp.D_c
        lead = np.eye(2) - comp.D_c @ plant.D_y
        assert [args[0].tobytes() for args in inverses] == [inner.tobytes(), lead.tobytes()]
        assert K.tobytes() == (comp.D_c @ np.linalg.inv(inner)).tobytes()
        assert F.tobytes() == (np.linalg.inv(lead) @ comp.C_c + K @ plant.C).tobytes()
        assert G.tobytes() == ((plant.B @ comp.D_c - comp.B_c) @ np.linalg.inv(inner)).tobytes()

    def test_wellposedness_bridge(self, scalar_channel_plant):
        # D_c = (I + K D_y)^{-1} K keeps I - D_y D_c invertible
        for K in ([[0.5]], [[3.0]], [[-0.75]]):
            comp = synthesize(scalar_channel_plant, K, [[1.0, 0.0]], np.zeros((2, 1)))
            loop = np.eye(1) - scalar_channel_plant.D_y @ comp.D_c
            assert abs(np.linalg.det(loop)) > 1e-8


class TestCloseLoop:
    def test_compensator_matrices_are_read_only_copies(self):
        mats = {"A_c": np.zeros((2, 2)), "B_c": np.array([[0.0], [10.0]]),
                "C_c": np.array([[0.0, 3.0]]), "D_c": np.array([[6.0]])}
        comp = Compensator(**mats)
        for name, M in mats.items():
            held = getattr(comp, name)
            with pytest.raises(ValueError):
                held[0, 0] = np.nan
            # the caller's array stays writable, and writing it leaves the copy
            M[0, 0] = np.nan
            assert not held.flags.writeable and np.isfinite(held).all()

    def test_blocks_equal_the_np_block_assembly(self, scalar_channel_plant, mismatched_plant):
        loops = [(scalar_channel_plant,
                  Compensator([[0, 0], [0, 0]], [[0], [10]], [[0, 3]], [[6]])),
                 (scalar_channel_plant, Compensator([[-1.0]], [[1.0]], [[2.0]], [[0.5]]))]
        for plant in [mismatched_plant] + [
                generate_instance(InstanceSpec(seed=seed, n=n, time_domain=domain))
                for n in (4, 6) for seed in range(2) for domain in (CONTINUOUS, DISCRETE)]:
            plant = replace(plant, D_y=np.full((plant.p, plant.m), 0.25))
            loops.append((plant, solve(plant, "p1")[0]))
        for plant, comp in loops:
            cl = close_loop(plant, comp)
            A, B, H, C, Dy, Gy = plant.A, plant.B, plant.H, plant.C, plant.D_y, plant.G_y
            E, Dz, Gz = plant.E, plant.D_z, plant.G_z
            Ac, Bc, Cc, Dc = comp.A_c, comp.B_c, comp.C_c, comp.D_c
            W = np.linalg.inv(np.eye(plant.p) - Dy @ Dc)
            want = {
                "W": W,
                "A_hat": np.block([
                    [A + B @ Dc @ W @ C, B @ Cc + B @ Dc @ W @ Dy @ Cc],
                    [Bc @ W @ C, Ac + Bc @ W @ Dy @ Cc]]),
                "H_hat": np.vstack([H + B @ Dc @ W @ Gy, Bc @ W @ Gy]),
                "C_hat": np.hstack([E + Dz @ Dc @ W @ C, Dz @ Cc + Dz @ Dc @ W @ Dy @ Cc]),
                "G_hat": Gz + Dz @ Dc @ W @ Gy,
            }
            for name, M in want.items():
                got = getattr(cl, name)
                assert got.shape == M.shape and got.tobytes() == M.tobytes(), name
                assert got.flags.c_contiguous, name

    @pytest.mark.parametrize("name", ["A_c", "B_c", "C_c", "D_c"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_compensator_rejected(self, name, bad):
        # as a plant's matrices are: before close_loop's eigensolver sees it
        mats = {"A_c": np.zeros((2, 2)), "B_c": [[0.0], [10.0]],
                "C_c": [[0.0, 3.0]], "D_c": [[6.0]]}
        mats[name] = np.array(mats[name], dtype=float)
        mats[name][0, 0] = bad
        with pytest.raises(InvalidInput, match=f"^{name} contains non-finite entries$"):
            Compensator(**mats)

    def test_strictly_proper_compensator_collapse(self, scalar_channel_plant):
        comp = Compensator(np.zeros((2, 2)), [[1.0], [0.0]], [[1.0, 1.0]], [[0.0]])
        cl = close_loop(scalar_channel_plant, comp)
        assert np.allclose(cl.W, np.eye(1))
        n = scalar_channel_plant.n
        assert np.allclose(cl.A_hat[:n, n:], scalar_channel_plant.B @ comp.C_c)
        assert np.allclose(cl.A_hat[n:, :n], comp.B_c @ scalar_channel_plant.C)

    def test_loop_inverse_consistency(self, scalar_channel_plant):
        given = Compensator([[0, 0], [0, 0]], [[0], [10]], [[0, 3]], [[6]])
        cl = close_loop(scalar_channel_plant, given)
        gram = cl.W @ (np.eye(scalar_channel_plant.p) - scalar_channel_plant.D_y @ given.D_c)
        assert np.linalg.norm(gram - np.eye(scalar_channel_plant.p)) <= 1e-12

    def test_feedthrough_vanishes_without_dz(self, scalar_channel_plant):
        given = Compensator([[0, 0], [0, 0]], [[0], [10]], [[0, 3]], [[6]])
        cl = close_loop(scalar_channel_plant, given)
        assert not cl.G_hat.any()

    def test_ill_posed_interconnection_rejected(self, scalar_channel_plant):
        comp = Compensator(np.zeros((2, 2)), [[1.0], [0.0]], [[1.0, 0.0]], [[1.0]])
        with pytest.raises(NotWellPosed):
            close_loop(scalar_channel_plant, comp)

    def test_spectrum_separation(self, scalar_channel_plant):
        rep = analyze_p1(scalar_channel_plant)
        qc, qo = scalar_channel_plant.control_quadruple(), scalar_channel_plant.observation_quadruple()
        from geodd.geometry import INPUT_CONTAINING, OUTPUT_NULLING, friend

        F = friend(OUTPUT_NULLING, rep.V, qc).F_or_G
        G = friend(INPUT_CONTAINING, rep.S, qo).F_or_G
        comp = synthesize(scalar_channel_plant, rep.K, F, G)
        cl = close_loop(scalar_channel_plant, comp)
        want = np.concatenate([
            np.linalg.eigvals(scalar_channel_plant.A + scalar_channel_plant.B @ F),
            np.linalg.eigvals(scalar_channel_plant.A + G @ scalar_channel_plant.C),
        ])
        assert match_spectra(np.linalg.eigvals(cl.A_hat), want)


class TestSolve:
    def test_scalar_channel_p1(self, scalar_channel_plant):
        comp, report = solve(scalar_channel_plant, "p1")
        assert report.solvable
        cl = close_loop(scalar_channel_plant, comp)
        assert certify_decoupled(cl).valid

    def test_singular_family_plant_obstruction_raised(self, singular_family_plant):
        with pytest.raises(WellPosednessObstruction) as err:
            solve(singular_family_plant, "p1")
        assert err.value.report.overall == "well_posedness_obstruction"

    def test_generated_p2_instances(self):
        solved = 0
        for seed in range(8):
            sys = generate_instance(InstanceSpec(seed=seed, n=4, m=2, q=1, p=2, r=1))
            rep = analyze_p2(sys)
            if not rep.solvable:
                continue
            comp, _ = solve(sys, "p2")
            cl = close_loop(sys, comp)
            assert certify_decoupled(cl).valid
            eigs = np.linalg.eigvals(cl.A_hat)
            assert max(e.real for e in eigs) <= -1e-8
            solved += 1
        assert solved >= 5

    @pytest.mark.parametrize("domain", ["continuous", "discrete"])
    def test_pair_certificate_rejects_k_off_the_family(self, domain):
        # solve p2 runs no separate check that K satisfies the coupling
        # inclusion on the lattice pair: a K off the family fails the
        # certificate on that pair
        for seed in range(4):
            sys = generate_instance(
                InstanceSpec(seed=seed, n=4, m=2, q=1, p=2, r=1, time_domain=domain))
            comp, report = solve(sys, "p2")
            pair = (report.V, report.S)
            assert certify_decoupled(close_loop(sys, comp), pair=pair).valid
            dirs = np.array([D.flatten() for D in report.family.directions]).T
            step = np.random.default_rng(seed).standard_normal(report.K.size)
            step -= dirs @ (dirs.T @ step)
            K = report.K + 1e-3 * step.reshape(report.K.shape) / np.linalg.norm(step)
            assert coupling_residual(sys, *pair, K) > 1e-6
            perturbed = stabilized_compensator(sys, *pair, K)
            assert not certify_decoupled(close_loop(sys, perturbed), pair=pair).valid

    @pytest.mark.parametrize("domain", ["continuous", "discrete"])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_large_p2_solves_without_warnings(self, domain, seed):
        # the stabilizing gains solve Lyapunov equations, which have no
        # iteration cap to stop at, so these n = 16 solves warn about nothing
        sys = generate_instance(InstanceSpec(seed=seed, n=16, m=3, q=1, p=3, r=1,
                                             time_domain=domain))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            comp, report = solve(sys, "p2")
        cl = close_loop(sys, comp)
        assert certify_decoupled(cl, pair=(report.V, report.S)).valid
        assert stability_check(cl.A_hat, sys.region)[0]

    @pytest.mark.parametrize("problem, domain, n, seed", [
        ("p1", "discrete", 6, 10),
        ("p1", "discrete", 8, 1),
        ("p1", "discrete", 8, 2),
        ("p2", "discrete", 8, 1),
        ("p2", "continuous", 6, 13),
    ])
    def test_plants_the_hull_certificate_rejected(self, problem, domain, n, seed):
        # on these loops the rank decisions of the Krylov hull take in
        # directions outside ker C^, so a hull-certified solve raised a
        # false CertificateFailed on every one of them
        sys = generate_instance(
            InstanceSpec(seed=seed, n=n, m=2, q=1, p=2, r=1, time_domain=domain))
        comp, report = solve(sys, problem)
        cl = close_loop(sys, comp)
        assert certify_decoupled(cl, pair=(report.V, report.S)).valid
        if problem == "p2":
            assert stability_check(cl.A_hat, sys.region)[0]


class TestExplicitP2Ladder:
    """The explicit p2 loop on the ladder of generated plants with m = p = 2
    and q = r = 1, seeds 0-29 at n = 16, 20 and 24, in both domains: every
    plant that `analyze_p2` calls solvable ends in a certified loop, except
    the continuous plants below, whose explicit loops are known to raise
    CertificateFailed (large, non-normal gains). A listed plant that
    certifies passes; an unlisted one that fails is a new failure."""

    KNOWN_FAILURES = {("continuous", 20, 18), ("continuous", 20, 19),
                      ("continuous", 20, 26), ("continuous", 24, 2),
                      ("continuous", 24, 6), ("continuous", 24, 12),
                      ("continuous", 24, 22)}

    @pytest.mark.parametrize("domain", ["continuous", "discrete"])
    @pytest.mark.parametrize("n", [16, 20, 24])
    def test_every_solvable_plant_certifies_but_the_known_failures(self, domain, n):
        failed = []
        for seed in range(30):
            sys = generate_instance(InstanceSpec(seed=seed, n=n, time_domain=domain))
            if not analyze_p2(sys).solvable:
                continue
            try:
                solve(sys, "p2")
            except CertificateFailed:
                if (domain, n, seed) not in self.KNOWN_FAILURES:
                    failed.append(seed)
        assert not failed, f"new {domain} CertificateFailed at n = {n}: seeds {failed}"


class TestScaleInvariance:
    """Scaling the control input u and the regulated output z moves no
    verdict and no p1 solve: every rank decision under the friends and
    conditions (a) and (b) is anchored to the data they scale."""

    @pytest.mark.parametrize("scale", [1e4, 1e6])
    def test_input_and_output_scaling(self, scale):
        for seed in range(30):
            plant = generate_instance(InstanceSpec(seed=seed, n=6))
            # u' = u / scale and z' = scale z, so ||D_z|| grows by scale^2
            scaled = PlantSystem(
                plant.A, plant.B * scale, plant.H, plant.C, plant.D_y * scale,
                plant.G_y, plant.E * scale, plant.D_z * scale**2, plant.G_z * scale,
                time_domain=plant.time_domain)
            for analyze in (analyze_p1, analyze_p2):
                assert analyze(scaled).overall == analyze(plant).overall, (seed, analyze)
            # raises unless the loop is certified
            solve(scaled, "p1")


class TestKSetEquivalence:
    def test_scalar_channel_plant(self, scalar_channel_plant):
        ok, residuals = k_set_equivalence(scalar_channel_plant)
        assert ok, residuals

    def test_trivially_decoupled_plant(self):
        rng = np.random.default_rng(4)
        A = rng.integers(-2, 3, size=(3, 3)).astype(float)
        sys = PlantSystem(A=A, B=rng.integers(-2, 3, size=(3, 2)),
                          H=np.zeros((3, 1)), C=rng.integers(-2, 3, size=(2, 3)),
                          D_y=np.zeros((2, 2)), G_y=np.zeros((2, 1)),
                          E=rng.integers(-2, 3, size=(1, 3)),
                          D_z=np.zeros((1, 2)), G_z=np.zeros((1, 1)))
        fam1 = k_affine_family(sys, sstar(sys.observation_quadruple()),
                               vstar(sys.control_quadruple()))
        v_m, s_M = vm_sM(sys)
        fam2 = k_affine_family(sys, s_M, combine("sum", v_m, s_M))
        assert fam1.n_directions == fam2.n_directions == sys.m * sys.p
        ok, _ = k_set_equivalence(sys)
        assert ok

    def test_generated_instances(self):
        checked = 0
        for seed in range(10):
            sys = generate_instance(InstanceSpec(seed=seed, n=4, m=2, q=1, p=2, r=1))
            if not analyze_p1(sys).solvable:
                continue
            ok, residuals = k_set_equivalence(sys)
            assert ok, (seed, residuals)
            checked += 1
        assert checked >= 8


class TestAnalyzeP2:
    def test_stable_trivially_decoupled_plant(self):
        sys = PlantSystem(A=-np.eye(2), B=[[1.0], [0.0]], H=np.zeros((2, 1)),
                          C=[[1.0, 0.0]], D_y=np.zeros((1, 1)), G_y=np.zeros((1, 1)),
                          E=[[0.0, 1.0]], D_z=np.zeros((1, 1)), G_z=np.zeros((1, 1)))
        rep = analyze_p2(sys)
        assert rep.solvable
        assert rep.extras == {}  # the route lives in the lattice audit
        assert lattice_report(sys).route_stabilizability["verdict"] == rep.solvable

    def test_unstable_fixed_pole_blocks_stability(self):
        # the disturbance must pass through the subspace carrying the
        # invariant zero at +1, so decoupling without stability works but
        # the self-bounded candidate is not internally stabilizable
        sys = PlantSystem(A=[[0.0, 1.0], [0.0, 0.0]], B=[[0.0], [1.0]],
                          H=[[1.0], [1.0]], C=np.eye(2), D_y=np.zeros((2, 1)),
                          G_y=np.zeros((2, 1)), E=[[1.0, -1.0]],
                          D_z=np.zeros((1, 1)), G_z=np.zeros((1, 1)))
        assert analyze_p1(sys).solvable
        rep2 = analyze_p2(sys)
        assert rep2.overall == "infeasible(D)"
        assert not rep2.condition("D").passed
        assert lattice_report(sys).route_stabilizability["verdict"] == rep2.solvable

    def test_fixed_spectrum_note_is_sorted_and_basis_free(self):
        # B = 0 leaves the whole spectrum of A fixed on V_m + S_M = X; an
        # orthogonally similar copy must print the same note
        A = np.diag([-1.0, -2.0, -3.0])
        sys = PlantSystem(A=A, B=np.zeros((3, 1)), H=np.ones((3, 1)),
                          C=[[1.0, 1.0, 0.0]], D_y=np.zeros((1, 1)),
                          G_y=np.zeros((1, 1)), E=np.zeros((1, 3)),
                          D_z=np.zeros((1, 1)), G_z=np.zeros((1, 1)))
        Q, _ = np.linalg.qr(np.random.default_rng(1).standard_normal((3, 3)))
        similar = PlantSystem(A=Q.T @ A @ Q, B=Q.T @ sys.B, H=Q.T @ sys.H,
                              C=sys.C @ Q, D_y=sys.D_y, G_y=sys.G_y, E=sys.E @ Q,
                              D_z=sys.D_z, G_z=sys.G_z)
        for plant in (sys, similar):
            rep = analyze_p2(plant)
            assert rep.solvable
            assert rep.condition("D").note == "fixed spectrum [-3.0, -2.0, -1.0]"

    def test_fixed_spectrum_note_is_real_when_imaginary_parts_round_to_zero(
            self, monkeypatch):
        # eigvals returns the spectrum of the defective block
        # [[-0.5, 1], [-1e-18, -0.5]] as -0.5 +- 1e-9j; rounded to 6 decimals
        # it is real, and must print as real numbers, as in any other basis
        cluster = (-0.5 + 1e-9j, -0.5 - 1e-9j)
        spectra = {OUTPUT_NULLING: cluster + (0.0,),
                   INPUT_CONTAINING: cluster + (-0.25 + 0.5j, -0.25 - 0.5j)}
        monkeypatch.setattr(synthesis, "_p2_side", lambda sys, kind, tol:
                            SimpleNamespace(fixed=spectra[kind]))
        sys = PlantSystem(A=-np.eye(3), B=np.zeros((3, 1)), H=np.ones((3, 1)),
                          C=[[1.0, 1.0, 0.0]], D_y=np.zeros((1, 1)),
                          G_y=np.zeros((1, 1)), E=np.zeros((1, 3)),
                          D_z=np.zeros((1, 1)), G_z=np.zeros((1, 1)))
        rep = analyze_p2(sys)
        assert rep.condition("D").note == "fixed spectrum [-0.5, -0.5, 0.0]"
        assert rep.condition("E").note == (
            "fixed spectrum [(-0.5+0j), (-0.5+0j), (-0.25-0.5j), (-0.25+0.5j)]")

    def test_error_inside_the_split_is_not_a_failed_condition(self, monkeypatch):
        # Conditions D/E fail on a geodd or LAPACK error from their split;
        # any other exception is a bug and leaves analyze_p2 as it is.
        plant = generate_instance(InstanceSpec(seed=2, n=4))

        def broken(*args):
            raise TypeError("broken split")

        monkeypatch.setattr(geometry, "_controllable_split", broken)
        with pytest.raises(TypeError, match="broken split"):
            analyze_p2(plant)

    def test_error_inside_the_route_split_is_not_an_unevaluated_route(self, monkeypatch):
        # The stabilizability route reports a geodd or LAPACK error from its
        # split as an unevaluated route; any other exception is a bug and
        # leaves lattice_report as it is.
        plant = generate_instance(InstanceSpec(seed=7, n=4, m=2, q=1, p=2, r=1))
        assert lattice_report(plant).route_stabilizability["verdict"] is not None

        def broken(*args):
            raise TypeError("broken split")

        monkeypatch.setattr(geometry, "_twin_split", broken)
        with pytest.raises(TypeError, match="broken split"):
            lattice_report(replace(plant))

    def test_route_agreement_on_generated_instances(self):
        # both solvability routes must agree instance by instance
        agree = total = 0
        seed = 0
        while total < 100:
            sys = generate_instance(InstanceSpec(seed=seed, n=4, m=2, q=1, p=2, r=1))
            seed += 1
            route = lattice_report(sys).route_stabilizability
            if route["verdict"] is None:
                continue
            total += 1
            agree += route["verdict"] == analyze_p2(sys).solvable
        assert agree == total == 100

    # the fixture's plant is immutable, so sharing it between examples is sound
    @settings(max_examples=12, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.integers(0, 2**32 - 1), st.integers(1, 5))
    def test_route_decides_discrete_lifted_obstructions(self, singular_family_plant,
                                                        seed, k):
        # an invariant zero of these plants lies on the unit circle; the route
        # counts it as outside, as every fixed spectrum of analyze_p2 does, so
        # it is evaluated, agrees with analyze_p2, and fails on (iv) alone
        plant = lifted_obstruction(singular_family_plant, k, "discrete",
                                   np.random.default_rng(seed))
        route = lattice_report(plant).route_stabilizability
        assert route["verdict"] == analyze_p2(plant).solvable
        assert route["conditions"] == {"i": True, "ii": True, "iii": True, "iv": False}


@st.composite
def plant_specs(draw):
    return InstanceSpec(
        seed=draw(st.integers(0, 10**6)), n=draw(st.integers(2, 6)),
        m=draw(st.integers(1, 2)), q=1, p=draw(st.integers(1, 2)), r=1,
        time_domain=draw(st.sampled_from(["continuous", "discrete"])),
        solvable_by_construction=draw(st.booleans()))


class TestPlantMemo:
    """Analyses of one plant share its star pair, coupling conditions,
    well-posedness result and p2 precondition."""

    def test_exact_twin_built_once_for_both_analyses(self, monkeypatch,
                                                     singular_family_plant):
        plant = replace(singular_family_plant, time_domain="discrete")
        calls = count_calls(monkeypatch, "_star_family", exact)
        reports = [analyze_p1(plant), analyze_p2(plant)]
        assert [r.overall for r in reports] == ["well_posedness_obstruction"] * 2
        assert reports[1].condition("F").note == "confirmed singular on exact grid"
        assert len(calls) == 1
        analyze_p1(replace(plant))
        assert len(calls) == 2

    def test_tolerance_keys_the_wellposed_entry(self, monkeypatch):
        plant = generate_instance(InstanceSpec(seed=2, n=4))
        calls = count_calls(monkeypatch, "select_wellposed", synthesis)
        counts = []
        tight = ToleranceProfile(residual=1e-9)
        for run in (lambda: analyze_p1(plant), lambda: analyze_p2(plant),
                    lambda: solve(plant, "p2"), lambda: analyze_p1(plant, tight),
                    lambda: analyze_p2(plant, tight),
                    lambda: analyze_p1(replace(plant))):
            calls.clear()
            run()
            counts.append(len(calls))
        assert counts == [1, 0, 0, 1, 0, 1]
        wellposed = synthesis._evaluate_wellposedness.__wrapped__
        assert {key for key in plant._memo if key[0] is wellposed} == {
            (wellposed, DEFAULT_TOL), (wellposed, tight)}

    def test_route_checks_coupling_on_its_own_pair(self, monkeypatch):
        plant = generate_instance(InstanceSpec(seed=0, n=4, m=1, q=1, p=1, r=1))
        Vst, Sst = analysis_pair(plant, "p1")
        VstG = vstar_g(plant.control_quadruple(), plant.region)
        SstG = sstar_g(plant.observation_quadruple(), plant.region)
        # the two pairs differ, so reading the star pair's entry would show
        assert not equal(Vst, VstG) and not equal(Sst, SstG)
        analyze_p1(plant)
        analyze_p2(plant)
        calls = count_calls(monkeypatch, "coupling_conditions", audit)
        route = lattice_report(plant).route_stabilizability
        assert route["verdict"] is not None
        on_g = [(V, S) for _, V, S, _ in calls if equal(V, VstG) and equal(S, SstG)]
        assert len(on_g) == 1

    def test_records_compare_and_hash_by_identity(self):
        # records that hold arrays or subspaces compare and hash by identity,
        # as a Quadruple and a Subspace do: no == asks an array for its truth
        plant = generate_instance(InstanceSpec(seed=2, n=4))
        comp, report, cl, cert = solve_certified(plant, "p2")
        side = synthesis._p2_side(plant, OUTPUT_NULLING, DEFAULT_TOL)
        fr = friend(OUTPUT_NULLING, analyze_p1(plant).V, plant.control_quadruple())
        for record in (plant, comp, report, report.family, cl, cert, side, fr,
                       lattice_report(plant)):
            twin = copy.copy(record)
            assert record == record and record != twin
            assert len({record, twin}) == 2
        assert plant != replace(plant)
        assert {plant, comp} == {comp, plant}

    def test_plant_matrices_are_read_only_copies(self, scalar_channel_plant):
        A = np.eye(2)
        plant = replace(scalar_channel_plant, A=A)
        with pytest.raises(ValueError):
            plant.A[0, 0] = 2.0
        A[0, 0] = 2.0
        assert plant.A[0, 0] == 1.0
        # this plant's selected K is not the particular solution K0
        report = analyze_p1(generate_instance(InstanceSpec(seed=34, n=4)))
        assert not np.shares_memory(report.K, report.family.K0)
        for K in (report.K, report.family.K0):
            with pytest.raises(ValueError):
                K[0, 0] = 0.0

    def test_shared_family_and_selected_k_are_read_only(self):
        # the p1 and p2 reports of one plant share one family and one K, so a
        # write into any of their arrays through one report would change the
        # other's
        plant = generate_instance(InstanceSpec(seed=0, n=4))
        p1, p2 = analyze_p1(plant), analyze_p2(plant)
        assert p1.family is p2.family and p1.K is p2.K
        assert p1.family.n_directions
        for M in (p1.K, p1.family.K0, *p1.family.directions):
            with pytest.raises(ValueError):
                M[0, 0] = 0.0

    def test_memoized_names_take_their_calls_and_keep_one_value(self):
        plant = generate_instance(InstanceSpec(seed=0, n=4))
        tight = ToleranceProfile(residual=1e-9)
        S = analysis_pair(plant, "p1")[1]
        assert complement(S) is complement(S, DEFAULT_TOL) is complement(S, tol=DEFAULT_TOL)
        assert complement(S, tol=tight) is complement(S, tight) is not complement(S)
        assert extended_quadruples(sys=plant) is extended_quadruples(plant)
        q = plant.control_quadruple()
        assert q is plant.control_quadruple() and q.dual() is q.dual()
        assert plant.observation_quadruple() is plant.observation_quadruple()
        family = analyze_p1(plant).family
        assert family._span is family._span
        cl = solve_certified(plant, "p1")[2]
        assert cl.spectrum is cl.spectrum

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(plant_specs(), st.sampled_from([("p1", "p2"), ("p2", "p1")]))
    def test_warm_plant_reports_equal_fresh_ones(self, spec, order):
        try:
            plant = generate_instance(spec)
        except GenerationFailed:
            assume(False)
        analyses = {"p1": analyze_p1, "p2": analyze_p2}
        warm = [analyses[name](plant).to_dict() for name in order]
        fresh = [analyses[name](replace(plant)).to_dict() for name in order]
        assert warm == fresh


def _same_bits(a, b) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestWorkPerSolve:
    """One p2 solve builds each side's split, nulling system and star-step
    norm once: conditions D/E and the stabilizing friends read the same split
    of each side from the plant's memo."""

    @pytest.mark.parametrize("domain", ["continuous", "discrete"])
    def test_p2_solve_reuses_splits_and_friends(self, monkeypatch, domain):
        plant = generate_instance(InstanceSpec(seed=2, n=4, time_domain=domain))
        sides = count_calls(monkeypatch, "_twin_split", geometry, synthesis)
        splits = count_calls(monkeypatch, "_controllable_split", geometry, synthesis)
        systems = count_calls(monkeypatch, "_nulling_system", geometry, lattice)
        # the staircase of each split, and of any hull (verify's certificate)
        staircases = count_calls(monkeypatch, "_staircase", geometry, subspaces)
        solve(plant, "p2")
        # sides: V_m + S_M and the twin of S_M, one split each; nulling
        # systems: coupling conditions (a) and (b) on the star pair, each on
        # its one disturbance column, then the friend of each side's twin,
        # on its stacked map [A; C] V
        assert [args[0] for args in sides] == [OUTPUT_NULLING, INPUT_CONTAINING]
        assert [args[2].shape[1] for args in systems] == [1, 1, 4, 4]
        # splits: the precondition's (A, B) and (A^T, C^T), and the internal
        # split of each side; both twins are the whole state space on this
        # plant, so the stabilizing friends split no quotient
        assert [args[0].shape for args in splits] == [(4, 4)] * 4
        # staircases: one per split, started from the split's SVD of B, and
        # no hull; conditions D/E take none of their own
        assert [args[0].shape for args in staircases] == [(4, 4)] * 4

    def test_p2_solve_svd_count(self, monkeypatch):
        # every SVD and norm of the package ends in _gesdd; the complements
        # of full subspaces take none, a split's staircase takes no
        # complement, a star recursion that reaches 0 takes no step after
        # it, a combine with a full or trivial operand takes none, a friend
        # on the whole state space splits no quotient, and the stabilizing
        # gains take none; a nulling system of a subspace over a plant's
        # quadruple shares that subspace's one factorization, and a star
        # recursion that stops at its first step takes no norm of [A; C]
        plant = generate_instance(InstanceSpec(seed=0, n=6))
        calls = count_calls(monkeypatch, "_gesdd", subspaces)
        solve(plant, "p2")
        assert len(calls) == 70

    def test_p1_solve_shares_each_nulling_factorization(self, monkeypatch):
        # V* = X and S* = 0 on this plant. Coupling condition (a) and the
        # friend of V* are nulling systems of V* over the control quadruple,
        # (b) and the injection of S* nulling systems of the one S*^perp
        # over the dual observation quadruple: one SVD of each M =
        # [(I - P_V) B; D] serves both
        plant = generate_instance(InstanceSpec(seed=2, n=4))
        fresh = replace(plant)
        Vst, Sst = analysis_pair(plant, "p1")
        ctrl, dual = plant.control_quadruple(), plant.observation_quadruple().dual()
        Sperp = complement(Sst)
        M = [np.concatenate(((np.eye(q.n) - V.projector()) @ q.B, q.D))
             for V, q in ((Vst, ctrl), (Sperp, dual))]
        systems = count_calls(monkeypatch, "_nulling_system", geometry, lattice)
        calls = count_calls(monkeypatch, "_gesdd", subspaces)
        solve(plant, "p1")
        assert [(V is Vst, V is Sperp, q is ctrl, q is dual) for V, q, *_ in systems] == [
            (True, False, True, False), (False, True, False, True)] * 2
        assert [sum(x.shape == Mk.shape and np.array_equal(x, Mk) for x, *_ in calls)
                for Mk in M] == [1, 1]
        # the whole solve, star pair included: 32 before the factorizations
        # were shared and the star recursions, which stop at their first
        # step here, took ||[A; C]|| up front
        calls.clear()
        solve(fresh, "p1")
        assert len(calls) == 26

    def test_star_recursions_take_one_norm_per_call(self, monkeypatch):
        plant = generate_instance(InstanceSpec(seed=2, n=4))
        # quadruples on which each recursion takes several steps
        qv, qs = plant.observation_quadruple(), plant.control_quadruple()
        # sstar runs vstar on the dual, whose stacked map is [A^T; B^T]
        stacked = {"vstar": np.vstack([qv.A, qv.C]), "sstar": np.vstack([qs.A.T, qs.B.T])}
        # every SVD and norm of the package, from any module, ends in _gesdd
        calls = count_calls(monkeypatch, "_gesdd", subspaces)
        steps = [len(fn(q, return_sequence=True)[1]) - 1
                 for fn, q in ((vstar, qv), (sstar, qs))]
        norms = {name: sum(x.shape == M.shape and np.array_equal(x, M) for (x, *_) in calls)
                 for name, M in stacked.items()}
        assert steps == [5, 5]
        assert norms == {"vstar": 1, "sstar": 1}

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(plant_specs())
    def test_reused_friends_are_the_ones_built_fresh(self, spec):
        try:
            plant = generate_instance(spec)
        except GenerationFailed:
            assume(False)
        quad_b, quad_c = extended_quadruples(plant)
        v_m, s_M = vm_sM(plant)
        assert equal(v_m, rstar_qstar(quad_b)[0]) and equal(s_M, rstar_qstar(quad_c)[1])
        # vm_sM is the reduced construction on the memoized star pair: V*
        # stands in for the input-extended V* under (a), and S* for the
        # output-extended S* under (b)
        Vst, Sst = analysis_pair(plant, "p1")
        conds = lattice._star_coupling(plant, DEFAULT_TOL)
        reduced = (
            combine("intersect", Vst if conds["a"][0] else vstar(quad_b), sstar(quad_b)),
            combine("sum", vstar(quad_c), Sst if conds["b"][0] else sstar(quad_c)))
        assert all(_same_bits(got.basis, want.basis)
                   for got, want in zip((v_m, s_M), reduced))

        fresh = replace(plant)
        try:
            comp, report = solve(plant, "p2")
        except (Infeasible, WellPosednessObstruction, CertificateFailed):
            return
        except GeoddError as err:
            # raised while building the stabilizing friends
            report = analyze_p2(plant)
            with pytest.raises(type(err)) as fresh_err:
                stabilized_compensator(fresh, report.V, report.S, report.K)
            assert str(fresh_err.value) == str(err)
            return
        built = stabilized_compensator(fresh, report.V, report.S, report.K)
        assert all(_same_bits(getattr(comp, name), getattr(built, name))
                   for name in ("A_c", "B_c", "C_c", "D_c"))

    @pytest.mark.parametrize("domain", [CONTINUOUS, DISCRETE])
    @settings(max_examples=30, derandomize=True, deadline=None)
    @given(plant_specs())
    def test_memoized_reach_gives_the_fresh_spectral_report(self, domain, spec):
        # Conditions D/E read the fixed spectrum of each memoized side. It,
        # the assignable dimension and the verdict must be those of the
        # full-space hull route on a fresh copy of the plant.
        try:
            plant = generate_instance(replace(spec, time_domain=domain))
        except GenerationFailed:
            assume(False)
        report = analyze_p2(plant)
        fresh = replace(plant)
        vm_sum, s_M = analysis_pair(fresh, "p2")
        sides = ((OUTPUT_NULLING, "D", vm_sum, fresh.control_quadruple()),
                 (INPUT_CONTAINING, "E", s_M, fresh.observation_quadruple()))
        for kind, label, sub, quad in sides:
            try:
                side = synthesis._p2_side(plant, kind, DEFAULT_TOL)
            except GeoddError as err:
                with pytest.raises(type(err)):
                    spectral_report(sub, kind, quad)
                continue
            cert = friend(kind, sub, quad)
            internal, external, dims = reference_spectral_report(sub, kind, quad,
                                                                 cert.F_or_G)
            fixed, dim = ((internal, dims[0]) if kind == OUTPUT_NULLING
                          else (external, dims[1]))
            assert side.T1.shape[1] == dim
            assert match_spectra(side.fixed, fixed, 1e-8)
            if report.overall != "infeasible(precondition)":
                assert report.condition(label).passed == (not plant.region.outside(fixed))


# numpy's own routines, which the SVD kernel of `geodd.subspaces` replaces
_NUMPY_KERNEL = {
    "_svd": lambda M, full_matrices: np.linalg.svd(M, full_matrices=full_matrices),
    "_norm2": lambda M: float(np.linalg.norm(M, 2)),
}


def _pipeline_outputs(plant):
    """Every report and compensator the pipeline makes for a fresh copy of
    `plant`, as text that differs whenever a bit does."""
    plant = replace(plant)
    out = [repr(analyze_p1(plant).to_dict()), repr(analyze_p2(plant).to_dict())]
    for problem in ("p1", "p2"):
        try:
            comp, report = solve(plant, problem)
        except GeoddError as err:
            out.append(f"{type(err).__name__}: {err}")
            continue
        out.append(repr(report.to_dict()))
        out += [getattr(comp, name).tobytes() for name in ("A_c", "B_c", "C_c", "D_c")]
    return out


def _parity_plants(mismatched_plant, singular_family_plant, scalar_channel_plant):
    for plant in (mismatched_plant, singular_family_plant, scalar_channel_plant):
        yield plant
        yield replace(plant, time_domain=DISCRETE)
    for n, seeds in ((4, range(4)), (6, range(2))):
        for seed in seeds:
            for domain in (CONTINUOUS, DISCRETE):
                yield generate_instance(InstanceSpec(seed=seed, n=n, time_domain=domain))


# numpy's wrappers in place of the inverse, determinant and QR kernels
_NUMPY_LOOP_KERNEL = {
    "_inv": np.linalg.inv,
    "_det": lambda M: float(np.linalg.det(M)),
    "_qr_basis": lambda M: np.linalg.qr(M)[0],
}


def _loop_outputs(plant):
    """Every compensator, closed loop, certificate and recovered parameter
    triple that `solve_certified` makes for a fresh copy of `plant`, as
    bytes, or the error raised."""
    plant = replace(plant)
    out = []
    for problem in ("p1", "p2"):
        try:
            comp, report, cl, cert = solve_certified(plant, problem)
        except GeoddError as err:
            out.append(f"{type(err).__name__}: {err}")
            continue
        out.append(repr((report.to_dict(), cert.residual_invariance,
                         cert.residual_kernel, cert.feedthrough_norm)))
        mats = [getattr(comp, name) for name in ("A_c", "B_c", "C_c", "D_c")]
        mats += [cl.A_hat, cl.H_hat, cl.C_hat, cl.G_hat, cl.W, cert.invariant_subspace.basis]
        out += [(M.shape, M.tobytes()) for M in mats + list(recover_parameters(plant, comp))]
    return out


def test_inverse_determinant_and_qr_kernels_give_numpy_outputs_byte_for_byte(
        monkeypatch, mismatched_plant, singular_family_plant, scalar_channel_plant):
    plants = [replace(plant, D_y=np.full((plant.p, plant.m), 0.25)) for plant in
              _parity_plants(mismatched_plant, singular_family_plant, scalar_channel_plant)]
    with_kernel = [_loop_outputs(plant) for plant in plants]
    for module in [m for name, m in sys.modules.items() if name.startswith("geodd.")]:
        for name, reference in _NUMPY_LOOP_KERNEL.items():
            if name in vars(module):
                monkeypatch.setattr(module, name, reference)
    assert synthesis._det is _NUMPY_LOOP_KERNEL["_det"]
    assert verify._qr_basis is _NUMPY_LOOP_KERNEL["_qr_basis"]
    with_numpy = [_loop_outputs(plant) for plant in plants]
    assert with_kernel == with_numpy, lapack_builds()


def test_svd_kernel_gives_numpy_outputs_byte_for_byte(
        monkeypatch, mismatched_plant, singular_family_plant, scalar_channel_plant):
    plants = list(_parity_plants(mismatched_plant, singular_family_plant,
                                 scalar_channel_plant))
    with_kernel = [_pipeline_outputs(plant) for plant in plants]
    for module in [m for name, m in sys.modules.items() if name.startswith("geodd.")]:
        for name, reference in _NUMPY_KERNEL.items():
            if name in vars(module):
                monkeypatch.setattr(module, name, reference)
    assert subspaces._norm2 is _NUMPY_KERNEL["_norm2"]
    assert geometry._norm2 is _NUMPY_KERNEL["_norm2"]
    with_numpy = [_pipeline_outputs(plant) for plant in plants]
    assert with_kernel == with_numpy, lapack_builds()
