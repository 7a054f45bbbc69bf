import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from geodd import GenerationFailed, exact, geometry, subspaces, synthesis
from geodd.errors import (
    AllSingular,
    CertificateFailed,
    GeoddError,
    Infeasible,
    NotWellPosed,
    WellPosednessObstruction,
    WellPosednessViolated,
)
from geodd.geometry import (
    OUTPUT_NULLING,
    SpectralReport,
    match_spectra,
    rstar_qstar,
    sstar,
    sstar_g,
    stabilizing_friend,
    vstar,
    vstar_g,
)
from geodd.lattice import PlantSystem, extended_quadruples, lattice_report, vm_sM
from geodd.subspaces import (
    CONTINUOUS,
    DEFAULT_TOL,
    DISCRETE,
    Subspace,
    ToleranceProfile,
    combine,
    equal,
    relate,
    span_of,
)
from geodd.synthesis import (
    Compensator,
    analysis_pair,
    analyze_p1,
    analyze_p2,
    coupling_residual,
    close_loop,
    k_affine_family,
    k_set_equivalence,
    recover_parameters,
    select_wellposed,
    solve,
    synthesize,
    wellposedness_margin,
)
from geodd.verify import (
    InstanceSpec,
    certify_decoupled,
    generate_instance,
    stability_check,
)
from helpers import count_calls, lapack_builds, scipy_state_feedback


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


class TestSelectWellposed:
    def test_zero_feedthrough_returns_particular(self, mismatched_plant, mismatched_plant_pair):
        V, S = mismatched_plant_pair
        fam = k_affine_family(mismatched_plant, S, V)
        K = select_wellposed(fam, mismatched_plant.D_y)
        assert np.allclose(K, fam.K0)

    def test_singular_family_plant_all_singular_confirmed(self, singular_family_plant,
                                                          monkeypatch):
        rep = analyze_p1(singular_family_plant)
        grids = []
        scan = exact.det_grid_scan

        def recording_scan(family, Dy, points_per_var):
            grids.append(points_per_var)
            return scan(family, Dy, points_per_var)

        monkeypatch.setattr(exact, "det_grid_scan", recording_scan)
        with pytest.raises(AllSingular) as err:
            select_wellposed(rep.family, singular_family_plant.D_y)
        assert err.value.confirmed
        # det(I + K D_y) has degree at most m in each theta_i, so an m + 1
        # point grid per variable is the proof, whatever the family's size
        assert grids == [rep.family.shape[0] + 1]

    def test_scalar_channel_plant_half_is_well_posed(self, scalar_channel_plant):
        rep = analyze_p1(scalar_channel_plant)
        assert rep.family.distance([[0.5]]) <= 1e-10
        assert wellposedness_margin([[0.5]], scalar_channel_plant.D_y) >= 1e-8


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


class TestExactTwinOnDemand:
    def test_p1_without_exact_arithmetic(self, monkeypatch, scalar_channel_plant):
        # generated before the patch: the generator itself is exact
        generated = generate_instance(InstanceSpec(seed=0, n=8, m=2, q=1, p=2, r=1))

        def forbidden(*args):
            raise AssertionError("exact rational twin built")

        for name in ("vstar_span", "sstar_span", "affine_k_family"):
            monkeypatch.setattr(exact, name, forbidden)
        for sys in (scalar_channel_plant, generated):
            assert analyze_p1(sys).solvable
            comp, report = solve(sys, "p1")
            assert report.solvable
            assert certify_decoupled(close_loop(sys, comp)).valid

    def test_exact_infeasibility_is_a_numerical_failure(self, monkeypatch,
                                                        singular_family_plant):
        monkeypatch.setattr(exact, "affine_k_family", lambda *args: None)
        rep = analyze_p1(singular_family_plant)
        assert rep.overall == "numerical_failure"
        assert rep.condition("iv").note == "family construction failed"
        assert rep.family is None


class TestSynthesize:
    def test_formula_collapse_with_zero_parameters(self, scalar_channel_plant):
        comp = synthesize(scalar_channel_plant, None, None, [[0.0]],
                          F=np.zeros((1, 2)), G=np.zeros((2, 1)))
        assert np.allclose(comp.A_c, scalar_channel_plant.A)
        assert not comp.B_c.any() and not comp.C_c.any() and not comp.D_c.any()

    def test_scalar_channel_exact_values(self, scalar_channel_plant):
        comp = synthesize(scalar_channel_plant, None, None, [[0.5]], F=[[1.0, 0.0]],
                          G=np.zeros((2, 1)))
        assert np.allclose(comp.A_c, [[2 / 3, 0.0], [0.0, 1.0]], atol=1e-12)
        assert np.allclose(comp.B_c, [[-1 / 3], [0.0]], atol=1e-12)
        assert np.allclose(comp.C_c, [[1 / 3, 0.0]], atol=1e-12)
        assert np.allclose(comp.D_c, [[1 / 3]], atol=1e-12)

    def test_singular_k_rejected(self, scalar_channel_plant):
        with pytest.raises(WellPosednessViolated):
            synthesize(scalar_channel_plant, None, None, [[-1.0]], F=[[1.0, 0.0]],
                       G=np.zeros((2, 1)))

    def test_recovered_parameters(self, scalar_channel_plant):
        given = Compensator([[0, 0], [0, 0]], [[0], [10]], [[0, 3]], [[6]])
        K, F, G = recover_parameters(scalar_channel_plant, given)
        assert K[0, 0] == pytest.approx(-6 / 5, abs=1e-12)
        assert np.allclose(F, [[-6 / 5, -3 / 5]], atol=1e-12)
        assert np.allclose(G, [[6 / 5], [2.0]], atol=1e-12)

    def test_wellposedness_bridge(self, scalar_channel_plant):
        # D_c = (I + K D_y)^{-1} K keeps I - D_y D_c invertible
        for K in ([[0.5]], [[3.0]], [[-0.75]]):
            comp = synthesize(scalar_channel_plant, None, None, K, F=[[1.0, 0.0]],
                              G=np.zeros((2, 1)))
            loop = np.eye(1) - scalar_channel_plant.D_y @ comp.D_c
            assert abs(np.linalg.det(loop)) > 1e-8


class TestCloseLoop:
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
        comp = synthesize(scalar_channel_plant, rep.V, rep.S, rep.K, F=F, G=G)
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
            perturbed = synthesize(sys, *pair, K, stabilize=True)
            assert not certify_decoupled(close_loop(sys, perturbed), pair=pair).valid

    @pytest.mark.parametrize("domain", ["continuous", "discrete"])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_large_p2_solves_without_warnings(self, domain, seed):
        # the stabilizing gains solve Riccati equations, which have no
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
        spectra = {"D": cluster + (0.0,), "E": cluster + (-0.25 + 0.5j, -0.25 - 0.5j)}
        monkeypatch.setattr(synthesis, "spectral_report", lambda *args, **kwargs:
                            SpectralReport(spectra["D"], spectra["E"], (0, 0)))
        sys = PlantSystem(A=-np.eye(3), B=np.zeros((3, 1)), H=np.ones((3, 1)),
                          C=[[1.0, 1.0, 0.0]], D_y=np.zeros((1, 1)),
                          G_y=np.zeros((1, 1)), E=np.zeros((1, 3)),
                          D_z=np.zeros((1, 1)), G_z=np.zeros((1, 1)))
        rep = analyze_p2(sys)
        assert rep.condition("D").note == "fixed spectrum [-0.5, -0.5, 0.0]"
        assert rep.condition("E").note == (
            "fixed spectrum [(-0.5+0j), (-0.5+0j), (-0.25-0.5j), (-0.25+0.5j)]")

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
        calls = count_calls(monkeypatch, "_exact_star_family", synthesis)
        reports = [analyze_p1(plant), analyze_p2(plant)]
        assert [r.overall for r in reports] == ["well_posedness_obstruction"] * 2
        assert reports[1].condition("F").note == "confirmed singular on exact grid"
        assert len(calls) == 1
        analyze_p1(replace(plant))
        assert len(calls) == 2

    def test_seed_and_tolerance_key_the_wellposed_entry(self, monkeypatch):
        plant = generate_instance(InstanceSpec(seed=2, n=4))
        calls = count_calls(monkeypatch, "select_wellposed", synthesis)
        counts = []
        for run in (lambda: analyze_p1(plant), lambda: analyze_p2(plant),
                    lambda: solve(plant, "p2"), lambda: analyze_p2(plant, seed=1),
                    lambda: analyze_p1(plant, ToleranceProfile(residual=1e-9)),
                    lambda: analyze_p1(replace(plant))):
            calls.clear()
            run()
            counts.append(len(calls))
        assert counts == [1, 0, 0, 1, 1, 1]

    def test_route_checks_coupling_on_its_own_pair(self, monkeypatch):
        plant = generate_instance(InstanceSpec(seed=0, n=4, m=1, q=1, p=1, r=1))
        Vst, Sst = analysis_pair(plant, "p1")
        VstG = vstar_g(plant.control_quadruple(), plant.region)
        SstG = sstar_g(plant.observation_quadruple(), plant.region)
        # the two pairs differ, so reading the star pair's entry would show
        assert not equal(Vst, VstG) and not equal(Sst, SstG)
        analyze_p1(plant)
        analyze_p2(plant)
        calls = count_calls(monkeypatch, "coupling_conditions", synthesis)
        route = lattice_report(plant).route_stabilizability
        assert route["verdict"] is not None
        assert len(calls) == 1
        _, V, S, _ = calls[0]
        assert equal(V, VstG) and equal(S, SstG)

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
    """One p2 solve builds each controllable split, friend and star-step
    norm once: the stabilizing friends start from the friends and pair
    splits of the analysis, read from the plant's memo."""

    @pytest.mark.parametrize("domain", ["continuous", "discrete"])
    def test_p2_solve_reuses_splits_and_friends(self, monkeypatch, domain):
        plant = generate_instance(InstanceSpec(seed=2, n=4, time_domain=domain))
        splits = count_calls(monkeypatch, "_controllable_split", geometry, synthesis)
        friends = count_calls(monkeypatch, "friend", geometry, synthesis)
        solve(plant, "p2")
        # splits: the precondition's (A, B) and (A^T, C^T), and the two
        # stabilizing gains this plant needs; friends: F of V_m + S_M, and G
        # of S_M (solved on its dual twin inside that one call)
        assert (len(splits), len(friends)) == (4, 2)

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
        halves = (rstar_qstar(quad_b)[0], rstar_qstar(quad_c)[1])
        assert all(_same_bits(got.basis, want.basis)
                   for got, want in zip(vm_sM(plant), halves))

        fresh = replace(plant)
        try:
            comp, report = solve(plant, "p2")
        except (Infeasible, WellPosednessObstruction, CertificateFailed):
            return
        except GeoddError as err:
            # raised while building the stabilizing friends
            report = analyze_p2(plant)
            with pytest.raises(type(err)) as fresh_err:
                synthesize(fresh, report.V, report.S, report.K, stabilize=True)
            assert str(fresh_err.value) == str(err)
            return
        built = synthesize(fresh, report.V, report.S, report.K, stabilize=True)
        assert all(_same_bits(getattr(comp, name), getattr(built, name))
                   for name in ("A_c", "B_c", "C_c", "D_c"))


# numpy's own routines, which the SVD kernel of `geodd.subspaces` replaces
_NUMPY_KERNEL = {
    "_svd": lambda M, full_matrices: np.linalg.svd(M, full_matrices=full_matrices),
    "_singular_values": lambda M: np.linalg.svd(M, compute_uv=False),
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


def _stabilizing_outputs(plant):
    """The stabilizing gains for a fresh copy of `plant` at three levels: the
    shifted Riccati gain of (A, B), the stabilizing friend of V*, and the p2
    compensator; each as bytes, or as the error raised."""
    plant = replace(plant)
    q = plant.control_quadruple()
    steps = (
        lambda: [geometry._place_state_feedback(q.A, q.B, plant.region, DEFAULT_TOL)[0]],
        lambda: [stabilizing_friend(vstar(q), OUTPUT_NULLING, q, plant.region).F_or_G],
        lambda: [getattr(solve(plant, "p2")[0], name) for name in ("A_c", "B_c", "C_c", "D_c")],
    )
    out = []
    for step in steps:
        try:
            out.append([(M.shape, M.tobytes()) for M in step()])
        except (GeoddError, ValueError, np.linalg.LinAlgError) as err:
            out.append(f"{type(err).__name__}: {err}")
    return out


def test_riccati_kernel_gives_scipy_gains_byte_for_byte(
        monkeypatch, mismatched_plant, singular_family_plant, scalar_channel_plant):
    plants = list(_parity_plants(mismatched_plant, singular_family_plant,
                                 scalar_channel_plant))
    plants += [generate_instance(InstanceSpec(seed=seed, n=n, time_domain=domain))
               for n in (8, 10) for seed in range(3) for domain in (CONTINUOUS, DISCRETE)]
    solves = count_calls(monkeypatch, "_riccati", geometry)
    with_kernel = [_stabilizing_outputs(plant) for plant in plants]
    # both domains' solves ran, and the pass did more than skip stable blocks
    assert {args[2] for args in solves} == {False, True}
    monkeypatch.setattr(geometry, "_place_state_feedback", scipy_state_feedback)
    with_scipy = [_stabilizing_outputs(plant) for plant in plants]
    assert with_kernel == with_scipy, lapack_builds()


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
