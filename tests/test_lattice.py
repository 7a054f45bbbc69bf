from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geodd import exact
from geodd.audit import lattice_report
from geodd.errors import DimensionMismatch
from geodd.generate import InstanceSpec, generate_instance
from geodd.geometry import (
    Quadruple,
    input_containing_residual,
    output_nulling_residual,
    rstar_qstar,
    sstar,
    vstar,
)
from geodd.lattice import (
    PlantSystem,
    extended_quadruples,
    coupling_conditions,
    disturbance_image_condition,
    disturbance_kernel_condition,
    vm_sM,
)
from geodd.subspaces import (
    DEFAULT_TOL,
    combine,
    complement,
    contains,
    equal,
    invariant_hull,
    kernel_of,
    span_of,
)
from helpers import (
    count_calls,
    max_angle,
    rational_as_subspace,
    reference_kernel_condition,
    reference_nulling_residual,
)


class TestPlantSystem:
    def test_dimension_validation(self):
        with pytest.raises(DimensionMismatch):
            PlantSystem(A=np.eye(2), B=np.ones((3, 1)), H=np.ones((2, 1)),
                        C=np.ones((1, 2)), D_y=np.ones((1, 1)), G_y=np.ones((1, 1)),
                        E=np.ones((1, 2)), D_z=np.ones((1, 1)), G_z=np.ones((1, 1)))

    def test_channel_quadruples(self, scalar_channel_plant):
        qc = scalar_channel_plant.control_quadruple()
        assert np.array_equal(qc.B, scalar_channel_plant.B) and np.array_equal(qc.C, scalar_channel_plant.E)
        qo = scalar_channel_plant.observation_quadruple()
        assert np.array_equal(qo.B, scalar_channel_plant.H) and np.array_equal(qo.D, scalar_channel_plant.G_y)


class TestQuadrupleMemo:
    """Each of a plant's quadruples is built once, and so is each dual."""

    def test_one_object_per_plant(self, mismatched_plant):
        plant = mismatched_plant
        quads = (plant.control_quadruple(), plant.observation_quadruple(),
                 *extended_quadruples(plant))
        again = (plant.control_quadruple(), plant.observation_quadruple(),
                 *extended_quadruples(plant))
        assert all(a is b for a, b in zip(quads, again))
        assert all(q.dual() is q.dual() for q in quads)
        fresh = replace(plant)
        assert fresh.control_quadruple() is not quads[0]
        assert extended_quadruples(fresh)[0] is not quads[2]

    def test_shared_matrices_are_read_only(self, mismatched_plant):
        plant = mismatched_plant
        for q in (plant.control_quadruple(), plant.observation_quadruple(),
                  *extended_quadruples(plant)):
            d = q.dual()
            for M in (q.A, q.B, q.C, q.D, d.A, d.B, d.C, d.D):
                assert not M.flags.writeable
                with pytest.raises(ValueError):
                    M[0, 0] = 1.0

    def test_dual_is_made_of_views(self):
        A = np.arange(9.0).reshape(3, 3)
        q = Quadruple(A, np.ones((3, 2)), np.ones((1, 3)), np.zeros((1, 2)))
        d = q.dual()
        for got, want in ((d.A, q.A), (d.B, q.C), (d.C, q.B), (d.D, q.D)):
            assert np.shares_memory(got, want) and np.array_equal(got, want.T)
            assert not got.flags.writeable and not want.flags.writeable
        # the quadruple holds a copy of the caller's array, so a write into
        # it shows through neither, and the kept dual never goes stale
        A[0, 1] = -7.0
        assert not np.shares_memory(q.A, A)
        assert q.dual() is d and q.A[0, 1] == d.A[1, 0] == 1.0


class TestExtendedQuadruples:
    def test_shapes(self, mismatched_plant):
        quad_b, quad_c = extended_quadruples(mismatched_plant)
        assert quad_b.B.shape == (3, mismatched_plant.m + mismatched_plant.q)
        assert quad_c.C.shape == (mismatched_plant.p + mismatched_plant.r, 3)

    def test_exact_concatenation(self, mismatched_plant):
        quad_b, quad_c = extended_quadruples(mismatched_plant)
        assert np.array_equal(quad_b.B, np.hstack([mismatched_plant.B, mismatched_plant.H]))
        assert np.array_equal(quad_b.D, np.hstack([mismatched_plant.D_z, mismatched_plant.G_z]))
        assert np.array_equal(quad_c.C, np.vstack([mismatched_plant.C, mismatched_plant.E]))
        assert np.array_equal(quad_c.D, np.vstack([mismatched_plant.G_y, mismatched_plant.G_z]))

    def test_zero_disturbance_columns_inert(self):
        rng = np.random.default_rng(5)
        A = rng.integers(-2, 3, size=(4, 4)).astype(float)
        B = rng.integers(-2, 3, size=(4, 2)).astype(float)
        E = rng.integers(-2, 3, size=(1, 4)).astype(float)
        D_z = rng.integers(-2, 3, size=(1, 2)).astype(float)
        sys = PlantSystem(A=A, B=B, H=np.zeros((4, 1)), C=rng.integers(-2, 3, size=(2, 4)),
                          D_y=np.zeros((2, 2)), G_y=np.zeros((2, 1)), E=E, D_z=D_z,
                          G_z=np.zeros((1, 1)))
        quad_b, _ = extended_quadruples(sys)
        base = Quadruple(A, B, E, D_z)
        assert equal(vstar(quad_b), vstar(base))
        assert equal(sstar(quad_b), sstar(base))


class TestVmSM:
    def test_degenerate_without_disturbance(self):
        rng = np.random.default_rng(8)
        A = rng.integers(-2, 3, size=(4, 4)).astype(float)
        B = rng.integers(-2, 3, size=(4, 2)).astype(float)
        C = rng.integers(-2, 3, size=(2, 4)).astype(float)
        E = rng.integers(-2, 3, size=(1, 4)).astype(float)
        sys = PlantSystem(A=A, B=B, H=np.zeros((4, 1)), C=C, D_y=np.zeros((2, 2)),
                          G_y=np.zeros((2, 1)), E=E, D_z=np.zeros((1, 2)),
                          G_z=np.zeros((1, 1)))
        v_m, s_M = vm_sM(sys)
        R, _ = rstar_qstar(Quadruple(A, B, E, np.zeros((1, 2))))
        assert equal(v_m, R)
        # with a dead disturbance channel the maximum self-hidden subspace
        # collapses to the unobservable core of the stacked output
        core = invariant_hull("largest_contained", A, kernel_of(np.vstack([C, E])))
        assert equal(s_M, core)
        _, Q_obs = rstar_qstar(sys.observation_quadruple())
        assert contains(Q_obs, s_M)

    def test_scalar_channel_plant_against_oracle(self, scalar_channel_plant):
        _assert_vm_sM_matches_exact(scalar_channel_plant)

    def test_uncoupled_disturbance_plant_against_oracle(self, uncoupled_disturbance_plant):
        # (a) fails here, so vm_sM must run the input-extended V* recursion:
        # the plant's V* is a proper part of it and would give the wrong v_m
        plant = uncoupled_disturbance_plant
        conds = coupling_conditions(plant, vstar(plant.control_quadruple()),
                                    sstar(plant.observation_quadruple()))
        assert not conds["a"][0] and conds["b"][0]
        quad_b, _ = extended_quadruples(plant)
        assert vstar(plant.control_quadruple()).dim < vstar(quad_b).dim
        _assert_vm_sM_matches_exact(plant)

    def test_equals_the_extended_halves_in_every_branch(self):
        # vm_sM reads the plant's V* under (a) and its S* under (b); it must
        # still be R* of the input-extended quadruple and Q* of the
        # output-extended one, as an independent rstar_qstar builds them
        rng = np.random.default_rng(22)

        def draw(rows, cols, sometimes_zero=False):
            M = rng.integers(-2, 3, size=(rows, cols)).astype(float)
            return M * (rng.random() < 0.5) if sometimes_zero else M
        branches = Counter()
        for i in range(240):
            n = int(rng.integers(2, 6))
            m, q, p, r = (int(x) for x in rng.integers(1, 3, size=4))
            plant = PlantSystem(
                A=draw(n, n), B=draw(n, m), H=draw(n, q), C=draw(p, n),
                D_y=draw(p, m, True), G_y=draw(p, q, True), E=draw(r, n),
                D_z=draw(r, m, True), G_z=draw(r, q, True),
                time_domain=("continuous", "discrete")[i % 2])
            v_m, s_M = vm_sM(plant)
            quad_b, quad_c = extended_quadruples(plant)
            assert equal(v_m, rstar_qstar(quad_b)[0]), i
            assert equal(s_M, rstar_qstar(quad_c)[1]), i
            conds = coupling_conditions(plant, vstar(plant.control_quadruple()),
                                        sstar(plant.observation_quadruple()))
            branches[conds["a"][0], conds["b"][0]] += 1
        assert len(branches) == 4 and min(branches.values()) >= 30, branches

    def test_vm_inside_vstar_on_solvable_instances(self):
        hits = 0
        for seed in range(12):
            sys = generate_instance(InstanceSpec(seed=seed, n=4, m=2, q=1, p=2, r=1))
            v_m, _ = vm_sM(sys)
            assert contains(vstar(sys.control_quadruple()), v_m)
            hits += 1
        assert hits == 12


@st.composite
def integer_plants(draw):
    """Integer plants with n = 2-6, m, q, p, r = 1-3 and entries in
    [-3, 3]; each feedthrough is zero half the time."""
    n = draw(st.integers(2, 6))
    m, q, p, r = (draw(st.integers(1, 3)) for _ in range(4))

    def block(rows, cols, sometimes_zero=False):
        if sometimes_zero and draw(st.booleans()):
            return np.zeros((rows, cols))
        size = rows * cols
        entries = draw(st.lists(st.integers(-3, 3), min_size=size, max_size=size))
        return np.array(entries, dtype=float).reshape(rows, cols)

    return PlantSystem(A=block(n, n), B=block(n, m), H=block(n, q), C=block(p, n),
                       D_y=block(p, m, True), G_y=block(p, q, True), E=block(r, n),
                       D_z=block(r, m, True), G_z=block(r, q, True))


class TestCouplingConditions:
    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(integer_plants())
    def test_one_residual_for_conditions_a_and_b(self, plant):
        # (a) is the nulling residual of im [H; G_z] on the control
        # quadruple and (b) that of im [E G_z]^T on S*^perp and the dual
        # observation quadruple: both sines, equal to the target form, and
        # (b) passes exactly where the intersection form it replaced does
        tol = DEFAULT_TOL.residual
        ctrl, dual_obs = plant.control_quadruple(), plant.observation_quadruple().dual()
        V, S = vstar(ctrl), sstar(plant.observation_quadruple())
        ra = disturbance_image_condition(plant, V)
        rb = disturbance_kernel_condition(plant, S)
        want_a = reference_nulling_residual(V, ctrl, span_of(np.vstack([plant.H, plant.G_z])).basis)
        want_b = reference_nulling_residual(complement(S), dual_obs,
                                            span_of(np.hstack([plant.E, plant.G_z]).T).basis)
        assert abs(ra - want_a) <= 1e-12 and abs(rb - want_b) <= 1e-12
        assert (ra <= tol) == (want_a <= tol)
        assert (rb <= tol) == (want_b <= tol) == (reference_kernel_condition(plant, S) <= tol)


def _assert_vm_sM_matches_exact(plant):
    v_m, s_M = vm_sM(plant)
    quad_b, quad_c = extended_quadruples(plant)
    vm_rat = exact.intersect_spans(
        exact.vstar_span(*(exact.from_array(M) for M in
                           (quad_b.A, quad_b.B, quad_b.C, quad_b.D))),
        exact.sstar_span(*(exact.from_array(M) for M in
                           (quad_b.A, quad_b.B, quad_b.C, quad_b.D))))
    sM_rat = exact.sum_spans(
        exact.vstar_span(*(exact.from_array(M) for M in
                           (quad_c.A, quad_c.B, quad_c.C, quad_c.D))),
        exact.sstar_span(*(exact.from_array(M) for M in
                           (quad_c.A, quad_c.B, quad_c.C, quad_c.D))))
    assert max_angle(v_m, rational_as_subspace(vm_rat, plant.n)) <= 1e-8
    assert max_angle(s_M, rational_as_subspace(sM_rat, plant.n)) <= 1e-8
    assert contains(combine("sum", v_m, s_M), s_M)


def _dual_plant(sys):
    """The plant whose control channel is the dual of `sys`'s observation
    channel and whose observation channel is the dual of its control one."""
    return PlantSystem(A=sys.A.T, B=sys.C.T, H=sys.E.T, C=sys.B.T, D_y=sys.D_y.T,
                       G_y=sys.D_z.T, E=sys.H.T, D_z=sys.G_y.T, G_z=sys.G_z.T,
                       time_domain=sys.time_domain)


class TestLatticeReport:
    def test_mismatched_plant_coupling_conditions(self, mismatched_plant, mismatched_plant_pair):
        V, S = mismatched_plant_pair
        conds = coupling_conditions(mismatched_plant, V, S)
        assert conds["a"][0] and conds["b"][0]
        assert not conds["c"][0]

    def test_unconditional_chain_on_fixtures(self, mismatched_plant, singular_family_plant, scalar_channel_plant):
        for sys in (mismatched_plant, singular_family_plant, scalar_channel_plant):
            rep = lattice_report(sys)
            for name in ("v_chain_upper", "s_chain_lower"):
                chk = rep.check(name)
                assert chk.passed, name

    def test_gated_checks_on_solvable_instances(self):
        evaluated = 0
        for seed in range(10):
            sys = generate_instance(InstanceSpec(seed=seed, n=4, m=2, q=1, p=2, r=1))
            rep = lattice_report(sys)
            for chk in rep.inclusion_checks:
                if chk.skipped:
                    continue
                assert chk.passed, chk.name
                evaluated += 1
            if rep.interleaved_sums_ok is not None:
                assert rep.interleaved_sums_ok
            if rep.extended_lattice_ok is not None:
                assert rep.extended_lattice_ok
            if rep.reduced_lattice_ok is not None:
                assert rep.reduced_lattice_ok
        assert evaluated >= 30

    def test_vm_reduced_form_on_generated_instances(self):
        # with one control input the extended S* cuts V* on some seeds, so
        # the reduced form v_m = V* ^ S*(input-extended) is not just V*
        cut = 0
        for seed in range(13):
            sys = generate_instance(InstanceSpec(seed=seed, n=4, m=1, q=1, p=2, r=1))
            rep = lattice_report(sys)
            chk = rep.check("vm_reduced_form")
            if chk.skipped:
                continue
            assert chk.passed, (seed, chk.residual)
            cut += rep.v_m.dim < rep.sequences["v_hat"][-1].dim
        assert cut >= 1

    def test_sM_reduced_form_on_generated_instances(self):
        # The dual plant's output-extended quadruple is the dual of the
        # input-extended one, so its s_M is the complement of the v_m above
        # and grows past its S* on the seeds where v_m is cut out of V*:
        # there the reduced form s_M = V*(output-extended) + S* is not
        # just S*.
        grown = 0
        for seed in range(13):
            sys = _dual_plant(generate_instance(
                InstanceSpec(seed=seed, n=4, m=1, q=1, p=2, r=1)))
            rep = lattice_report(sys)
            chk = rep.check("sM_reduced_form")
            if chk.skipped:
                continue
            assert chk.passed, (seed, chk.residual)
            grown += rep.s_M.dim > rep.sequences["s_check"][-1].dim
        assert grown >= 1

    def test_interleaved_sums_match_when_hypothesis_holds(self):
        # V-hat_i + S-tilde_j = V-hat_i + S-hat_j across all recursion depths
        sys = generate_instance(InstanceSpec(seed=3, n=4, m=2, q=1, p=2, r=1))
        rep = lattice_report(sys)
        assert rep.interleaved_sums_ok is True
        v_seq = rep.sequences["v_hat"]
        st_seq = rep.sequences["s_tilde"]
        sh_seq = rep.sequences["s_hat"]
        for vi in v_seq:
            for st, sh in zip(st_seq, sh_seq):
                assert equal(combine("sum", vi, st), combine("sum", vi, sh))

    def test_extended_lattice_conclusions_verified_directly(self):
        sys = generate_instance(InstanceSpec(seed=4, n=4, m=2, q=1, p=2, r=1))
        rep = lattice_report(sys)
        if rep.extended_lattice_ok is None:
            pytest.skip("hypothesis not met for this seed")
        quad_b, quad_c = extended_quadruples(sys)
        vm_plus = combine("sum", rep.v_m, rep.s_M)
        vm_cap = combine("intersect", rep.v_m, rep.s_M)
        assert output_nulling_residual(vm_plus, quad_b) <= 1e-8
        assert input_containing_residual(vm_cap, quad_c) <= 1e-8

    def test_report_serializes(self, scalar_channel_plant):
        d = lattice_report(scalar_channel_plant).to_dict()
        assert {"v_m_dim", "s_M_dim", "checks", "interleaved_sums", "extended_lattice", "reduced_lattice",
                "route_stabilizability"} <= set(d)
        assert all({"name", "verdict", "residual"} <= set(c) for c in d["checks"])


class TestRecursionCounts:
    """Each entry point runs every star recursion it needs exactly once."""

    @pytest.fixture
    def recursions(self, monkeypatch):
        """run(fn, *args): fn's result and the star recursions it ran.

        `vstar` and `sstar` each run the one complement recursion,
        `geometry._nulling_steps`, once: on the quadruple for V*, on its
        dual for S*."""
        from geodd import geometry

        calls = count_calls(monkeypatch, "_nulling_steps", geometry)

        def run(fn, *args):
            calls.clear()
            result = fn(*args)
            return result, len(calls)
        return run

    def test_entry_points_on_generated_plant(self, recursions):
        from geodd.synthesis import analyze_p1, analyze_p2

        spec = InstanceSpec(seed=7, n=4, m=2, q=1, p=2, r=1)
        runs = {}
        for name, fn in (("p1", analyze_p1), ("p2", analyze_p2),
                         ("report", lattice_report)):
            # a fresh plant each, so that no entry point reads another's memo
            result, runs[name] = recursions(fn, generate_instance(spec))
        assert result.route_stabilizability["verdict"] is not None
        # p1: V*, S*; p2 adds S* of the input-extended quadruple and V* of
        # the output-extended one (vm_sM), and reads the other two extended
        # recursions off the star pair, since (a) and (b) hold on this
        # plant; the report runs 7 + V*(observation), and its
        # stabilizability route reuses the star pair (V* of the control
        # quadruple, S* of the observation one) and runs no recursion.
        assert runs == {"p1": 2, "p2": 4, "report": 8}

    def test_analyses_of_one_plant_share_their_recursions(self, recursions):
        from geodd.synthesis import analyze_p1, analyze_p2, solve

        sys = generate_instance(InstanceSpec(seed=2, n=4, m=2, q=1, p=2, r=1))
        runs = [recursions(fn, sys)[1] for fn in
                (analyze_p1, analyze_p2, lambda plant: solve(plant, "p2"))]
        # p1 builds the star pair; p2 reads it and its coupling conditions
        # from the plant's memo and runs only the two extended recursions
        # that (a) and (b) do not settle; solve reads everything.
        assert runs == [2, 2, 0]

    def test_failed_condition_runs_its_extended_recursion(
            self, recursions, uncoupled_disturbance_plant):
        from geodd.synthesis import analyze_p1, analyze_p2

        runs = [recursions(fn, uncoupled_disturbance_plant)[1]
                for fn in (analyze_p1, analyze_p2)]
        # (a) fails, so p2 also runs V* of the input-extended quadruple;
        # (b) holds, so S* of the output-extended one is still read off
        # the star pair
        assert runs == [2, 3]

    def test_new_tolerance_or_replaced_plant_recomputes(self, recursions):
        from dataclasses import replace

        from geodd.subspaces import ToleranceProfile
        from geodd.synthesis import analyze_p1

        sys = generate_instance(InstanceSpec(seed=7, n=4, m=2, q=1, p=2, r=1))
        runs = []
        for plant, tol in ((sys, ToleranceProfile()), (sys, ToleranceProfile()),
                           (sys, ToleranceProfile(rank_rel=1e-9)),
                           (replace(sys), ToleranceProfile())):
            runs.append(recursions(analyze_p1, plant, tol)[1])
        assert runs == [2, 0, 2, 2]
