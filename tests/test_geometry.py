import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import LinAlgWarning, solve_continuous_are, solve_discrete_are

from geodd import InstanceSpec, exact, generate_instance, geometry
from geodd.errors import FixedSpectrumOutsideRegion, NotInvariant, NotStabilizablePair
from geodd.geometry import (
    INPUT_CONTAINING,
    OUTPUT_NULLING,
    Quadruple,
    _riccati,
    friend,
    friend_residual,
    input_containing_residual,
    invariant_zeros,
    match_spectra,
    output_nulling_residual,
    reach_detect,
    rstar_qstar,
    self_predicate,
    spectral_report,
    sstar,
    sstar_g,
    stabilizing_friend,
    vstar,
    vstar_g,
)
from geodd.subspaces import (
    StabilityRegion,
    Subspace,
    combine,
    complement,
    contains,
    equal,
    image_under,
    invariant_hull,
    kernel_of,
    span_of,
)
from helpers import (
    count_calls,
    lapack_builds,
    max_angle,
    primal_detectability,
    primal_fixed_spectra,
    primal_injection_residual,
    primal_sstar_sequence,
    quad_to_exact,
    random_quadruple,
    rational_as_subspace,
)

CONT = StabilityRegion("continuous")
DISC = StabilityRegion("discrete")


def exact_vstar_subspace(q):
    return rational_as_subspace(exact.vstar_span(*quad_to_exact(q)), q.n)


def exact_sstar_subspace(q):
    return rational_as_subspace(exact.sstar_span(*quad_to_exact(q)), q.n)


class TestStarRecursions:
    def test_no_output_constraint_gives_full_space(self):
        q = Quadruple(np.diag([1.0, 2.0]), np.eye(2), np.zeros((1, 2)), np.zeros((1, 2)))
        assert vstar(q).is_full

    def test_double_integrator_with_position_output(self):
        q = Quadruple([[0, 1], [0, 0]], [[0], [1]], [[1, 0]], [[0]])
        V, seq = vstar(q, return_sequence=True)
        assert V.is_trivial
        dims = [s.dim for s in seq]
        assert dims[0] == 2 and dims[1] == 1 and dims[2] == 0

    def test_no_input_reduces_to_unobservable_core(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            n = int(rng.integers(2, 6))
            A = rng.integers(-3, 4, size=(n, n)).astype(float)
            C = rng.integers(-3, 4, size=(1, n)).astype(float)
            q = Quadruple(A, np.zeros((n, 1)), C, np.zeros((1, 1)))
            want = invariant_hull("largest_contained", A, kernel_of(C))
            assert equal(vstar(q), want)

    def test_sstar_trivial_without_inputs(self):
        q = Quadruple(np.diag([1.0, 2.0]), np.zeros((2, 1)),
                      np.eye(2), np.zeros((2, 1)))
        assert sstar(q).is_trivial

    def test_sstar_is_dual_vstar_complement(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            q = random_quadruple(rng)
            lhs = sstar(q)
            rhs = complement(vstar(q.dual()))
            assert max_angle(lhs, rhs) <= 1e-8

    def test_singular_family_plant_observation_channel_sstar(self, singular_family_plant):
        S = sstar(singular_family_plant.observation_quadruple())
        want = span_of(np.array([[1.0], [-1.0], [1.0]]))
        assert max_angle(S, want) <= 1e-10
        assert input_containing_residual(S, singular_family_plant.observation_quadruple()) <= 1e-10

    def test_convergence_monotone_with_bounded_steps(self):
        # The fixpoint index can reach n exactly (a full-length chain of
        # single-dimension moves); n is the sharp bound counted from V_0 / S_0.
        # Acceptance criterion 4 checks these step counts against the exact
        # recursion and the n-1 bound from the first iterate.
        rng = np.random.default_rng(31)
        for _ in range(40):
            q = random_quadruple(rng)
            _, vseq = vstar(q, return_sequence=True)
            vdims = [s.dim for s in vseq]
            assert all(a >= b for a, b in zip(vdims, vdims[1:]))
            strict = sum(1 for a, b in zip(vdims, vdims[1:]) if a > b)
            assert strict <= q.n
            _, sseq = sstar(q, return_sequence=True)
            sdims = [s.dim for s in sseq]
            assert all(a <= b for a, b in zip(sdims, sdims[1:]))
            assert sum(1 for a, b in zip(sdims, sdims[1:]) if a < b) <= q.n


class TestStarIdentities:
    def test_unconstrained_rstar_is_reachable_subspace(self):
        A = np.array([[0.0, 1.0], [0.0, 0.0]])
        B = np.eye(2)
        q = Quadruple(A, B, np.zeros((1, 2)), np.zeros((1, 2)))
        R, Q = rstar_qstar(q)
        assert equal(R, invariant_hull("smallest_containing", A, span_of(B)))
        assert Q.is_full

    def test_inclusion_chain(self):
        rng = np.random.default_rng(37)
        for _ in range(30):
            q = random_quadruple(rng)
            V, S = vstar(q), sstar(q)
            R, Q = rstar_qstar(q)
            assert contains(V, R) and contains(Q, S)

    def test_against_exact_oracle(self):
        rng = np.random.default_rng(41)
        for _ in range(25):
            q = random_quadruple(rng, n=int(rng.integers(2, 6)))
            ex_v = exact_vstar_subspace(q)
            ex_s = exact_sstar_subspace(q)
            assert max_angle(vstar(q), ex_v) <= 1e-8
            assert max_angle(sstar(q), ex_s) <= 1e-8
            R, Q = rstar_qstar(q)
            assert max_angle(R, combine("intersect", ex_v, ex_s)) <= 1e-8
            assert max_angle(Q, combine("sum", ex_v, ex_s)) <= 1e-8


class TestFriends:
    def test_trivial_subspace_zero_friend(self):
        q = Quadruple(np.diag([1.0, 2.0]), np.eye(2), np.eye(2), np.zeros((2, 2)))
        cert = friend(OUTPUT_NULLING, Subspace.trivial(2), q)
        assert not cert.F_or_G.any()

    def test_scalar_channel_plant_friend(self, scalar_channel_plant):
        # F = [1 0] keeps the state on V* and the output at zero
        q = scalar_channel_plant.control_quadruple()
        V = vstar(q)
        assert friend_residual(np.array([[1.0, 0.0]]), V, q) <= 1e-12
        cert = friend(OUTPUT_NULLING, V, q)
        assert cert.residual <= 1e-10

    def test_generated_certificates_tight(self):
        rng = np.random.default_rng(43)
        for _ in range(30):
            q = random_quadruple(rng)
            V = vstar(q)
            assert friend(OUTPUT_NULLING, V, q).residual <= 1e-10
            S = sstar(q)
            assert friend(INPUT_CONTAINING, S, q).residual <= 1e-10

    def test_non_invariant_subspace_rejected(self):
        q = Quadruple([[0, 1], [0, 0]], [[0], [1]], [[1, 0]], [[0]])
        with pytest.raises(NotInvariant) as err:
            friend(OUTPUT_NULLING, Subspace.full(2), q)
        assert err.value.residual > 0

    def test_self_bounded_friend_sharing(self):
        # a friend of the largest self-bounded subspace works for the smallest
        rng = np.random.default_rng(47)
        for _ in range(20):
            q = random_quadruple(rng)
            V = vstar(q)
            R, _ = rstar_qstar(q)
            F = friend(OUTPUT_NULLING, V, q).F_or_G
            assert friend_residual(F, R, q) <= 1e-8


class TestReachDetect:
    def test_plain_reachable_subspace(self):
        A = np.array([[0.0, 1.0], [0.0, 0.0]])
        B = np.eye(2)
        q = Quadruple(A, B, np.zeros((1, 2)), np.zeros((1, 2)))
        cert = friend(OUTPUT_NULLING, Subspace.full(2), q)
        got = reach_detect(OUTPUT_NULLING, Subspace.full(2), cert, q)
        assert equal(got, invariant_hull("smallest_containing", A, span_of(B)))

    def test_reachability_on_vstar_is_rstar(self):
        rng = np.random.default_rng(53)
        for _ in range(25):
            q = random_quadruple(rng)
            V = vstar(q)
            cert = friend(OUTPUT_NULLING, V, q)
            R, _ = rstar_qstar(q)
            assert max_angle(reach_detect(OUTPUT_NULLING, V, cert, q), R) <= 1e-8

    def test_detectability_on_sstar_is_qstar(self):
        rng = np.random.default_rng(59)
        for _ in range(25):
            q = random_quadruple(rng)
            S = sstar(q)
            cert = friend(INPUT_CONTAINING, S, q)
            _, Q = rstar_qstar(q)
            assert max_angle(reach_detect(INPUT_CONTAINING, S, cert, q), Q) <= 1e-8


class TestLatticePredicates:
    def test_star_subspaces_are_self(self):
        rng = np.random.default_rng(61)
        for _ in range(15):
            q = random_quadruple(rng)
            assert self_predicate("bounded", vstar(q), q)
            assert self_predicate("hidden", sstar(q), q)
            R, Q = rstar_qstar(q)
            assert self_predicate("bounded", R, q)
            assert self_predicate("hidden", Q, q)

    def test_mismatched_plant_subspace_stable_under_basis_change(self, mismatched_plant, mismatched_plant_pair):
        V, _ = mismatched_plant_pair
        q = mismatched_plant.control_quadruple()
        rng = np.random.default_rng(3)
        verdicts = set()
        for _ in range(5):
            mix = rng.standard_normal((2, 2))
            while abs(np.linalg.det(mix)) < 0.1:
                mix = rng.standard_normal((2, 2))
            Vr = span_of(V.basis @ mix)
            verdicts.add(self_predicate("bounded", Vr, q))
        assert len(verdicts) == 1

    def test_intersection_and_sum_stay_in_lattices(self):
        # output-nulling ^ input-containing is output nulling; sum is
        # input containing
        rng = np.random.default_rng(67)
        for _ in range(20):
            q = random_quadruple(rng)
            vs = [vstar(q), rstar_qstar(q)[0]]
            ss = [sstar(q), rstar_qstar(q)[1]]
            for V in vs:
                for S in ss:
                    inter = combine("intersect", V, S)
                    assert output_nulling_residual(inter, q) <= 1e-8
                    total = combine("sum", V, S)
                    assert input_containing_residual(total, q) <= 1e-8

    def test_input_containing_contains_b_ker_d(self):
        rng = np.random.default_rng(71)
        for _ in range(20):
            q = random_quadruple(rng)
            bkd = image_under(q.B, kernel_of(q.D))
            assert contains(sstar(q), bkd)
            assert contains(rstar_qstar(q)[1], bkd)
            cimd = complement(image_under(q.C.T, complement(span_of(q.D))))
            # V <= C^{-1} im D for every output-nulling V
            from geodd.subspaces import preimage
            cim = preimage(q.C, span_of(q.D))
            assert contains(cim, vstar(q))


class TestStabilizingFriend:
    def test_stable_matrix_trivial_subspace_keeps_zero_friend(self):
        q = Quadruple(np.diag([-1.0, -2.0]), np.eye(2), np.eye(2), np.zeros((2, 2)))
        cert = stabilizing_friend(Subspace.trivial(2), OUTPUT_NULLING, q, CONT)
        assert not cert.F_or_G.any()

    @pytest.mark.parametrize("region", [CONT, DISC], ids=["continuous", "discrete"])
    def test_scalar_placement(self, region):
        # The friend that keeps V leaves the mode at 1.5, unstable in both
        # domains; the shifted Riccati gain moves it left of -1 (continuous)
        # or inside the disc of radius 1/2 (discrete).
        q = Quadruple([[3.0]], [[1.0]], np.zeros((1, 1)), np.zeros((1, 1)))
        cert = stabilizing_friend(Subspace.full(1), OUTPUT_NULLING, q, region)
        lam = np.linalg.eigvals(q.A + q.B @ cert.F_or_G)[0]
        if region.kind == "continuous":
            assert lam.real <= -1.0
        else:
            assert abs(lam) <= 0.5

    def test_unstable_invariant_zero_blocks_stabilization(self):
        # invariant zero at +1 sits in V*/R_V*
        q = Quadruple([[0, 1], [0, 0]], [[0], [1]], [[1, -1]], [[0]])
        V = vstar(q)
        with pytest.raises(FixedSpectrumOutsideRegion):
            stabilizing_friend(V, OUTPUT_NULLING, q, CONT)

    def test_stabilizes_whole_map_on_random_instances(self):
        rng = np.random.default_rng(73)
        done = 0
        for _ in range(60):
            q = random_quadruple(rng, lo=-2, hi=2)
            V = vstar(q)
            try:
                cert = stabilizing_friend(V, OUTPUT_NULLING, q, CONT)
            except (FixedSpectrumOutsideRegion, NotStabilizablePair):
                continue
            eigs = np.linalg.eigvals(q.A + q.B @ cert.F_or_G)
            assert max(e.real for e in eigs) < 0
            assert friend_residual(cert.F_or_G, V, q) <= 1e-6
            done += 1
        assert done >= 10

    def test_unstabilizable_pair_names_the_mode(self):
        # the mode at +1 is unreachable from the single input
        q = Quadruple(np.diag([1.0, -1.0]), [[0.0], [1.0]], np.zeros((1, 2)),
                      np.zeros((1, 1)))
        with pytest.raises(NotStabilizablePair, match=r"unstabilizable modes \[1\.\]"):
            stabilizing_friend(Subspace.trivial(2), OUTPUT_NULLING, q, CONT)

    def test_pair_check_places_no_poles(self, monkeypatch):
        # On this plant (A, B) is controllable with unstable modes and V* has
        # dimension 3. The pair check solves no Riccati equation on the whole
        # pair: the solves are the internal one on V* and the external one
        # on the 1-dimensional quotient X / V*.
        plant = generate_instance(InstanceSpec(seed=7, n=4))
        q = plant.control_quadruple()
        V = vstar(q)
        calls = count_calls(monkeypatch, "_riccati", geometry)
        cert = stabilizing_friend(V, OUTPUT_NULLING, q, CONT)
        care = [args for args in calls if not args[2]]
        dare = [args for args in calls if args[2]]
        assert V.dim == 3
        assert [args[0].shape[0] for args in care] == [3, 1]
        assert dare == []
        eigs = np.linalg.eigvals(q.A + q.B @ cert.F_or_G)
        assert max(e.real for e in eigs) < 0


@st.composite
def riccati_pencils(draw):
    """(A, B, margin) with k = 1..12 states, m = 1..3 inputs, entries scaled
    by 1e-3..1e3, and now and then a zero column in B."""
    k, m = draw(st.integers(1, 12)), draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    A = rng.standard_normal((k, k)) * 10.0 ** draw(st.integers(-3, 3))
    B = rng.standard_normal((k, m)) * 10.0 ** draw(st.integers(-3, 3))
    zero = draw(st.sampled_from([None] * 3 + list(range(m))))
    if zero is not None:
        B[:, zero] = 0.0
    return A, B, draw(st.sampled_from([0.0, 0.05, 0.3]))


def _same_as_scipy(ours, scipys):
    """ours() returns scipy's P byte for byte, or raises where scipy raises,
    with the same type and message."""
    try:
        want = scipys()
    except (ValueError, np.linalg.LinAlgError) as err:
        with pytest.raises(type(err), match=re.escape(str(err))):
            ours()
        return
    got = ours()
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes(), lapack_builds()


def _with_info(routine, info):
    """A LAPACK binding that runs `routine` and then reports `info`."""
    def fake(*args, **kwargs):
        return (*routine(*args, **kwargs)[:-1], info)
    return fake


class TestRiccatiKernel:
    """`_riccati` is scipy's CARE/DARE solver with identity weights, on the
    same LAPACK routines without the wrappers."""

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(riccati_pencils())
    @pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
    def test_solution_equals_scipy_bit_for_bit(self, pencil):
        A, B, margin = pencil
        k, m = B.shape
        Ac = A + (1.0 + margin) * np.eye(k)
        _same_as_scipy(lambda: _riccati(Ac, B, False),
                       lambda: solve_continuous_are(Ac, B, np.eye(k), np.eye(m)))
        Ad = A / ((1.0 - margin) / 2.0)
        _same_as_scipy(lambda: _riccati(Ad, B, True),
                       lambda: solve_discrete_are(Ad, B, np.eye(k), np.eye(m)))

    @pytest.mark.parametrize("discrete", [False, True])
    def test_nonfinite_input_raises_scipys_error(self, discrete):
        A, B = np.array([[1.0, np.inf], [0.0, 1.0]]), np.ones((2, 1))
        with pytest.raises(ValueError, match="must not contain infs or NaNs"):
            _riccati(A, B, discrete)

    @pytest.mark.parametrize("discrete", [False, True])
    def test_lapack_failure_raises(self, monkeypatch, discrete):
        A, B = np.array([[1.0, 2.0], [0.0, -3.0]]), np.array([[0.0], [1.0]])
        P = _riccati(A, B, discrete)
        # an incomplete QZ warns and goes on, as scipy's does
        monkeypatch.setattr(geometry, "dgges", _with_info(geometry.dgges, 1))
        with pytest.warns(LinAlgWarning, match="The QZ iteration failed"):
            assert _riccati(A, B, discrete).tobytes() == P.tobytes()
        # info = 2k + 1: a failure other than the QZ iteration
        monkeypatch.setattr(geometry, "dgges", _with_info(geometry.dgges, 5))
        with pytest.raises(np.linalg.LinAlgError,
                           match="Something other than QZ iteration failed"):
            _riccati(A, B, discrete)
        monkeypatch.undo()
        monkeypatch.setattr(geometry, "dtgsen", _with_info(geometry.dtgsen, 1))
        with pytest.raises(ValueError, match=r"Reordering of \(A, B\) failed"):
            _riccati(A, B, discrete)

    @pytest.mark.parametrize("discrete", [False, True])
    def test_unsplit_pencil_raises_scipys_error(self, monkeypatch, discrete):
        # eigenvalues on the boundary leave a selected subspace that is not
        # Lagrangian, and with it a solution that is not symmetric; a random
        # orthogonal Z stands in for such a subspace
        A, B = np.array([[1.0, 2.0], [0.0, -3.0]]), np.array([[0.0], [1.0]])
        Z = np.linalg.qr(np.random.default_rng(3).standard_normal((4, 4)))[0]
        dtgsen = geometry.dtgsen

        def unsplit(*args):
            res = list(dtgsen(*args))
            res[6] = np.asfortranarray(Z)
            return tuple(res)

        monkeypatch.setattr(geometry, "dtgsen", unsplit)
        where = "unit circle" if discrete else "imaginary axis"
        with pytest.raises(np.linalg.LinAlgError, match=f"too close to the {where}"):
            _riccati(A, B, discrete)


class TestStabilizabilitySubspaces:
    def test_all_zeros_stable_gives_vstar(self):
        A = np.diag([-1.0, -2.0, 0.0])
        q = Quadruple(A, np.eye(3)[:, 2:], [[0.0, 0.0, 1.0]], [[0.0]])
        assert equal(vstar_g(q, CONT), vstar(q))

    def test_all_zeros_unstable_gives_rstar(self):
        A = np.diag([1.0, 2.0, 0.0])
        q = Quadruple(A, np.eye(3)[:, 2:], [[0.0, 0.0, 1.0]], [[0.0]])
        R, _ = rstar_qstar(q)
        assert equal(vstar_g(q, CONT), R)

    def test_mixed_zeros_add_one_dimension(self):
        A = np.diag([-1.0, 1.0, 0.0])
        q = Quadruple(A, np.eye(3)[:, 2:], [[0.0, 0.0, 1.0]], [[0.0]])
        R, _ = rstar_qstar(q)
        got = vstar_g(q, CONT)
        assert got.dim == R.dim + 1
        # the added direction is the stable zero's axis
        assert contains(got, span_of(np.eye(3)[:, :1]))

    def test_chain_inclusions(self):
        rng = np.random.default_rng(79)
        for _ in range(25):
            q = random_quadruple(rng)
            try:
                Vg = vstar_g(q, CONT)
                Sg = sstar_g(q, CONT)
            except Exception:
                continue
            R, Q = rstar_qstar(q)
            assert contains(Vg, R) and contains(vstar(q), Vg)
            assert contains(Sg, sstar(q)) and contains(Q, Sg)

    def test_definitional_spectra(self):
        # the largest stabilizability subspace is internally stabilizable
        # and its dual is externally detectable
        rng = np.random.default_rng(85)
        checked = 0
        for _ in range(25):
            q = random_quadruple(rng)
            try:
                Vg = vstar_g(q, CONT)
                Sg = sstar_g(q, CONT)
            except Exception:
                continue
            rep_v = spectral_report(Vg, OUTPUT_NULLING, q)
            assert all(l.real < 0 for l in rep_v.internal_fixed)
            rep_s = spectral_report(Sg, INPUT_CONTAINING, q)
            assert all(l.real < 0 for l in rep_s.external_fixed)
            checked += 1
        assert checked >= 15

    def test_discrete_region_variant(self):
        A = np.diag([0.5, 2.0, 0.0])
        q = Quadruple(A, np.eye(3)[:, 2:], [[0.0, 0.0, 1.0]], [[0.0]])
        got = vstar_g(q, StabilityRegion("discrete"))
        R, _ = rstar_qstar(q)
        assert got.dim == R.dim + 1
        assert contains(got, span_of(np.eye(3)[:, :1]))


class TestSpectralReports:
    def test_internal_fixed_equals_invariant_zeros(self):
        rng = np.random.default_rng(83)
        for _ in range(15):
            q = random_quadruple(rng)
            rep = spectral_report(vstar(q), OUTPUT_NULLING, q)
            assert match_spectra(rep.internal_fixed, invariant_zeros(q))

    def test_uncontrollable_mode_shows_up_externally(self):
        q = Quadruple(np.diag([1.0, -3.0]), [[1.0], [0.0]], [[0.0, 1.0]], [[0.0]])
        rep = spectral_report(vstar(q), OUTPUT_NULLING, q)
        assert match_spectra(rep.external_fixed, [-3.0])

    def test_friend_independence(self, scalar_channel_plant):
        q = scalar_channel_plant.control_quadruple()
        V = vstar(q)
        given = friend(OUTPUT_NULLING, V, q)
        forced = type(given)(np.array([[1.0, 0.0]]), OUTPUT_NULLING, 0.0)
        rep1 = spectral_report(V, OUTPUT_NULLING, q, cert=given)
        rep2 = spectral_report(V, OUTPUT_NULLING, q, cert=forced)
        assert match_spectra(rep1.internal_fixed, rep2.internal_fixed)
        assert match_spectra(rep1.external_fixed, rep2.external_fixed)
        assert rep1.assignable_dims == rep2.assignable_dims

    def test_multiset_sizes_sum_to_n(self):
        rng = np.random.default_rng(89)
        for _ in range(15):
            q = random_quadruple(rng)
            for kind, sub in ((OUTPUT_NULLING, vstar(q)), (INPUT_CONTAINING, sstar(q))):
                rep = spectral_report(sub, kind, q)
                total = (len(rep.internal_fixed) + len(rep.external_fixed)
                         + sum(rep.assignable_dims))
                assert total == q.n


@st.composite
def quadruples(draw):
    """Quadruples with n = 2-6 and m, p = 1-3 drawn apart, so m != p is
    common. Entries are mostly 0, else +-1, so that S* is often a proper
    subspace with unobservable modes in it; D is set to zero in a third."""
    n, m, p = draw(st.integers(2, 6)), draw(st.integers(1, 3)), draw(st.integers(1, 3))

    def block(rows, cols):
        size = rows * cols
        entries = draw(st.lists(st.sampled_from([0, 0, 0, 0, 1, -1]),
                                min_size=size, max_size=size))
        return np.array(entries, dtype=float).reshape(rows, cols)

    D = block(p, m) if draw(st.integers(0, 2)) else np.zeros((p, m))
    return Quadruple(block(n, n), block(n, m), block(p, n), D)


class TestDualTwins:
    """The input-containing objects, computed as complements of their
    output-nulling twins on the dual quadruple, against their primal
    formulas on (A, B, C, D)."""

    @settings(max_examples=80, derandomize=True, deadline=None)
    @given(quadruples())
    def test_input_containing_objects_match_primal_formulas(self, q):
        S, seq = sstar(q, return_sequence=True)
        assert [s.dim for s in seq] == [s.dim for s in primal_sstar_sequence(q)]
        cert = friend(INPUT_CONTAINING, S, q)
        G = cert.F_or_G
        assert G.shape == (q.n, q.p)
        assert primal_injection_residual(G, S, q) <= 1e-8
        assert max_angle(reach_detect(INPUT_CONTAINING, S, cert, q),
                         primal_detectability(G, S, q)) <= 1e-8
        rep = spectral_report(S, INPUT_CONTAINING, q, cert=cert)
        internal, external, dims = primal_fixed_spectra(G, S, q)
        assert match_spectra(rep.internal_fixed, internal)
        assert match_spectra(rep.external_fixed, external)
        assert rep.assignable_dims == dims


class TestInvariantZeros:
    def test_hand_oracle_single_zero(self):
        # transfer function (1 - s)/s^2 has its only zero at +1
        q = Quadruple([[0, 1], [0, 0]], [[0], [1]], [[1, -1]], [[0]])
        z = invariant_zeros(q)
        assert match_spectra(z, [1.0])

    def test_square_invertible_feedthrough(self):
        # with D invertible the output-nulling input is unique and the zero
        # dynamics are A - B D^{-1} C on the whole space
        rng = np.random.default_rng(97)
        for _ in range(10):
            n, m = int(rng.integers(1, 5)), int(rng.integers(1, 3))
            A = rng.integers(-3, 4, size=(n, n)).astype(float)
            B = rng.integers(-3, 4, size=(n, m)).astype(float)
            C = rng.integers(-3, 4, size=(m, n)).astype(float)
            D = rng.integers(-3, 4, size=(m, m)).astype(float)
            if abs(np.linalg.det(D)) < 0.5:
                continue
            q = Quadruple(A, B, C, D)
            want = np.linalg.eigvals(A - B @ np.linalg.inv(D) @ C)
            assert match_spectra(invariant_zeros(q), want)

    def test_zeros_equal_dual_zeros(self):
        rng = np.random.default_rng(101)
        for _ in range(20):
            q = random_quadruple(rng)
            assert match_spectra(invariant_zeros(q), invariant_zeros(q.dual()))


class TestExtendedQuadrupleTheorems:
    def test_extension_inside_channel_preserves_vstar(self):
        # im [L1; L2] <= (V* + 0) + im [B; D] leaves V* unchanged
        rng = np.random.default_rng(103)
        for _ in range(20):
            q = random_quadruple(rng)
            V = vstar(q)
            k = 2
            L1 = V.basis @ rng.standard_normal((V.dim, k)) + q.B @ rng.standard_normal((q.m, k))
            L2 = q.D @ rng.standard_normal((q.m, k))
            # rebuild L2 consistently with the same B/D coefficients
            coeff_v = rng.standard_normal((V.dim, k))
            coeff_u = rng.standard_normal((q.m, k))
            L1 = V.basis @ coeff_v + q.B @ coeff_u
            L2 = q.D @ coeff_u
            ext = Quadruple(q.A, np.hstack([q.B, L1]), q.C, np.hstack([q.D, L2]))
            assert max_angle(vstar(ext), V) <= 1e-8

    def test_row_extension_caps_self_hidden_subspaces(self):
        # Q* of the row-extended quadruple is the largest self-hidden
        # subspace inside ker M
        rng = np.random.default_rng(107)
        tried = 0
        for _ in range(40):
            q = random_quadruple(rng)
            S = sstar(q)
            _, Q = rstar_qstar(q)
            w = rng.standard_normal(q.n)
            Mrow = (w - S.projector() @ w).reshape(1, -1)
            if np.linalg.norm(Mrow) < 1e-9:
                continue
            ext = Quadruple(q.A, q.B, np.vstack([q.C, Mrow]),
                            np.vstack([q.D, np.zeros((1, q.m))]))
            _, Q_ext = rstar_qstar(ext)
            # sampled self-hidden subspaces inside ker M must fit under Q_ext
            G = friend(INPUT_CONTAINING, S, q).F_or_G
            Acl = q.A + G @ q.C
            for _ in range(3):
                d = Q.basis @ rng.standard_normal((Q.dim, 1)) if Q.dim else None
                cand = S if d is None else combine(
                    "sum", S, invariant_hull("smallest_containing", Acl, span_of(d)))
                if not contains(Q, cand):
                    continue
                if input_containing_residual(cand, q) > 1e-8:
                    continue
                if np.linalg.norm(Mrow @ cand.basis) > 1e-8:
                    continue
                assert contains(Q_ext, cand)
                tried += 1
        assert tried >= 5
