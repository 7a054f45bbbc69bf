import hashlib
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geodd.audit import necessity_round_trip, simulate_impulse
from geodd.errors import (
    ContinuousNotSupported,
    DimensionMismatch,
    GeoddError,
    NotStabilizablePair,
    SampleTooCloseToPole,
)
from geodd.generate import InstanceSpec, generate_instance
from geodd.geometry import OUTPUT_NULLING, Quadruple, stabilizing_friend, vstar
from geodd.lattice import PlantSystem
from geodd.subspaces import StabilityRegion, Subspace
from geodd.synthesis import (
    Compensator,
    analysis_pair,
    analyze_p1,
    analyze_p2,
    close_loop,
    solve,
)
from geodd import verify
from geodd.verify import (
    ClosedLoop,
    certify_decoupled,
    default_lambdas,
    stability_check,
    transfer_samples,
)
from helpers import random_lambdas, reference_default_lambdas, reference_transfer_samples


def loop_from(A, H, C, G, domain="continuous"):
    A = np.atleast_2d(np.asarray(A, dtype=float))
    return ClosedLoop(A, np.atleast_2d(H), np.atleast_2d(C), np.atleast_2d(G),
                      np.eye(1), domain)


class TestCertificate:
    def test_dead_disturbance_channel(self):
        cl = loop_from(np.diag([1.0, 2.0]), np.zeros((2, 1)), [[1.0, 0.0]], [[0.0]])
        cert = certify_decoupled(cl)
        assert cert.invariant_subspace.is_trivial
        assert cert.valid
        bad = loop_from(np.diag([1.0, 2.0]), np.zeros((2, 1)), [[1.0, 0.0]], [[0.5]])
        assert not certify_decoupled(bad).valid

    def test_published_compensator_certifies(self, scalar_channel_plant):
        given = Compensator([[0, 0], [0, 0]], [[0], [10]], [[0, 3]], [[6]])
        cl = close_loop(scalar_channel_plant, given)
        cert = certify_decoupled(cl)
        assert cert.valid
        assert cert.residual_invariance <= 1e-10
        assert cert.residual_kernel <= 1e-10
        # it is not built on the star pair, so only the hull certifies it
        pair = analysis_pair(scalar_channel_plant, "p1")
        assert not certify_decoupled(cl, pair=pair).valid

    def test_pair_missing_disturbance_image_is_invalid(self):
        # W = span (1, 1) is A^-invariant (A^ = 0) and inside ker C^, but
        # im H^ = span (1, 0) leaves it: z = w / s is not decoupled
        cl = loop_from(np.zeros((2, 2)), [[1.0], [0.0]], [[1.0, -1.0]], [[0.0]])
        pair = (Subspace.full(1), Subspace.trivial(1))
        cert = certify_decoupled(cl, pair=pair)
        assert cert.invariant_subspace.dim == 1
        assert cert.residual_kernel <= 1e-15
        assert cert.residual_invariance > cert.tolerance
        assert not cert.valid
        assert not certify_decoupled(cl).valid

    def test_pair_needs_an_order_n_compensator(self):
        cl = loop_from(np.zeros((3, 3)), np.zeros((3, 1)), np.zeros((1, 3)), [[0.0]])
        with pytest.raises(DimensionMismatch):
            certify_decoupled(cl, pair=(Subspace.full(1), Subspace.trivial(1)))

    def test_scalar_channel_plant_is_structurally_decoupled(self, scalar_channel_plant):
        # this plant cannot reach its regulated state from u or w, so any
        # well-posed compensator leaves it decoupled, perturbed or not
        perturbed = Compensator([[0, 0], [0, 0]], [[0], [10]], [[0, 3]], [[6.1]])
        assert certify_decoupled(close_loop(scalar_channel_plant, perturbed)).valid

    def test_perturbed_feedthrough_breaks_certificate(self):
        sys = generate_instance(InstanceSpec(seed=1, n=4, m=2, q=1, p=2, r=1))
        comp, report = solve(sys, "p1")
        perturbed = Compensator(comp.A_c, comp.B_c, comp.C_c, comp.D_c + 0.1)
        for pair in (None, (report.V, report.S)):
            assert certify_decoupled(close_loop(sys, comp), pair=pair).valid
            cert = certify_decoupled(close_loop(sys, perturbed), pair=pair)
            assert not cert.valid
            assert cert.residual_kernel > cert.tolerance


class TestTransferSamples:
    def test_fixed_sample_points(self, scalar_channel_plant):
        given = Compensator([[0, 0], [0, 0]], [[0], [10]], [[0, 3]], [[6]])
        cl = close_loop(scalar_channel_plant, given)
        assert transfer_samples(cl, [1 + 1j, -2.0, 3j, 0.5]) <= 1e-10

    def test_certified_loop_small_on_seeded_samples(self, scalar_channel_plant):
        comp, _ = solve(scalar_channel_plant, "p1")
        cl = close_loop(scalar_channel_plant, comp)
        assert transfer_samples(cl, default_lambdas(cl)) <= 1e-8

    def test_pure_feedthrough_norm(self):
        M = np.array([[3.0, 0.0], [0.0, 1.0]])
        cl = loop_from(np.diag([-1.0, -2.0]), np.zeros((2, 2)),
                       np.zeros((2, 2)), M)
        got = transfer_samples(cl, [1.0 + 0.5j, -4.0])
        assert got == pytest.approx(np.linalg.norm(M, 2))

    def test_sample_near_pole_rejected(self):
        cl = loop_from([[2.0]], [[1.0]], [[1.0]], [[0.0]])
        with pytest.raises(SampleTooCloseToPole):
            transfer_samples(cl, [2.0 + 1e-9])


def _outcome(fn, cl, lambdas):
    """The float a sampler returns, or the type and message it raises."""
    try:
        return fn(cl, lambdas)
    except SampleTooCloseToPole as err:
        return ("raised", str(err))


@st.composite
def loops_and_samples(draw):
    """A random real loop (r = 0 and q = 0 included) and sample points:
    none, a few, or more than 64; some runs put points within 1e-9 of a
    pole, the first of them anywhere in the list."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 7))
    q = draw(st.sampled_from([0, 1, 1, 2, 3]))
    r = draw(st.sampled_from([0, 1, 2, 2, 3]))
    cl = loop_from(rng.standard_normal((n, n)), rng.standard_normal((n, q)),
                   rng.standard_normal((r, n)), rng.standard_normal((r, q)))
    count = draw(st.sampled_from([0, 1, 5, 20, 64, 135]))
    lambdas = random_lambdas(rng, cl, count)
    if count and draw(st.integers(0, 3)) == 0:
        poles = np.linalg.eigvals(cl.A_hat)
        for _ in range(draw(st.integers(1, 2))):
            at = draw(st.integers(0, count - 1))
            lambdas[at] = poles[draw(st.integers(0, n - 1))] + 1e-9
    return cl, lambdas


class TestBatchedSamples:
    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(loops_and_samples())
    def test_equals_the_per_point_loop(self, case):
        cl, lambdas = case
        assert (_outcome(transfer_samples, cl, lambdas)
                == _outcome(reference_transfer_samples, cl, lambdas))

    def test_first_offending_point_named_across_blocks(self):
        cl = loop_from(np.diag([-1.0, 2.0]), [[1.0], [1.0]], [[1.0, 1.0]], [[0.0]])
        lambdas = default_lambdas(cl, 192)
        lambdas[67] = 2.0 + 5e-7
        lambdas[129] = -1.0
        with pytest.raises(SampleTooCloseToPole, match=r"sample \(2\.0000005\+0j\)"):
            transfer_samples(cl, lambdas)
        assert (_outcome(transfer_samples, cl, lambdas)
                == _outcome(reference_transfer_samples, cl, lambdas))

    def test_spectrum_is_kept_read_only(self):
        cl = loop_from(np.diag([-1.0, -2.0]), [[1.0], [0.0]], [[0.0, 1.0]], [[0.0]])
        assert cl.spectrum is cl.spectrum
        assert not cl.spectrum.flags.writeable


def _numpy_samples(cl, lambdas) -> float:
    """The formula that `transfer_samples` evaluates, on numpy.linalg's
    wrappers: the resolvents of lambda * eye(n) - A^ in one stacked `solve`,
    then the largest singular value of each response by `svd`."""
    lams = np.array([complex(lam) for lam in lambdas], dtype=complex)
    n = cl.order
    resolvents = np.linalg.solve(lams[:, None, None] * np.eye(n) - cl.A_hat, cl.H_hat)
    G = cl.C_hat @ resolvents + cl.G_hat
    if not G[0].size:
        return 0.0
    norms = np.linalg.svd(G, compute_uv=False).max(axis=-1)
    return float(np.fmax.reduce(norms, initial=0.0))


def _real_points(cl, lambdas) -> list:
    """The real parts of `lambdas` that stay 1e-3 clear of the spectrum,
    and one real point beyond it."""
    poles = cl.spectrum
    reach = 2.0 * (1.0 + (float(np.max(np.abs(poles))) if poles.size else 0.0))
    points = [complex(lam.real) for lam in lambdas]
    return [lam for lam in points
            if not poles.size or np.min(np.abs(poles - lam)) >= 1e-3] + [complex(reach)]


def _same_float(a: float, b: float) -> bool:
    return type(a) is float and np.float64(a).tobytes() == np.float64(b).tobytes()


@st.composite
def sampled_loops(draw):
    """A random real loop, Gaussian, zero-heavy or integer, of order 0 to 8
    with q = 0 or r = 0 among its shapes, and complex or real sample points
    clear of its spectrum."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(0, 8))
    q = draw(st.sampled_from([0, 1, 1, 2, 3]))
    r = draw(st.sampled_from([0, 1, 2, 2, 3]))
    kind = draw(st.sampled_from(["gaussian", "zero-heavy", "integer"]))

    def matrix(rows, cols):
        if kind == "integer":
            return rng.integers(-2, 3, (rows, cols)).astype(float)
        M = rng.standard_normal((rows, cols))
        return M * (rng.random((rows, cols)) < 0.25) if kind == "zero-heavy" else M

    cl = ClosedLoop(matrix(n, n), matrix(n, q), matrix(r, n), matrix(r, q),
                    np.eye(1), draw(st.sampled_from(["continuous", "discrete"])))
    count = draw(st.sampled_from([1, 5, 20, 64, 131]))
    lambdas = random_lambdas(rng, cl, count)
    if draw(st.booleans()):
        lambdas = _real_points(cl, lambdas)
    return cl, lambdas


def _generated_loops(plants):
    """The p1 and p2 loops that `solve` builds on each plant it solves."""
    for plant in plants:
        for problem in ("p1", "p2"):
            try:
                comp, _ = solve(plant, problem)
            except GeoddError:
                continue
            yield close_loop(plant, comp)


class TestSamplerReference:
    """`transfer_samples` fills its stack in place and calls numpy.linalg's
    solve and svd gufuncs directly; it returns the float of numpy's formula,
    bit for bit."""

    def test_generated_loops(self, scalar_channel_plant, mismatched_plant):
        plants = [scalar_channel_plant, mismatched_plant]
        plants += [generate_instance(InstanceSpec(seed=seed, n=n, time_domain=domain))
                   for n, seeds in ((4, range(3)), (6, range(2)), (8, range(1)))
                   for seed in seeds for domain in ("continuous", "discrete")]
        loops = list(_generated_loops(plants))
        assert len(loops) >= 15
        for cl in loops:
            for lambdas in (default_lambdas(cl), _real_points(cl, default_lambdas(cl))):
                assert _same_float(transfer_samples(cl, lambdas),
                                   _numpy_samples(cl, lambdas))

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(sampled_loops())
    def test_random_loops(self, case):
        cl, lambdas = case
        assert _same_float(transfer_samples(cl, lambdas), _numpy_samples(cl, lambdas))

    def test_singular_point_raises_as_numpy_does(self):
        cl = loop_from(np.diag([1.0, 2.0]), [[1.0], [1.0]], [[1.0, 1.0]], [[0.0]])
        # a loop whose recorded spectrum misses its pole at 1 lets the point
        # 1 past the clearance check, onto a singular matrix
        missed = SimpleNamespace(order=2, A_hat=cl.A_hat, H_hat=cl.H_hat,
                                 C_hat=cl.C_hat, G_hat=cl.G_hat,
                                 spectrum=np.array([5.0, 6.0]))
        lambdas = [3.0 + 1j, 1.0, -1.0]
        for sampler in (transfer_samples, _numpy_samples):
            with pytest.raises(np.linalg.LinAlgError, match="^Singular matrix$"):
                sampler(missed, lambdas)
        # the clearance check comes first: with the loop's own spectrum, and
        # with a point of the block near a recorded pole
        with pytest.raises(SampleTooCloseToPole, match=r"sample \(1\+0j\)"):
            transfer_samples(cl, lambdas)
        with pytest.raises(SampleTooCloseToPole, match=r"sample \(5\.000000001\+0j\)"):
            transfer_samples(missed, lambdas + [5.0 + 1e-9])


class TestSamplerKernels:
    """`_stack_solve` and `_stack_singular_values` are numpy.linalg's solve
    and svd(compute_uv=False) on a complex stack, bit for bit, errors
    included."""

    @pytest.mark.parametrize("n, q, count", [(0, 1, 3), (1, 1, 1), (3, 2, 5), (8, 1, 20),
                                             (12, 3, 7), (40, 2, 4)])
    def test_equal_numpy_bit_for_bit(self, n, q, count):
        rng = np.random.default_rng(n * 100 + count)
        a = rng.standard_normal((count, n, n)) + 1j * rng.standard_normal((count, n, n))
        b = rng.standard_normal((n, q))
        x = verify._stack_solve(a, b)
        want = np.linalg.solve(a, b)
        assert x.dtype == want.dtype and x.shape == want.shape
        assert x.tobytes() == want.tobytes()
        for G in (x, rng.standard_normal((count, 3, 5)) + 0j):
            got = verify._stack_singular_values(G)
            ref = np.linalg.svd(G, compute_uv=False)
            assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()

    def test_singular_member_raises_as_numpy_does(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((4, 3, 3)) + 0j
        a[2] = [[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [0.0, 1.0, 1.0]]
        b = rng.standard_normal((3, 2))
        for solve in (verify._stack_solve, np.linalg.solve):
            with pytest.raises(np.linalg.LinAlgError, match="^Singular matrix$"):
                solve(a, b)
        # the kernel leaves numpy's error state as it found it
        with pytest.warns(RuntimeWarning):
            np.log(np.zeros(1))


def _bits(points):
    """The real and imaginary bits of each point, and its type."""
    return [(type(lam), np.array([lam]).view(np.uint64).tolist()) for lam in points]


def _spectrum(poles):
    # default_lambdas reads only the loop's spectrum
    return SimpleNamespace(spectrum=np.asarray(poles, dtype=complex))


class TestSamplePoints:
    @pytest.mark.parametrize("count", [0, 1, 2, 20, 65, 197])
    def test_empty_spectrum_equals_the_scalar_loop(self, count):
        cl = _spectrum([])
        expected = reference_default_lambdas(cl, count)
        assert _bits(default_lambdas(cl, count)) == _bits(expected)
        assert all(type(lam) is np.complex128 for lam in expected)
        assert np.abs(expected).round(12).tolist() == [2.0] * count

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(0, 9),
           st.sampled_from([1, 2, 20, 65, 135]))
    def test_random_spectra_equal_the_scalar_loop(self, state, n, count):
        rng = np.random.default_rng(state)
        scale = 10.0 ** rng.uniform(-3, 3)
        poles = scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        cl = _spectrum(poles)
        assert _bits(default_lambdas(cl, count)) == _bits(reference_default_lambdas(cl, count))

    @pytest.mark.parametrize("count", [1, 2, 20, 128])
    def test_points_clear_every_pole(self, count):
        # However dense the spectrum (a ring of 8000 poles on the unit
        # circle, 8e-4 apart), the circle of radius 2 max(1, rho) keeps
        # max(1, rho) from every pole.
        rng = np.random.default_rng(count)
        spectra = [np.exp(2j * np.pi * np.arange(8000) / 8000), [0.5, -0.25j], [-3.0, 1e3j]]
        spectra += [10.0 ** rng.uniform(-3, 3, n) * np.exp(2j * np.pi * rng.random(n))
                    for n in (1, 5, 40)]
        for poles in spectra:
            poles = np.asarray(poles, dtype=complex)
            reach = max(1.0, float(np.max(np.abs(poles))))
            lambdas = np.array(default_lambdas(_spectrum(poles), count))
            # up to the rounding of exp, which may put |lambda| an ulp below 2 reach
            assert np.abs(poles - lambdas[:, None]).min() >= reach * (1 - 1e-12)

    @pytest.mark.parametrize("count", [1, 2, 3, 20, 135])
    def test_no_point_is_real_or_conjugate_to_another(self, count):
        for poles in ([], [0.5, 2.0 + 1j, 2.0 - 1j]):
            lambdas = np.array(default_lambdas(_spectrum(poles), count))
            assert np.all(lambdas.imag != 0.0)
            gaps = np.abs(lambdas[:, None] - np.conj(lambdas))
            assert gaps.min() > 1e-3

    def test_no_count_gives_no_points(self):
        assert default_lambdas(_spectrum([1.0, -2.0]), 0) == []
        assert default_lambdas(_spectrum([]), 0) == []


class TestPairSubspace:
    def test_equals_the_qr_of_the_block_basis(self):
        rng = np.random.default_rng(37)
        for n in (1, 3, 6, 12, 24):
            for v, s in ((0, 0), (n, 0), (0, n), (n, n), (n // 2, n // 3)):
                V = Subspace(n, np.linalg.qr(rng.standard_normal((n, v)))[0])
                S = Subspace(n, np.linalg.qr(rng.standard_normal((n, s)))[0])
                want = np.linalg.qr(np.block([[V.basis, np.zeros((n, s))],
                                              [V.basis, -S.basis]]))[0]
                W = verify._pair_subspace(V, S)
                assert (W.ambient_dim, W.dim) == (2 * n, v + s)
                assert W.basis.tobytes() == want.tobytes()
                assert W.basis.flags.c_contiguous and not W.basis.flags.writeable


class TestStabilityCheck:
    def test_continuous(self):
        ok, _ = stability_check(-np.eye(2), StabilityRegion("continuous"))
        assert ok
        ok, eigs = stability_check(np.eye(2), StabilityRegion("continuous"))
        assert not ok and np.allclose(eigs, 1.0)

    def test_discrete(self):
        ok, _ = stability_check(np.diag([0.5, -0.5]), StabilityRegion("discrete"))
        assert ok
        ok, _ = stability_check(np.diag([0.5, 1.5]), StabilityRegion("discrete"))
        assert not ok

    @pytest.mark.parametrize("lam, inside", [(-1e-8, False), (-2e-8, True)])
    def test_guard_is_judged_one_way(self, lam, inside):
        # the loop-stability test and the fixed-spectrum test of a
        # stabilizing friend put an eigenvalue at the guard on the same side
        region = StabilityRegion("continuous")
        assert stability_check([[lam]], region)[0] is inside
        assert (not region.outside([lam])) is inside
        # the one mode of (A, B) is uncontrollable: a fixed spectrum
        q = Quadruple([[lam]], [[0.0]], [[0.0]], [[0.0]])
        if inside:
            assert stabilizing_friend(vstar(q), OUTPUT_NULLING, q, region).residual == 0.0
        else:
            with pytest.raises(NotStabilizablePair):
                stabilizing_friend(vstar(q), OUTPUT_NULLING, q, region)


class TestImpulseSimulation:
    def test_continuous_loop_rejected(self, scalar_channel_plant):
        comp, _ = solve(scalar_channel_plant, "p1")
        cl = close_loop(scalar_channel_plant, comp)
        with pytest.raises(ContinuousNotSupported):
            simulate_impulse(cl)

    def test_dead_channel_identically_zero(self):
        cl = loop_from(np.diag([0.5, 0.25]), np.zeros((2, 1)),
                       [[1.0, 1.0]], [[0.0]], domain="discrete")
        assert simulate_impulse(cl) == 0.0

    def test_certified_discrete_loop_silent(self):
        sys = generate_instance(
            InstanceSpec(seed=1, n=4, m=2, q=1, p=2, r=1, time_domain="discrete"))
        rep = analyze_p2(sys)
        assert rep.solvable
        comp, _ = solve(sys, "p2")
        cl = close_loop(sys, comp)
        peak = simulate_impulse(cl, steps=50)
        assert peak <= 1e-8
        # the frequency-domain verdict agrees
        assert transfer_samples(cl, default_lambdas(cl)) <= 1e-8

    def test_coupled_loop_not_silent(self):
        cl = loop_from([[0.5]], [[1.0]], [[1.0]], [[0.0]], domain="discrete")
        assert simulate_impulse(cl) > 0.1


class TestNecessityRoundTrip:
    def test_scalar_channel_loop(self, scalar_channel_plant):
        comp, _ = solve(scalar_channel_plant, "p1")
        cl = close_loop(scalar_channel_plant, comp)
        trip = necessity_round_trip(scalar_channel_plant, cl)
        assert trip["certificate"].valid
        assert trip["output_nulling_residual"] <= 1e-8
        assert trip["input_containing_residual"] <= 1e-8
        assert trip["a"][0] and trip["b"][0]
        assert trip["S_in_V_residual"] <= 1e-8

    def test_published_compensator_loop(self, scalar_channel_plant):
        given = Compensator([[0, 0], [0, 0]], [[0], [10]], [[0, 3]], [[6]])
        trip = necessity_round_trip(scalar_channel_plant, close_loop(scalar_channel_plant, given))
        assert trip["a"][0] and trip["b"][0]
        assert trip["S_in_V_residual"] <= 1e-8


class TestGenerator:
    def test_deterministic(self):
        spec = InstanceSpec(seed=42, n=4, m=2, q=1, p=2, r=1)
        s1 = generate_instance(spec)
        s2 = generate_instance(spec)
        for name in ("A", "B", "H", "C", "D_y", "G_y", "E", "D_z", "G_z"):
            assert np.array_equal(getattr(s1, name), getattr(s2, name))

    def test_construction_guarantees_subspace_conditions(self):
        for seed in range(30):
            sys = generate_instance(InstanceSpec(seed=seed, n=4, m=2, q=1, p=2, r=1))
            rep = analyze_p1(sys)
            for label in ("i", "ii", "iii"):
                assert rep.condition(label).passed, (seed, label)

    def test_unconstrained_mode_smoke(self):
        sys = generate_instance(
            InstanceSpec(seed=5, n=3, m=2, q=1, p=2, r=1,
                         solvable_by_construction=False))
        analyze_p1(sys)  # any verdict is acceptable

    def test_integer_entries(self):
        sys = generate_instance(InstanceSpec(seed=9, n=4, m=2, q=1, p=2, r=1))
        for name in ("A", "B", "H", "C", "D_y", "G_y", "E", "D_z", "G_z"):
            M = getattr(sys, name)
            assert np.array_equal(M, np.round(M))

    # sha256 of each generated plant, recorded before the exact twin ran on
    # integer spans. The generator builds H from
    # `clear_denominators(vstar_span(...))`, so a change in which columns
    # that span returns would change every corpus without any error.
    DIGESTS = {
        (4, "continuous", 0): "c5cdc7040b86d3daee60bc7c15e78f68abb5220c193be8b4bc8f6189b4cbc4a3",
        (4, "continuous", 1): "2a4b496b49894093ade62fb28834ec21ed109bf886551145dbaf6d07a3622665",
        (4, "continuous", 2): "89d920ab090891bfdf7f9fe1e3b342f9e6527918a9fdd830d242da3405d35beb",
        (4, "discrete", 0): "bb9719c4dcf71b01a10caab888fb3fea034760cd77b48905715a839cadbd57db",
        (4, "discrete", 1): "bf6d86411eccdd7fa1813c199e800bb6fbe8e42c7e79e62ffd75ae21b256ed7b",
        (4, "discrete", 2): "cc0dfea67b63eba4d3556dffa04e8b5d0a045f10c2ba17afe6e4bfc017013eb2",
        (8, "continuous", 0): "2bf227221497094abfe360cb1bea8b1ed7b36285604535858d3aea12bd464185",
        (8, "continuous", 1): "c2fd5008982f91c8299717d3fe8935c4abd37761274ccbc82c0108f782c35ee1",
        (8, "continuous", 2): "8c408bc9bc214a35e0e708a37404341742bf3aea112623b252e5248033201bb6",
        (8, "discrete", 0): "288afc3eeb25d0047bc5977ddf1adf4ff298ffde149dc0800c615beb03f271f1",
        (8, "discrete", 1): "81f96e5671a1919f85aa5eba0a5cdc86269d6468cd5018a9567c2741f8bd3ffd",
        (8, "discrete", 2): "49d89fdd1932797eabda0ca2fcb2a93e727d91919ccd10f9f332e8333151d74d",
    }

    @pytest.mark.parametrize("n,domain,seed", sorted(DIGESTS))
    def test_generated_plants_are_pinned(self, n, domain, seed):
        plant = generate_instance(InstanceSpec(seed=seed, n=n, time_domain=domain))
        digest = hashlib.sha256(plant.time_domain.encode())
        for name in ("A", "B", "H", "C", "D_y", "G_y", "E", "D_z", "G_z"):
            M = np.ascontiguousarray(getattr(plant, name), dtype=float)
            digest.update(repr(M.shape).encode())
            digest.update(M.tobytes())
        assert digest.hexdigest() == self.DIGESTS[n, domain, seed]
