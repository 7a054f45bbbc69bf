import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.linalg import eigvals

from geodd import InstanceSpec, exact, generate_instance, geometry, solve, subspaces
from geodd.errors import (
    BoundarySpectrum,
    FixedSpectrumOutsideRegion,
    GeoddError,
    NotInvariant,
    NotStabilizablePair,
)
from geodd.geometry import (
    INPUT_CONTAINING,
    KEEP_MARGIN,
    OUTPUT_NULLING,
    SHIFT,
    Quadruple,
    _nulling_system,
    _stabilizing_gain,
    friend,
    friend_residual,
    input_containing_residual,
    invariant_zeros,
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
from geodd.lattice import PlantSystem, vm_sM
from geodd.subspaces import (
    DEFAULT_TOL,
    StabilityRegion,
    Subspace,
    ToleranceProfile,
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
    image_under,
    match_spectra,
    max_angle,
    primal_detectability,
    primal_fixed_spectra,
    primal_injection_residual,
    primal_sstar_sequence,
    quad_to_exact,
    random_quadruple,
    rational_as_subspace,
    reference_friend,
    reference_nulling_residual,
    reference_stabilizing_gain,
    reference_vstar,
)

CONT = StabilityRegion("continuous")
DISC = StabilityRegion("discrete")


def exact_vstar_subspace(q):
    return rational_as_subspace(exact.vstar_span(*quad_to_exact(q)), q.n)


def exact_sstar_subspace(q):
    return rational_as_subspace(exact.sstar_span(*quad_to_exact(q)), q.n)


@st.composite
def integer_quadruples(draw):
    """Integer quadruples with n = 2-8 and entries in [-3, 3]; D is zero in
    half of them."""
    n, m, p = draw(st.integers(2, 8)), draw(st.integers(1, 3)), draw(st.integers(1, 3))

    def block(rows, cols):
        size = rows * cols
        entries = draw(st.lists(st.integers(-3, 3), min_size=size, max_size=size))
        return np.array(entries, dtype=float).reshape(rows, cols)

    D = block(p, m) if draw(st.booleans()) else np.zeros((p, m))
    return Quadruple(block(n, n), block(n, m), block(p, n), D)


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

    @pytest.mark.parametrize("fn", [vstar, sstar])
    def test_recursion_stops_at_dimension_zero(self, monkeypatch, fn):
        # more outputs than inputs: V* = 0, and S* = X on the dual. Once an
        # iterate V_k (of the dual, for sstar) is 0, its successor is 0
        # too (V_{k+1} <= V_k), appended without a step: the SVDs are the
        # norm of [A; C], the span of [B; D] and two per step up to V_k
        rng = np.random.default_rng(5)
        for _ in range(20):
            q = random_quadruple(rng, n=int(rng.integers(2, 7)), m=1, p=3)
            if fn is sstar:
                q = q.dual()
            calls = count_calls(monkeypatch, "_gesdd", subspaces)
            X, seq = fn(q, return_sequence=True)
            monkeypatch.undo()
            dims = [S.dim for S in seq]
            k = dims.index(0 if fn is vstar else q.n)
            assert X.dim == dims[k] and len(seq) == k + 2 and dims[-1] == dims[-2]
            assert len(calls) == 2 + 2 * k

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

    @pytest.mark.parametrize("case", ["p=0", "m=0", "BD=0", "CD=0"])
    def test_empty_and_zero_channels(self, case):
        # V* is the largest A-invariant subspace in ker C when no input acts,
        # S* the reachable subspace of (A, B) when no output constrains it.
        A = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, -2.0, 3.0]])
        B = np.array([[0.0, 1.0], [0.0, 0.0], [1.0, 0.0]])
        C = np.array([[1.0, 0.0, 0.0]])
        D = np.array([[0.0, 1.0]])
        n, m, p = 3, 2, 1
        if case == "p=0":
            C, D = np.zeros((0, n)), np.zeros((0, m))
        elif case == "m=0":
            B, D = np.zeros((n, 0)), np.zeros((p, 0))
        elif case == "BD=0":
            B, D = np.zeros((n, m)), np.zeros((p, m))
        else:
            C, D = np.zeros((p, n)), np.zeros((p, m))
        q = Quadruple(A, B, C, D)
        if case in ("m=0", "BD=0"):
            want_v = invariant_hull("largest_contained", A, kernel_of(C))
            want_s = Subspace.trivial(n)
        else:
            want_v = Subspace.full(n)
            want_s = invariant_hull("smallest_containing", A, span_of(B))
        for fn, want, start in ((vstar, want_v, n), (sstar, want_s, 0)):
            X, seq = fn(q, return_sequence=True)
            assert equal(fn(q), X) and X is seq[-1]
            assert seq[0].dim == start and seq[-1].dim == seq[-2].dim
            assert equal(X, want)

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(integer_quadruples())
    def test_complement_recursion_matches_preimage_reference(self, q):
        # step by step, V_k against the preimage recursion on q, and S_k
        # against the complements of its iterates on the dual
        for (_, got), want in ((vstar(q, return_sequence=True), reference_vstar(q)),
                               (sstar(q, return_sequence=True),
                                [complement(V) for V in reference_vstar(q.dual())])):
            assert [S.dim for S in got] == [S.dim for S in want]
            assert all(equal(a, b) for a, b in zip(got, want))

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


class TestNullingSystem:
    """One SVD of M = [(I - P_V) B; D] answers every output-nulling question:
    the residual, the friend and Uv, checked against the target-form
    residual and the joint least-squares friend it replaced."""

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(integer_quadruples(), st.integers(0, 8))
    def test_residual_matches_target_form(self, q, k):
        MT = np.vstack([q.A, q.C])
        scale = 1.0 + np.linalg.norm(MT, 2)
        # output nulling, and (on most draws) not output nulling
        for V in (vstar(q), rstar_qstar(q)[0], Subspace(q.n, np.eye(q.n)[:, :min(k, q.n)])):
            got = output_nulling_residual(V, q)
            want = reference_nulling_residual(V, q, MT @ V.basis)
            assert abs(got - want) <= 1e-11 * scale
            assert (got <= DEFAULT_TOL.residual) == (want <= DEFAULT_TOL.residual)

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(integer_quadruples(), st.integers(0, 2**32 - 1))
    def test_friend_is_the_minimum_norm_one_of_the_subspace(self, q, seed):
        V = vstar(q)
        assume(not V.is_trivial)
        F = friend(OUTPUT_NULLING, V, q).F_or_G
        size = 1.0 + np.linalg.norm(F, 2)
        # it vanishes on V^perp and does not depend on V's basis
        assert np.linalg.norm(F @ complement(V).basis, 2) <= 1e-12 * size
        Q = np.linalg.qr(np.random.default_rng(seed).standard_normal((V.dim, V.dim)))[0]
        turned = friend(OUTPUT_NULLING, Subspace(q.n, V.basis @ Q), q).F_or_G
        assert np.linalg.norm(turned - F, 2) <= 1e-9 * size
        # the least-squares friend solves the same system, with more norm
        ref = np.linalg.norm(reference_friend(V, q), 2)
        assert np.linalg.norm(F, 2) <= ref * (1 + 1e-9) + 1e-12

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(integer_quadruples())
    def test_uv_is_the_kernel_of_the_projected_inputs(self, q):
        V = vstar(q)
        _, Uv, _ = _nulling_system(V, q, np.zeros((q.n + q.p, 0)), DEFAULT_TOL)
        M = np.vstack([(np.eye(q.n) - V.projector()) @ q.B, q.D])
        want = kernel_of(M, scale=np.linalg.norm(np.vstack([q.B, q.D]), 2))
        assert equal(Subspace(q.m, Uv), want)

    def test_no_inputs(self):
        # m = 0: the friend is empty, Uv too, and the residual of X is the
        # distance of [A; C] from X x 0, i.e. ||C||
        A = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, -2.0, 3.0]])
        C = np.array([[1.0, 1.0, 0.0]])
        q = Quadruple(A, np.zeros((3, 0)), C, np.zeros((1, 0)))
        cert = friend(OUTPUT_NULLING, vstar(q), q)
        assert cert.F_or_G.shape == (0, 3) and cert.residual <= 1e-12
        W, Uv, r = _nulling_system(Subspace.full(3), q, np.vstack([A, C]), DEFAULT_TOL)
        assert W.shape == (0, 3) and Uv.shape == (0, 0)
        assert r == pytest.approx(np.linalg.norm(C, 2), rel=1e-12)

    def test_trivial_subspace(self):
        # V = 0: a zero friend, a zero residual, and Uv = ker [B; D]
        B, D = np.array([[1.0, 0.0], [0.0, 0.0]]), np.array([[1.0, 0.0]])
        q = Quadruple(np.diag([1.0, 2.0]), B, np.eye(2)[:1], D)
        V = Subspace.trivial(2)
        assert output_nulling_residual(V, q) == 0.0
        assert not friend(OUTPUT_NULLING, V, q).F_or_G.any()
        _, Uv, _ = _nulling_system(V, q, np.zeros((3, 0)), DEFAULT_TOL)
        assert equal(Subspace(2, Uv), kernel_of(np.vstack([B, D])))

    def test_whole_space(self):
        # V = X with D invertible: the one friend is -D^{-1} C, and no input
        # keeps X while nulling the output
        A = np.array([[1.0, 2.0], [0.0, -1.0]])
        C, D = np.array([[1.0, 0.0], [2.0, 3.0]]), np.array([[2.0, 1.0], [1.0, 1.0]])
        q = Quadruple(A, np.eye(2), C, D)
        V = Subspace.full(2)
        assert output_nulling_residual(V, q) <= 1e-14
        cert = friend(OUTPUT_NULLING, V, q)
        assert np.allclose(cert.F_or_G, -np.linalg.solve(D, C), rtol=0, atol=1e-13)
        _, Uv, _ = _nulling_system(V, q, np.zeros((4, 0)), DEFAULT_TOL)
        assert Uv.shape == (2, 0)


def _bits(*arrays):
    return [(M.shape, M.tobytes()) for M in arrays]


class TestKeptFactorizations:
    """A subspace keeps its complement per tolerance profile, and the
    factorization of its nulling system per quadruple and profile. Nothing
    it keeps is read for another quadruple or profile, and a quadruple that
    a caller builds holds copies, so it is kept like a plant's."""

    def test_never_read_for_another_quadruple_or_profile(self):
        rng = np.random.default_rng(17)
        plants = [generate_instance(InstanceSpec(seed=seed, n=5,
                                                 solvable_by_construction=False))
                  for seed in (1, 2)]
        quads = [q for plant in plants
                 for q in (plant.control_quadruple(), plant.observation_quadruple().dual())]
        # the second profile cuts more singular values of M
        tols = [DEFAULT_TOL, ToleranceProfile(rank_rel=0.05)]
        kept = [Subspace(5, np.linalg.qr(rng.standard_normal((5, k)))[0]) for k in (0, 2, 3, 5)]
        seen = set()
        # the second round reads what the first kept
        for _ in range(2):
            for q in quads:
                N = rng.standard_normal((q.n + q.p, 3))
                for tol in tols:
                    for V in kept:
                        fresh = Subspace(5, V.basis)
                        got = _nulling_system(V, q, N, tol)
                        assert _bits(*got[:2]) == _bits(*_nulling_system(fresh, q, N, tol)[:2])
                        assert got[2] == _nulling_system(fresh, q, N, tol)[2]
                        seen.add((V.dim, got[0].tobytes()))
                        assert complement(V, tol) is complement(V, tol)
                        assert _bits(complement(V, tol).basis) == _bits(complement(fresh, tol).basis)
                        assert input_containing_residual(V, q.dual(), tol) == \
                            input_containing_residual(fresh, q.dual(), tol)
        # the quadruples and profiles give different systems, so a reused
        # factorization would have shown
        assert len(seen) > 2 * len(quads) * len(tols)

    def test_caller_quadruple_is_kept(self, monkeypatch):
        rng = np.random.default_rng(11)
        A, B, C, D = (rng.integers(-3, 4, size=shape).astype(float)
                      for shape in ((4, 4), (4, 2), (2, 4), (2, 2)))
        q = Quadruple(A, B, C, D)
        # the quadruple and its dual hold read-only copies; the caller's
        # arrays stay writable
        d = q.dual()
        assert all(M.flags.writeable for M in (A, B, C, D))
        assert not any(M.flags.writeable for M in (q.A, q.B, q.C, q.D, d.A, d.B, d.C, d.D))
        V, S = (Subspace(4, np.linalg.qr(rng.standard_normal((4, k)))[0]) for k in (2, 3))

        N = rng.standard_normal((6, 2))

        def results(V, S, q):
            return (output_nulling_residual(V, q), input_containing_residual(S, q),
                    _nulling_system(V, q, N, DEFAULT_TOL)[0].tobytes())

        before = results(V, S, q)
        B += rng.integers(-3, 4, size=B.shape)
        # a write into the caller's array changes no result, kept or fresh
        assert results(V, S, q) == before
        assert results(Subspace(4, V.basis), Subspace(4, S.basis), q) == before
        # a quadruple on the written array gives other results, so a write
        # that reached q would have shown
        after = results(Subspace(4, V.basis), Subspace(4, S.basis), Quadruple(A, B, C, D))
        assert all(x != y for x, y in zip(after, before))
        # the factorization is kept on V for q: a second nulling system takes
        # one dgesdd, the norm of its residual, and no factors
        calls = count_calls(monkeypatch, "_gesdd", subspaces)
        fresh = Subspace(4, V.basis)
        _nulling_system(fresh, q, N, DEFAULT_TOL)
        first = len(calls)
        _nulling_system(fresh, q, N, DEFAULT_TOL)
        assert first > 1 and [args[1] for args in calls[first:]] == [0]


class TestReachDetect:
    def test_plain_reachable_subspace(self):
        A = np.array([[0.0, 1.0], [0.0, 0.0]])
        B = np.eye(2)
        q = Quadruple(A, B, np.zeros((1, 2)), np.zeros((1, 2)))
        cert = friend(OUTPUT_NULLING, Subspace.full(2), q)
        got = reach_detect(OUTPUT_NULLING, Subspace.full(2), cert, q)
        assert equal(got, invariant_hull("smallest_containing", A, span_of(B)))

    def test_given_friend_is_the_only_one_built(self, monkeypatch):
        # the nulling system alone gives Uv and the nulling check; only the
        # certificate's friend is checked to fit
        q = random_quadruple(np.random.default_rng(53))
        V = vstar(q)
        cert = friend(OUTPUT_NULLING, V, q)
        fits = count_calls(monkeypatch, "friend_residual", geometry)
        friends = count_calls(monkeypatch, "_twin_friend", geometry)
        got = reach_detect(OUTPUT_NULLING, V, cert, q)
        assert not friends and len(fits) == 1 and fits[0][0] is cert.F_or_G
        assert max_angle(got, rstar_qstar(q)[0]) <= 1e-8

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

    @pytest.mark.parametrize("kind, X, message", [
        ("bounded", Subspace.full(2), "subspace is not output nulling"),
        ("hidden", Subspace.trivial(2), "subspace is not input containing"),
    ])
    def test_non_nulling_subspace_rejected(self, kind, X, message):
        # C x != 0 on X = R^2, and B ker D = span(e2) is not in X = 0
        q = Quadruple([[0, 1], [0, 0]], [[0], [1]], [[1, 0]], [[0]])
        with pytest.raises(NotInvariant, match=f"^{message}$") as err:
            self_predicate(kind, X, q)
        assert err.value.residual > 0

    def test_no_friend_is_built(self, monkeypatch):
        # the nulling check alone decides that the subspace qualifies
        fits = count_calls(monkeypatch, "friend_residual", geometry)
        friends = count_calls(monkeypatch, "_twin_friend", geometry)
        rng = np.random.default_rng(61)
        for _ in range(5):
            q = random_quadruple(rng)
            assert self_predicate("bounded", vstar(q), q)
            assert self_predicate("hidden", sstar(q), q)
        assert not fits and not friends

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
        # The friend that keeps V leaves the mode at 3, unstable in both
        # domains; the mirror-image gain moves it to -3 - 2 SHIFT
        # (continuous) or to (1 - SHIFT)^2 / 3 (discrete).
        q = Quadruple([[3.0]], [[1.0]], np.zeros((1, 1)), np.zeros((1, 1)))
        cert = stabilizing_friend(Subspace.full(1), OUTPUT_NULLING, q, region)
        lam = np.linalg.eigvals(q.A + q.B @ cert.F_or_G)
        assert lam == pytest.approx(_mirrored(np.array([3.0]), region), abs=1e-12)

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
        # dimension 3. The pair check computes no gain on the whole pair:
        # the gains are the internal one on V* and the external one on the
        # 1-dimensional quotient X / V*.
        plant = generate_instance(InstanceSpec(seed=7, n=4))
        q = plant.control_quadruple()
        V = vstar(q)
        calls = count_calls(monkeypatch, "_stabilizing_gain", geometry)
        cert = stabilizing_friend(V, OUTPUT_NULLING, q, CONT)
        assert V.dim == 3
        assert [args[0].shape[0] for args in calls] == [3, 1]
        eigs = np.linalg.eigvals(q.A + q.B @ cert.F_or_G)
        assert max(e.real for e in eigs) < 0


def _mirrored(ol, region):
    """Where the mirror-image gain sends each open-loop mode of a block: the
    kept ones stay, the rest land on their mirror images."""
    keep = np.array([region.boundary_distance(l) > KEEP_MARGIN for l in ol])
    if region.kind == "continuous":
        moved = -np.conj(ol) - 2 * SHIFT
    else:
        moved = (1 - SHIFT) ** 2 / np.conj(ol)
    return np.where(keep, ol, moved)


def _gain_blocks(seed, count):
    """`count` random blocks (A, B) of 1..8 states and 1..3 inputs."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        k, m = int(rng.integers(1, 9)), int(rng.integers(1, 4))
        yield rng.standard_normal((k, k)), rng.standard_normal((k, m))


REGIONS = pytest.mark.parametrize("region", [CONT, DISC], ids=["continuous", "discrete"])


@pytest.fixture(scope="module")
def ladder_gains():
    """Every `_stabilizing_gain` call that moves modes in the p2 solves of
    a generated ladder (n = 4..12, m = p = 2, q = r = 1, seeds 0-5), by
    domain: (A, B, T1, region, F, (M, N, C, X)), the arguments, the gain,
    and the arguments and solution X = Y / scale of its one
    `geometry.dtrsyl` call."""
    records = {"continuous": [], "discrete": []}
    solves = []
    solver, kernel = geometry.dtrsyl, geometry._stabilizing_gain

    def dtrsyl(M, N, C, *flags):
        C0 = C.copy()  # dtrsyl writes Y over C
        Y, scale, info = solver(M, N, C, *flags)
        solves.append((M.copy(), N.copy(), C0, Y / scale))
        return Y, scale, info

    def gain(A, B, T1, region):
        start = len(solves)
        F = kernel(A, B, T1, region)
        assert len(solves) - start in (0, 1)
        if len(solves) > start:
            records[region.kind].append((A, B, T1, region, F, solves[start]))
        return F

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(geometry, "dtrsyl", dtrsyl)
        patch.setattr(geometry, "_stabilizing_gain", gain)
        for domain in records:
            for n in (4, 6, 8, 10, 12):
                for seed in range(6):
                    plant = generate_instance(InstanceSpec(
                        seed=seed, n=n, m=2, q=1, p=2, r=1, time_domain=domain))
                    try:
                        solve(plant, "p2")
                    except GeoddError:
                        pass
    return records


class TestStabilizingGain:
    """`_stabilizing_gain`, the Schur-deflated mirror-image gain."""

    @REGIONS
    def test_moved_modes_land_on_mirror_images(self, region):
        moved = 0
        for A, B in _gain_blocks(11, 100):
            ol = np.linalg.eigvals(A)
            F = _stabilizing_gain(A, B, np.eye(len(A)), region)
            if all(region.boundary_distance(l) > KEEP_MARGIN for l in ol):
                assert not F.any()
                continue
            want = _mirrored(ol, region)
            assert match_spectra(np.linalg.eigvals(A + B @ F), want,
                                 1e-6 * (1 + np.abs(want).max()))
            moved += 1
        assert moved >= 50

    @pytest.mark.parametrize("region, diag", [
        (CONT, [-1.0, -0.03, -0.03, -0.02, -2e-6]),
        (DISC, [0.2, 0.96, 0.96, -0.98, 1 - 2e-6]),
    ], ids=["continuous", "discrete"])
    def test_modes_just_inside_the_region_are_mirrored(self, region, diag):
        # one kept mode, and four stable modes no more than KEEP_MARGIN
        # inside the region, a complex pair among them and the last 2e-6
        # inside: all four are mirrored
        rng = np.random.default_rng(5)
        A = np.triu(rng.standard_normal((5, 5)))
        np.fill_diagonal(A, diag)
        A[2, 1], A[1, 2] = -0.01, 0.01
        ol = np.linalg.eigvals(A)
        assert [1e-6 < region.boundary_distance(l) <= KEEP_MARGIN for l in ol].count(True) == 4
        B = rng.standard_normal((5, 2))
        F = _stabilizing_gain(A, B, np.eye(5), region)
        assert F.any()
        assert match_spectra(np.linalg.eigvals(A + B @ F), _mirrored(ol, region), 1e-6)

    @pytest.mark.parametrize("region, diag", [
        (CONT, [-1.0, -1.0, -0.5, 0.3, 1.0, -0.01]),
        (DISC, [0.2, 0.2, 0.9, 1.5, -1.2, 0.97]),
    ], ids=["continuous", "discrete"])
    def test_kept_modes_stay_bit_for_bit(self, region, diag):
        # A block in real Schur form with its kept modes in front, a complex
        # pair among them, is its own sorted Schur form: the gain vanishes
        # on the kept coordinates, so A + B F keeps their columns, and with
        # them the kept modes, bit for bit.
        rng = np.random.default_rng(3)
        A = np.triu(rng.standard_normal((6, 6)))
        np.fill_diagonal(A, diag)
        A[1, 0], A[0, 1] = -0.25, 1.0
        ol = np.linalg.eigvals(A)
        B = rng.standard_normal((6, 2))
        F = _stabilizing_gain(A, B, np.eye(6), region)
        kept = 3
        assert [region.boundary_distance(l) > KEEP_MARGIN for l in ol].count(True) == kept
        assert not F[:, :kept].any()
        closed = A + B @ F
        assert closed[:, :kept].tobytes() == A[:, :kept].tobytes()
        assert match_spectra(np.linalg.eigvals(closed), _mirrored(ol, region), 1e-9)

    def test_lyapunov_solution_is_positive_definite_on_every_ladder_block(
            self, ladder_gains):
        for X_all in ([solve[3] for *_, solve in records]
                      for records in ladder_gains.values()):
            assert len(X_all) >= 40
            for X in X_all:
                assert np.linalg.eigvalsh((X + X.T) / 2)[0] > 0
                assert np.abs(X - X.T).max() <= 1e-12 * np.abs(X).max()

    def test_lyapunov_solution_solves_its_equation(self, ladder_gains):
        # relative residuals of at most 10 eps (at most 0.75 eps was
        # measured on the benchmark corpora's blocks): M X + X M^T = C in
        # continuous time, and in discrete time both the Sylvester form
        # (-rho^2 T22^-1) X + X T22^T = C that dtrsyl solves and the Stein
        # equation T22 X T22^T - rho^2 X = T22 C = B2 B2^T it stands for
        bound = 10 * np.finfo(float).eps
        norm = np.linalg.norm
        rho2 = (1.0 - SHIFT) ** 2
        for domain, records in ladder_gains.items():
            for *_, (M, N, C, X) in records:
                sylvester = M @ X + X @ N.T - C
                assert norm(sylvester) <= bound * ((norm(M) + norm(N)) * norm(X) + norm(C))
                if domain == "continuous":
                    assert M.tobytes() == N.tobytes()
                else:
                    stein = N @ X @ N.T - rho2 * X - N @ C
                    assert norm(stein) <= bound * ((norm(N) ** 2 + rho2) * norm(X)
                                                   + norm(N) * norm(C))

    def test_gains_equal_the_scipy_reference(self, ladder_gains):
        # Continuous time: scipy's second Schur form of T22 + SHIFT I is
        # that matrix with Z = I, so the same dtrsyl call gives the same
        # bits. Discrete time: the reference solves the same Stein equation
        # by its Kronecker system. scipy's own two Stein solvers ("direct"
        # and "bilinear") differ by up to 5.0 cond(X) eps, relative to the
        # largest gain entry, on the discrete blocks of the benchmark
        # corpora and of p2 plants at n = 16-24; the bound is twice that.
        eps = np.finfo(float).eps
        for A, B, T1, region, F, _ in ladder_gains["continuous"]:
            assert F.tobytes() == reference_stabilizing_gain(A, B, T1, region).tobytes()
        for A, B, T1, region, F, (*_, X) in ladder_gains["discrete"]:
            R = reference_stabilizing_gain(A, B, T1, region)
            assert np.abs(F - R).max() <= 10 * np.linalg.cond(X) * eps * np.abs(R).max()

    def test_singular_sylvester_equation_raises(self, monkeypatch):
        # dtrsyl's info 1: the equation was perturbed to be solved
        def perturbed(M, N, C, *flags):
            return C, 1.0, 1
        monkeypatch.setattr(geometry, "dtrsyl", perturbed)
        for region in (CONT, DISC):
            with pytest.raises(np.linalg.LinAlgError, match="dtrsyl info 1"):
                _stabilizing_gain(np.diag([2.0, -3.0]), np.ones((2, 1)), np.eye(2), region)

    def test_solution_is_divided_by_the_scale(self, monkeypatch):
        # dtrsyl solves M Y + Y N^T = scale C; a scale below 1 (taken
        # against overflow) gives X = Y / scale, and with it the same gain
        solver = geometry.dtrsyl

        def scaled(M, N, C, *flags):
            Y, scale, info = solver(M, N, C, *flags)
            return Y * 0.25, scale * 0.25, info
        A, B = np.diag([2.0, -3.0, 1.5]), np.ones((3, 2))
        for region in (CONT, DISC):
            want = _stabilizing_gain(A, B, np.eye(3), region)
            with monkeypatch.context() as patch:
                patch.setattr(geometry, "dtrsyl", scaled)
                got = _stabilizing_gain(A, B, np.eye(3), region)
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @REGIONS
    def test_gain_is_covariant_under_similarity(self, region):
        # the gain of (S^-1 A S, S^-1 B) is F S, for S of condition <= 4
        rng = np.random.default_rng(17)
        for A, B in _gain_blocks(13, 60):
            k = len(A)
            U, V = (np.linalg.qr(rng.standard_normal((k, k)))[0] for _ in range(2))
            S = U @ np.diag(rng.uniform(0.5, 2.0, k)) @ V.T
            S_inv = np.linalg.inv(S)
            F = _stabilizing_gain(A, B, np.eye(k), region)
            FS = _stabilizing_gain(S_inv @ A @ S, S_inv @ B, np.eye(k), region)
            assert np.abs(FS - F @ S).max() <= 1e-8 * (1 + np.abs(F).max())


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
        checked = 0
        for _ in range(25):
            q = random_quadruple(rng)
            try:
                Vg = vstar_g(q, CONT)
                Sg = sstar_g(q, CONT)
            except BoundarySpectrum:
                continue
            R, Q = rstar_qstar(q)
            assert contains(Vg, R) and contains(vstar(q), Vg)
            assert contains(Sg, sstar(q)) and contains(Q, Sg)
            checked += 1
        assert checked >= 15

    @pytest.mark.parametrize("region", [CONT, DISC], ids=["continuous", "discrete"])
    def test_dimensions_count_the_stable_zeros(self, region):
        # V*_g adds to R* one dimension per invariant zero inside the region,
        # and S*_g removes as many from Q*; R* and Q* come from the
        # intersection and sum of the star pair, not from the split.
        rng = np.random.default_rng(89)
        checked = 0
        for _ in range(150):
            q = random_quadruple(rng)
            try:
                Vg = vstar_g(q, region)
                Sg = sstar_g(q, region)
            except BoundarySpectrum:
                continue
            # a zero is stable when the region guard accepts it
            z = sum(not region.outside([l]) for l in invariant_zeros(q))
            R, Q = rstar_qstar(q)
            assert Vg.dim - R.dim == z and Q.dim - Sg.dim == z
            assert contains(Vg, R) and contains(vstar(q), Vg)
            assert contains(Sg, sstar(q)) and contains(Q, Sg)
            checked += 1
        assert checked >= 100

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
            except BoundarySpectrum:
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

    def test_anchored_seed_keeps_the_uncontrollable_mode_fixed(self):
        # The internal fixed spectrum of S_M is read on the quotient by its
        # twin V = S_M^perp, over the dual quadruple, whose B is C^T. Here
        # C^T lies in V, so W^T C^T is a roundoff shadow of zero (about
        # 1e-16); counted as an input, it would make the mode at -3
        # assignable. Exactly, the reachable subspace of (A^T, C^T) is a
        # plane in R^3, so one mode of the pair is fixed.
        plant = PlantSystem(
            A=[[-1, -2, -2], [-2, -1, -1], [-2, 2, 0]], B=[[-2], [-2], [-1]],
            H=[[1], [-2], [0]], C=[[-1, 1, 0]], D_y=[[-1]], G_y=[[-2]],
            E=[[0, 0, 1]], D_z=[[0]], G_z=[[1]], time_domain="continuous")
        reach = exact.invariant_hull_smallest(exact.from_array(plant.A.T),
                                              exact.from_array(plant.C.T))
        assert exact.shape(reach)[1] == 2
        rep = spectral_report(vm_sM(plant)[1], INPUT_CONTAINING,
                              plant.observation_quadruple())
        assert match_spectra(rep.internal_fixed, [-3.0], 1e-8)
        assert rep.assignable_dims == (0, 0)

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
    # The twin S*^perp contains the third column of its B = C^T only up to
    # roundoff; the inputs that keep the twin must still count it.
    @example(Quadruple([[0, 0, 1], [0, 0, 0], [0, 0, 1]], [[1, 0], [1, 0], [0, 0]],
                       np.diag([0.0, 0.0, 1.0]), np.zeros((3, 2))))
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

    def test_square_system_zeros_are_the_pencil_eigenvalues(self):
        # with m = p and a regular Rosenbrock pencil [A - sI, B; C, D], the
        # invariant zeros are its finite generalized eigenvalues
        rng = np.random.default_rng(107)
        checked = 0
        for _ in range(60):
            m = int(rng.integers(1, 3))
            q = random_quadruple(rng, m=m, p=m)
            M = np.block([[q.A, q.B], [q.C, q.D]])
            N = np.zeros_like(M)
            N[:q.n, :q.n] = np.eye(q.n)
            if abs(np.linalg.det(M - (0.37 + 0.2j) * N)) < 1e-6:
                continue  # singular pencil
            ev = eigvals(M, N)
            assert match_spectra(invariant_zeros(q), ev[abs(ev) < 1e8])
            checked += 1
        assert checked >= 50

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
