import numpy as np
import pytest

from geodd import exact, subspaces
from geodd.errors import BoundarySpectrum, DimensionMismatch, InvalidInput
from geodd.subspaces import (
    ORTHO_TOL,
    StabilityRegion,
    Subspace,
    _norm2,
    _singular_values,
    _svd,
    combine,
    complement,
    contains,
    embed,
    equal,
    extended_ops,
    invariant_hull,
    kernel_of,
    modal_subspace,
    preimage,
    principal_angles,
    relate,
    span_of,
)
from helpers import (
    count_calls,
    failing_dgesdd,
    lapack_builds,
    max_angle,
    rational_as_subspace,
)


def assert_orthonormal(S):
    if S.dim:
        gram = S.basis.T @ S.basis
        assert np.linalg.norm(gram - np.eye(S.dim)) <= 10 * ORTHO_TOL


class TestSubspaceBasis:
    def test_caller_array_stays_writable(self):
        b = np.eye(2)
        S = Subspace(2, b)
        assert b.flags.writeable
        b[0, 0] = 5.0
        assert np.array_equal(S.basis, np.eye(2))
        with pytest.raises(ValueError):
            S.basis[0, 0] = 2.0

    def test_non_orthonormal_basis_rejected(self):
        with pytest.raises(InvalidInput):
            Subspace(2, [[1, 1], [0, 1]])
        with pytest.raises(InvalidInput):
            Subspace._adopt(3, np.array([[1.0, 0.0], [0.0, 2.0], [0.0, 0.0]]))
        with pytest.raises(InvalidInput):
            Subspace._adopt(2, np.array([[1.0], [1.0]]))

    def test_nan_basis_rejected(self):
        # a NaN entry makes the Gram norm NaN, which fails every comparison
        with pytest.raises(InvalidInput):
            Subspace(2, [[np.nan, 0.0], [0.0, 1.0]])
        with pytest.raises(InvalidInput):
            Subspace._adopt(2, np.array([[1.0], [np.nan]]))

    def test_roundoff_perturbed_basis_accepted(self):
        Q, _ = np.linalg.qr(np.random.default_rng(5).standard_normal((5, 3)))
        b = Q + 1e-13 * np.ones_like(Q)
        assert Subspace(5, b).dim == 3
        assert Subspace._adopt(5, b).dim == 3


def _kernel_inputs():
    """Seeded matrices of every shape the kernel meets: 1 x k, k x 1, wide,
    tall, rank-deficient, and non-contiguous views; also sides above 32,
    where dgesdd's rounding depends on the workspace it is given."""
    rng = np.random.default_rng(13)
    mats = [rng.standard_normal((1, 5)), rng.standard_normal((6, 1)),
            rng.standard_normal((3, 8)), rng.standard_normal((9, 4)),
            rng.standard_normal((7, 2)) @ rng.standard_normal((2, 6)),
            np.zeros((3, 3)), np.eye(4),
            rng.standard_normal((40, 36)), rng.standard_normal((34, 48)),
            rng.standard_normal((38, 5)) @ rng.standard_normal((5, 38))]
    wide = rng.standard_normal((5, 9))
    mats += [wide.T, wide[:, ::2], wide[:, 1:4], wide[1:, 2:7].T]
    for _ in range(40):
        m, n = rng.integers(1, 31, size=2)
        k = rng.integers(1, min(m, n) + 1)
        mats.append(rng.standard_normal((m, k)) @ rng.standard_normal((k, n)))
    return mats


class TestSvdKernel:
    @pytest.mark.parametrize("full", [False, True])
    def test_svd_equals_numpy_bit_for_bit(self, full):
        for M in _kernel_inputs():
            U, s, Vh = _svd(M, full)
            U0, s0, Vh0 = np.linalg.svd(M, full_matrices=full)
            for got, want in ((U, U0), (s, s0), (Vh, Vh0)):
                assert got.shape == want.shape
                assert got.tobytes() == want.tobytes(), lapack_builds()
            assert U.flags.c_contiguous and Vh.flags.c_contiguous

    def test_singular_values_and_norm_equal_numpy(self):
        for M in _kernel_inputs():
            s0 = np.linalg.svd(M, compute_uv=False)
            assert _singular_values(M).tobytes() == s0.tobytes(), lapack_builds()
            norm = _norm2(M)
            assert type(norm) is float
            assert norm == float(np.linalg.norm(M, 2)), lapack_builds()
        assert _norm2(np.zeros((3, 0))) == 0.0

    def test_lapack_failure_raises(self, monkeypatch):
        monkeypatch.setattr(subspaces, "dgesdd", failing_dgesdd)
        M = np.ones((3, 2))
        for call in (lambda: _svd(M, False), lambda: _singular_values(M),
                     lambda: _norm2(M), lambda: span_of(M)):
            with pytest.raises(np.linalg.LinAlgError):
                call()


class TestSpanKernel:
    def test_proportional_columns(self):
        S = span_of(np.array([[1.0, 2.0], [2.0, 4.0]]))
        assert S.dim == 1
        expected = np.array([1.0, 2.0]) / np.sqrt(5.0)
        assert min(np.linalg.norm(S.basis[:, 0] - expected),
                   np.linalg.norm(S.basis[:, 0] + expected)) < 1e-12

    def test_zero_matrix(self):
        assert span_of(np.zeros((3, 2))).is_trivial

    def test_near_dependent_columns_default_tolerance(self):
        # exact rank of the perturbation-free matrix is 1
        M = np.array([[1.0, 1.0 + 1e-14], [0.0, 0.0]])
        assert span_of(M).dim == exact.rank(exact.mat([[1, 1], [0, 0]]))

    def test_kernel_row_vector(self):
        S = kernel_of(np.array([[1.0, 1.0]]))
        assert S.dim == 1
        assert abs(abs(S.basis[0, 0]) - 1 / np.sqrt(2)) < 1e-12
        assert np.allclose(S.basis[0], -S.basis[1])

    def test_kernel_identity(self):
        assert kernel_of(np.eye(3)).is_trivial

    def test_kernel_mismatched_plant_measurement_matrix(self):
        S = kernel_of(np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 0.0]]))
        assert S.dim == 1
        assert abs(abs(S.basis[2, 0]) - 1.0) < 1e-12

    def test_nonfinite_rejected(self):
        with pytest.raises(InvalidInput):
            span_of(np.array([[np.nan, 1.0]]))
        with pytest.raises(InvalidInput):
            kernel_of(np.array([[np.inf]]))


class TestCombine:
    def test_sum_of_axes(self):
        e1 = span_of(np.eye(3)[:, :1])
        e2 = span_of(np.eye(3)[:, 1:2])
        assert combine("sum", e1, e2).dim == 2

    def test_intersection_of_planes(self):
        S1 = span_of(np.eye(3)[:, :2])
        S2 = span_of(np.eye(3)[:, 1:])
        inter = combine("intersect", S1, S2)
        assert inter.dim == 1
        assert abs(abs(inter.basis[1, 0]) - 1.0) < 1e-10

    def test_intersection_matches_exact_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            M1 = rng.integers(-5, 6, size=(6, 4)).astype(float)
            M2 = rng.integers(-5, 6, size=(6, 4)).astype(float)
            got = combine("intersect", span_of(M1), span_of(M2))
            want = rational_as_subspace(
                exact.intersect_spans(exact.from_array(M1), exact.from_array(M2)), 6)
            assert max_angle(got, want) <= 1e-8

    def test_intersection_takes_one_svd(self, monkeypatch):
        # one rank decision, on the sines of the principal angles (the
        # complement-sum-complement route took four)
        rng = np.random.default_rng(3)
        S1 = span_of(rng.standard_normal((6, 4)))
        S2 = span_of(rng.standard_normal((6, 4)))
        calls = count_calls(monkeypatch, "_gesdd", subspaces)
        inter = combine("intersect", S1, S2)
        assert inter.dim == 2
        assert len(calls) == 1

    def test_ambient_mismatch(self):
        with pytest.raises(DimensionMismatch):
            combine("sum", Subspace.full(2), Subspace.full(3))


class TestPreimage:
    def test_trivial_target_is_kernel(self):
        M = np.array([[1.0, 2.0, 0.0], [0.0, 0.0, 1.0]])
        got = preimage(M, Subspace.trivial(2))
        assert equal(got, kernel_of(M))

    def test_full_target_is_everything(self):
        M = np.array([[1.0, 2.0], [3.0, 4.0], [0.0, 1.0]])
        assert preimage(M, Subspace.full(3)).is_full

    def test_mismatched_plant_first_recursion_step(self, mismatched_plant):
        # one step of the shrinking recursion against the exact oracle
        MT = np.vstack([mismatched_plant.A, mismatched_plant.E])
        BD = np.vstack([mismatched_plant.B, mismatched_plant.D_z])
        target = combine("sum", embed(Subspace.full(3), 4), span_of(BD))
        got = preimage(MT, target)
        null = exact.preimage_span(
            exact.from_array(MT),
            exact.sum_spans(
                exact.vstack(exact.eye(3), exact.zeros(1, 3)),
                exact.from_array(BD)))
        assert max_angle(got, rational_as_subspace(null, 3)) <= 1e-8


class TestRelate:
    def test_equal(self):
        S = span_of(np.array([[1.0, 0.0], [1.0, 1.0], [0.0, 2.0]]))
        assert relate(S, S) == "equal"

    def test_trivial_contained(self):
        S = span_of(np.array([[1.0], [2.0], [3.0]]))
        assert relate(Subspace.trivial(3), S) == "contained"

    def test_mismatched_plant_pair_incomparable(self, mismatched_plant_pair):
        V, S = mismatched_plant_pair
        assert relate(S, V) == "incomparable"


class TestInvariantHull:
    def test_controllable_pair_fills_space(self):
        A = np.array([[0.0, 1.0], [0.0, 0.0]])
        S = span_of(np.array([[0.0], [1.0]]))
        assert invariant_hull("smallest_containing", A, S).is_full

    def test_invariant_subspace_fixed_both_ways(self):
        A = np.diag([1.0, 2.0, 3.0])
        S = span_of(np.eye(3)[:, :2])
        for direction in ("smallest_containing", "largest_contained"):
            assert equal(invariant_hull(direction, A, S), S)

    def test_matches_exact_iteration(self):
        rng = np.random.default_rng(3)
        for _ in range(15):
            A = rng.integers(-3, 4, size=(5, 5)).astype(float)
            M = rng.integers(-3, 4, size=(5, 2)).astype(float)
            got = invariant_hull("smallest_containing", A, span_of(M))
            want = rational_as_subspace(
                exact.invariant_hull_smallest(
                    exact.from_array(A), exact.from_array(M)), 5)
            assert max_angle(got, want) <= 1e-8

    def test_growth_steps_bounded(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            n = int(rng.integers(2, 7))
            A = rng.integers(-3, 4, size=(n, n)).astype(float)
            S = span_of(rng.integers(-3, 4, size=(n, 1)).astype(float))
            current = S
            growth = 0
            for _ in range(n + 1):
                grown = combine("sum", current,
                                span_of(A @ current.basis, scale=np.linalg.norm(A, 2)))
                if grown.dim == current.dim:
                    break
                growth += 1
                current = grown
            assert growth <= n - 1
            assert equal(current, invariant_hull("smallest_containing", A, S))


class TestModalSubspace:
    def test_split_diagonal(self):
        S = modal_subspace(np.diag([-1.0, 2.0]), StabilityRegion("continuous"))
        assert S.dim == 1
        assert abs(abs(S.basis[0, 0]) - 1.0) < 1e-12

    def test_stable_matrix_full(self):
        A = np.array([[0.0, 1.0], [-2.0, -3.0]])  # eigenvalues -1, -2
        assert modal_subspace(A, StabilityRegion("continuous")).is_full

    def test_discrete_region(self):
        S = modal_subspace(np.diag([0.5, 2.0]), StabilityRegion("discrete"))
        assert S.dim == 1

    def test_boundary_eigenvalue_rejected(self):
        with pytest.raises(BoundarySpectrum):
            modal_subspace(np.diag([0.0, -1.0]), StabilityRegion("continuous"))

    def test_complex_pair_kept_together(self):
        A = np.array([[0.0, 1.0], [-2.0, -2.0]])  # -1 +- i
        assert modal_subspace(A, StabilityRegion("continuous")).is_full


class TestExtendedOps:
    def test_diagonal_line(self):
        W = span_of(np.array([[1.0], [1.0]]))
        assert extended_ops("project", W, 1).is_full
        assert extended_ops("intersect", W, 1).is_trivial

    def test_full_space(self):
        W = Subspace.full(5)
        assert extended_ops("project", W, 3).is_full
        assert extended_ops("intersect", W, 3).is_full

    def test_projection_contains_top_image(self):
        # W >= im [H1; H2] forces p(W) >= im H1
        rng = np.random.default_rng(5)
        for _ in range(20):
            H1 = rng.integers(-4, 5, size=(3, 2)).astype(float)
            H2 = rng.integers(-4, 5, size=(2, 2)).astype(float)
            extra = rng.integers(-4, 5, size=(5, 1)).astype(float)
            W = span_of(np.hstack([np.vstack([H1, H2]), extra]))
            proj = extended_ops("project", W, 3)
            assert contains(proj, span_of(H1))

    def test_duality_projection_intersection(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            W = span_of(rng.standard_normal((6, 3)))
            left = extended_ops("project", complement(W), 4)
            right = complement(extended_ops("intersect", W, 4))
            assert max_angle(left, right) <= 1e-8


class TestAlgebraicLaws:
    def test_lattice_laws_on_random_triples(self):
        rng = np.random.default_rng(21)
        for _ in range(60):
            n = int(rng.integers(2, 6))
            A, B, C = (span_of(rng.standard_normal((n, int(rng.integers(1, n + 1)))))
                       for _ in range(3))
            for mode in ("sum", "intersect"):
                assert equal(combine(mode, A, B), combine(mode, B, A))
                lhs = combine(mode, combine(mode, A, B), C)
                rhs = combine(mode, A, combine(mode, B, C))
                assert equal(lhs, rhs)
            s = combine("sum", A, B)
            i = combine("intersect", A, B)
            assert s.dim + i.dim == A.dim + B.dim

    def test_returned_bases_orthonormal(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            M = rng.standard_normal((5, 3))
            for S in (span_of(M), kernel_of(M), complement(span_of(M))):
                assert_orthonormal(S)

    def test_principal_angles_resolution(self):
        # sine-based angles resolve rotations far below sqrt(eps)
        S1 = span_of(np.array([[1.0], [0.0]]))
        for theta in (1e-9, 1e-6):
            S2 = span_of(np.array([[np.cos(theta)], [np.sin(theta)]]))
            ang = principal_angles(S1, S2)
            assert abs(ang[0] - theta) < 1e-12
        # below the angle threshold compares equal, above does not
        tiny = span_of(np.array([[np.cos(1e-9)], [np.sin(1e-9)]]))
        wide = span_of(np.array([[np.cos(1e-6)], [np.sin(1e-6)]]))
        assert equal(S1, tiny)
        assert not equal(S1, wide)


class TestOracleEquivalence:
    def test_all_core_operations_match_exact_backend(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            n = int(rng.integers(2, 6))
            M1 = rng.integers(-5, 6, size=(n, int(rng.integers(1, n + 2)))).astype(float)
            M2 = rng.integers(-5, 6, size=(n, int(rng.integers(1, n + 2)))).astype(float)
            R1, R2 = exact.from_array(M1), exact.from_array(M2)

            assert max_angle(span_of(M1),
                             rational_as_subspace(exact.colspace(R1), n)) <= 1e-8
            assert max_angle(kernel_of(M1),
                             rational_as_subspace(exact.kernel(R1), M1.shape[1])) <= 1e-8
            got_sum = combine("sum", span_of(M1), span_of(M2))
            assert max_angle(got_sum,
                             rational_as_subspace(exact.sum_spans(R1, R2), n)) <= 1e-8
            got_int = combine("intersect", span_of(M1), span_of(M2))
            assert max_angle(got_int,
                             rational_as_subspace(exact.intersect_spans(R1, R2), n)) <= 1e-8
            A = rng.integers(-5, 6, size=(n, n)).astype(float)
            got_pre = preimage(A, span_of(M2))
            assert max_angle(got_pre,
                             rational_as_subspace(
                                 exact.preimage_span(exact.from_array(A), R2), n)) <= 1e-8
