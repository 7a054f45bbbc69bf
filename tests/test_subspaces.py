import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import schur
from scipy.linalg.lapack import dgees, dgesdd_lwork

from geodd import InstanceSpec, exact, generate_instance, subspaces
from geodd.errors import BoundarySpectrum, DimensionMismatch, InvalidInput
from geodd.geometry import KEEP_MARGIN, _controllable_split
from geodd.subspaces import (
    DEFAULT_TOL,
    ORTHO_TOL,
    StabilityRegion,
    Subspace,
    ToleranceProfile,
    _det,
    _eigvals,
    _gesdd,
    _inv,
    _norm2,
    _numerical_rank,
    _qr_basis,
    _region_part,
    _schur,
    _svd,
    combine,
    complement,
    containment_residual,
    contains,
    equal,
    extended_ops,
    invariant_hull,
    kernel_of,
    modal_subspace,
    preimage,
    relate,
    span_of,
)
from helpers import (
    count_calls,
    embed,
    failing_dgesdd,
    lapack_builds,
    lifted_obstruction,
    mat,
    max_angle,
    preimage_span,
    principal_angles,
    rational_as_subspace,
    reference_combine,
    reference_controllable_split,
    reference_invariant_hull,
)


def assert_orthonormal(S):
    if S.dim:
        gram = S.basis.T @ S.basis
        assert np.linalg.norm(gram - np.eye(S.dim)) <= 10 * ORTHO_TOL


@st.composite
def planted_pairs(draw):
    """Integer (A, M, k), n <= 12: in coordinates changed by a
    permutation and a few integer shears, A is block upper triangular with
    a leading k x k block whose coordinates hold im M. The hull of im M
    then lies in that block, and the trailing block is uncontrollable."""
    n = draw(st.integers(1, 12))
    k = draw(st.integers(0, n))
    s = draw(st.integers(1, 3))
    entries = st.integers(-3, 3)
    A = np.array(draw(st.lists(entries, min_size=n * n, max_size=n * n))).reshape(n, n)
    A[k:, :k] = 0
    M = np.array(draw(st.lists(entries, min_size=n * s, max_size=n * s))).reshape(n, s)
    M[k:] = 0
    T = np.eye(n, dtype=int)[draw(st.permutations(range(n)))]
    T_inv = T.T.copy()
    for _ in range(draw(st.integers(0, 3)) if n > 1 else 0):
        i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        c = draw(st.sampled_from([-1, 1]))
        shear = np.eye(n, dtype=int)
        shear[i, j] = c
        T = shear @ T
        shear[i, j] = -c
        T_inv = T_inv @ shear
    return (T @ A @ T_inv).astype(float), (T @ M).astype(float), k


class TestToleranceProfile:
    @pytest.mark.parametrize("field,value,message", [
        ("rank_rel", float("nan"), "rank_rel must be finite"),
        ("angle", float("nan"), "angle must be finite"),
        ("residual", float("inf"), "residual must be finite"),
        ("angle", float("-inf"), "angle must be finite"),
        ("rank_rel", 1.0, r"rank_rel must lie in \(0, 1\)"),
        ("rank_rel", 0.0, r"rank_rel must lie in \(0, 1\)"),
        ("angle", 0.0, "angle must be strictly positive"),
        ("residual", -1e-9, "residual must be strictly positive"),
    ])
    def test_rejects_naming_the_field(self, field, value, message):
        with pytest.raises(InvalidInput, match=f"^{message}"):
            ToleranceProfile(**{field: value})

    def test_defaults_accepted(self):
        tol = ToleranceProfile()
        assert (tol.rank_rel, tol.angle, tol.residual) == (1e-10, 1e-8, 1e-8)


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
            norm = _norm2(M)
            assert type(norm) is float
            assert norm == float(np.linalg.norm(M, 2)), lapack_builds()
        assert _norm2(np.zeros((3, 0))) == 0.0

    @pytest.mark.parametrize("full", [False, True])
    @pytest.mark.parametrize("shape", [(0, 3), (4, 0), (0, 0), (0, 1), (1, 0)])
    def test_empty_side_gives_numpys_factors(self, shape, full, capfd):
        # dgesdd rejects an empty side, printing to stdout; numpy returns no
        # singular values and identity or empty factors
        M = np.zeros(shape)
        got, want = _svd(M, full), np.linalg.svd(M, full_matrices=full)
        for g, w in zip(got, want):
            assert g.shape == w.shape and g.dtype == w.dtype
            assert g.tobytes() == w.tobytes()
        assert _norm2(M) == 0.0
        assert capfd.readouterr() == ("", "")

    def test_lapack_failure_raises(self, monkeypatch):
        monkeypatch.setattr(subspaces, "dgesdd", failing_dgesdd)
        M = np.ones((3, 2))
        for call in (lambda: _svd(M, False), lambda: _norm2(M), lambda: span_of(M)):
            with pytest.raises(np.linalg.LinAlgError):
                call()

    def test_cached_workspace_equals_a_fresh_query(self, monkeypatch):
        # every shape with sides 1-40, under each flag set the kernel uses
        cache = {}
        monkeypatch.setattr(subspaces, "_GESDD_LWORK", cache)
        flag_sets = ((1, 0), (1, 1), (0, 0))
        for m in range(1, 41):
            for n in range(1, 41):
                for flags in flag_sets:
                    _gesdd(np.ones((m, n)), *flags)
        assert len(cache) == 40 * 40 * len(flag_sets)
        for key, lwork in cache.items():
            assert lwork == int(dgesdd_lwork(*key)[0]), key


def _schur_inputs():
    """Seeded square matrices of orders 1-12: Gaussian (complex pairs
    among their modes), transposed views, symmetric (real modes only),
    rotation blocks (only complex pairs), triangular, shifted into each
    region and out of it, and scaled up and down."""
    rng = np.random.default_rng(31)
    mats = [np.array([[0.5]]), np.array([[-2.0]]), np.array([[0.0, 1.0], [-1.0, 0.0]]),
            np.diag([-1.0, 2.0, -0.01, 0.97])]
    for n in range(1, 13):
        for _ in range(6):
            G = rng.standard_normal((n, n))
            mats += [G, G.T, G + G.T, np.triu(G), G - 3.0 * np.eye(n), G + 3.0 * np.eye(n),
                     0.2 * G, 0.5 * G, 4.0 * G]
        if n % 2 == 0:
            theta = rng.uniform(0.1, 3.0, n // 2)
            radius = rng.uniform(0.5, 1.5, n // 2)
            R = np.zeros((n, n))
            for k, (t, r) in enumerate(zip(theta, radius)):
                R[2 * k:2 * k + 2, 2 * k:2 * k + 2] = r * np.array(
                    [[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])
            Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
            mats.append(Q @ R @ Q.T)
    return mats


def _schur_selects():
    """The selects that the package passes to `_schur`: each region's
    `_region_part` select, and each region's keep-margin select of the
    stabilizing gain; also none-kept and all-kept."""
    selects = {"none": lambda re, im: False, "all": lambda re, im: True}
    for kind in ("continuous", "discrete"):
        region = StabilityRegion(kind)
        selects[f"region-{kind}"] = (
            lambda re, im, region=region: not region.outside([complex(re, im)]))
        selects[f"keep-{kind}"] = (
            lambda re, im, region=region:
            region.boundary_distance(complex(re, im)) > KEEP_MARGIN)
    return selects


class TestSchurKernel:
    @pytest.mark.parametrize("name", list(_schur_selects()))
    def test_equals_scipy_bit_for_bit(self, name):
        select = _schur_selects()[name]
        sdims = set()
        for A in _schur_inputs():
            n = A.shape[0]
            T, Z, sdim = _schur(A, select)
            T0, Z0, sdim0 = schur(A, output="real", sort=select)
            assert sdim == sdim0
            for got, want in ((T, T0), (Z, Z0)):
                assert got.shape == want.shape == (n, n)
                assert got.flags.f_contiguous == want.flags.f_contiguous
                assert got.tobytes() == want.tobytes(), lapack_builds()
            sdims.add("none" if sdim == 0 else "all" if sdim == n else "some")
        want = {"none": {"none"}, "all": {"all"}}.get(name, {"none", "some", "all"})
        assert sdims == want

    def test_complex_pairs_stay_in_two_by_two_blocks(self):
        # the inputs hold complex pairs, and each one is a 2 x 2 diagonal
        # block of T, kept or moved as one
        pairs = 0
        for A in _schur_inputs():
            T, _, sdim = _schur(A, _schur_selects()["keep-continuous"])
            sub = np.flatnonzero(np.diag(T, -1))
            pairs += len(sub)
            assert sdim - 1 not in sub
        assert pairs >= 100

    def test_empty_matrix(self):
        T, Z, sdim = _schur(np.zeros((0, 0)), lambda re, im: True)
        assert T.shape == Z.shape == (0, 0) and sdim == 0

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_nonfinite_input_raises(self, bad):
        A = np.eye(3)
        A[0, 2] = bad
        with pytest.raises(np.linalg.LinAlgError):
            _schur(A, lambda re, im: True)

    def test_lapack_failure_raises(self, monkeypatch):
        def failing_dgees(select, a, *flags):
            n = a.shape[0]
            out = dgees(select, a, *flags)
            return (*out[:-1], n + 1)  # eigenvalues could not be reordered
        monkeypatch.setattr(subspaces, "dgees", failing_dgees)
        with pytest.raises(np.linalg.LinAlgError, match="dgees info 4"):
            _schur(np.diag([1.0, -1.0, 2.0]), lambda re, im: re < 0)

    def test_cached_workspace_equals_a_fresh_query(self, monkeypatch):
        # scipy's query, every order 1-40
        cache = {}
        monkeypatch.setattr(subspaces, "_GEES_LWORK", cache)
        for n in range(1, 41):
            _schur(np.ones((n, n)), lambda re, im: True)
        assert sorted(cache) == list(range(1, 41))
        for n, lwork in cache.items():
            fresh = dgees(lambda re, im: None, np.eye(n), lwork=-1)[-2][0]
            assert lwork == int(fresh), n

    def test_every_schur_form_goes_through_the_kernel(self, monkeypatch):
        calls = count_calls(monkeypatch, "_schur", subspaces)
        S = _region_part(np.diag([-1.0, 2.0, -3.0]), StabilityRegion("continuous"))
        assert S.dim == 2 and len(calls) == 1


def _count_above(s, shape, rank_rel, scale) -> int:
    """The count of every singular value above the cutoff, in any order."""
    cutoff = rank_rel * max(s[0], scale) * max(shape)
    return np.count_nonzero(s > cutoff) if cutoff > 0 else np.count_nonzero(s > 0)


class TestNumericalRank:
    @pytest.mark.parametrize("s, shape, rank_rel, scale, want", [
        # values tied with the cutoff 0.5 * 2 * 1 = 1 are not above it
        ([2.0, 1.0, 1.0, 0.5], (1,), 0.5, 0.0, 1),
        ([2.0, 1.0 + 2**-52, 1.0, 1.0], (1,), 0.5, 0.0, 2),
        # a zero cutoff counts the positive values
        ([0.0, 0.0], (2, 2), 1e-10, 0.0, 0),
        # (and the cutoff of the smallest subnormal underflows to zero)
        ([5e-324, 5e-324, 0.0], (3,), 1e-10, 0.0, 2),
        # NaN is never above the cutoff, and a NaN cutoff counts the positive values
        ([np.nan, 1.0, 0.0], (3, 3), 1e-10, 0.0, 1),
        ([np.nan, np.nan], (2,), 1e-10, 1.0, 0),
        ([3.0, np.nan, 2.0, 1e-20], (4,), 1e-10, 0.0, 2),
        ([3.0, 1.0], (2,), 1e-10, np.nan, 2),
        ([], (0, 3), 1e-10, 1.0, 0),
    ])
    def test_count_equals_the_count_above_the_cutoff(self, s, shape, rank_rel, scale, want):
        s = np.array(s, dtype=float)
        got = _numerical_rank(s, shape, rank_rel, scale)
        assert type(got) is int and got == want
        if s.size:
            assert got == _count_above(s, shape, rank_rel, scale)

    def test_on_descending_singular_values(self):
        rng = np.random.default_rng(17)
        for _ in range(300):
            s = np.sort(rng.choice([0.0, 1e-12, 1e-9, 1e-3, 1.0, 2.0], size=5))[::-1]
            shape = tuple(rng.integers(1, 6, size=2))
            scale = float(rng.choice([0.0, 1.0, 1e3]))
            assert (_numerical_rank(s, shape, 1e-10, scale)
                    == _count_above(s, shape, 1e-10, scale))


def _eigvals_inputs():
    """Seeded square matrices: random, integer, defective (Jordan blocks
    and nilpotent), all-real spectra (triangular, symmetric), 0 x 0, 1 x 1,
    non-contiguous views, and sides above 32."""
    rng = np.random.default_rng(19)
    mats = [np.zeros((0, 0)), np.array([[2.5]]), np.array([[-0.0]]), np.zeros((3, 3)),
            np.eye(4), np.diag(np.ones(5), 1), 2 * np.eye(6) + np.diag(np.ones(5), 1),
            np.array([[0.0, 1.0], [-1.0, 0.0]])]
    for n in (1, 2, 3, 5, 8, 12, 17, 24, 33, 48):
        G = rng.standard_normal((n, n))
        mats += [G, rng.integers(-3, 4, size=(n, n)).astype(float),
                 np.triu(G), G + G.T, G.T, G[::-1, ::-1]]
    return mats


class TestEigvalsKernel:
    def test_equals_numpy_bit_for_bit(self):
        for A in _eigvals_inputs() + _square_inputs():
            got, want = _eigvals(A), np.linalg.eigvals(A)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == np.ascontiguousarray(want).tobytes(), lapack_builds()

    def test_real_spectrum_is_a_real_array(self):
        assert _eigvals(np.diag([1.0, -2.0])).dtype == np.float64
        assert _eigvals(np.array([[0.0, 1.0], [-1.0, 0.0]])).dtype == np.complex128

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_nonfinite_input_raises(self, bad):
        A = np.eye(3)
        A[1, 2] = bad
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.eigvals(A)
        with pytest.raises(np.linalg.LinAlgError):
            _eigvals(A)

    @pytest.mark.parametrize("shape", [(2, 3), (0, 3)])
    def test_non_square_input_raises(self, shape):
        A = np.ones(shape)
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.eigvals(A)
        with pytest.raises(np.linalg.LinAlgError):
            _eigvals(A)


def _square_inputs():
    """Seeded square matrices of sides 1-48: random, integer, dyadic,
    rank-one updates of the identity and transposed (non-contiguous) views.
    Sides 1-5, the sides of the loop's I + K D_y and I - D_y D_c, get twelve
    draws of each kind, the larger sides one."""
    rng = np.random.default_rng(29)
    mats = [np.array([[2.5]]), np.array([[-3.0]]), np.eye(3), np.diag([1.0, -2.0, 4.0]),
            np.array([[0.0, 1.0], [1.0, 0.0]])]
    for n in range(1, 49):
        for _ in range(12 if n < 6 else 1):
            G = rng.standard_normal((n, n))
            mats += [G, G.T, rng.integers(-3, 4, size=(n, n)).astype(float),
                     rng.integers(-8, 9, size=(n, n)) / 8.0,
                     np.eye(n) + rng.standard_normal((n, 1)) @ rng.standard_normal((1, n))]
    return mats


class TestInvKernel:
    def test_equals_numpy_bit_for_bit(self):
        for M in _square_inputs():
            try:
                want = np.linalg.inv(M)
            except np.linalg.LinAlgError:
                with pytest.raises(np.linalg.LinAlgError, match="^Singular matrix$"):
                    _inv(M)
                continue
            got = _inv(M)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes(), lapack_builds()
            assert got.flags.c_contiguous

    @pytest.mark.parametrize("M", [np.zeros((3, 3)), np.array([[1.0, 2.0], [2.0, 4.0]])])
    def test_singular_input_raises_numpys_error(self, M):
        with pytest.raises(np.linalg.LinAlgError, match="^Singular matrix$"):
            np.linalg.inv(M)
        with pytest.raises(np.linalg.LinAlgError, match="^Singular matrix$"):
            _inv(M)

    def test_empty_and_non_square(self):
        assert _inv(np.zeros((0, 0))).shape == np.linalg.inv(np.zeros((0, 0))).shape
        with pytest.raises(np.linalg.LinAlgError):
            _inv(np.ones((2, 3)))


class TestDetKernel:
    def test_equals_numpy_bit_for_bit(self):
        for M in _square_inputs():
            got = _det(M)
            assert type(got) is float
            assert got == float(np.linalg.det(M)), lapack_builds()

    @pytest.mark.parametrize("M", [np.zeros((3, 3)), np.array([[1.0, 2.0], [2.0, 4.0]])])
    def test_singular_input_is_zero(self, M):
        assert np.linalg.det(M) == 0.0
        assert _det(M) == 0.0

    def test_empty_overflow_and_non_square(self):
        assert _det(np.zeros((0, 0))) == np.linalg.det(np.zeros((0, 0))) == 1.0
        for M in (1e200 * np.eye(3), -1e200 * np.eye(3)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = _det(M)  # silent, where numpy warns of the overflow
            with np.errstate(over="ignore"):
                assert got == np.linalg.det(M)
        with pytest.raises(np.linalg.LinAlgError):
            _det(np.ones((2, 3)))


def _loop_pair_bases():
    """[V 0; V -S] for seeded pairs (V, S) of every dimension in R^n, n up
    to 24: the bases `verify._pair_subspace` orthonormalizes."""
    rng = np.random.default_rng(31)
    for n in (1, 2, 3, 4, 8, 12, 16, 24):
        for v, s in {(n, 0), (0, n), (n, n), (n // 2, n // 3), (n - 1, 1), (1, n - 1)}:
            V = np.linalg.qr(rng.standard_normal((n, v)))[0]
            S = np.linalg.qr(rng.standard_normal((n, s)))[0]
            yield np.block([[V, np.zeros((n, s))], [V, -S]])


class TestQrKernel:
    def test_equals_numpy_bit_for_bit(self):
        mats = _kernel_inputs() + list(_loop_pair_bases())
        for M in _square_inputs():
            k = (M.shape[0] + 1) // 2
            mats += [M, M[:, :k], M[k:]]
        for M in mats:
            got, want = _qr_basis(M), np.linalg.qr(M)[0]
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes(), lapack_builds()
            assert got.flags.c_contiguous

    @pytest.mark.parametrize("shape", [(6, 0), (0, 4), (0, 0)])
    def test_empty_input(self, shape):
        got = _qr_basis(np.zeros(shape))
        assert got.shape == np.linalg.qr(np.zeros(shape))[0].shape


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
        assert span_of(M).dim == exact.rank(mat([[1, 1], [0, 0]]))

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


class TestComplement:
    def test_full_subspace_takes_no_svd(self, monkeypatch):
        rng = np.random.default_rng(23)
        full = span_of(rng.standard_normal((5, 5)))
        assert full.is_full
        by_svd = kernel_of(full.basis.T)
        calls = count_calls(monkeypatch, "_gesdd", subspaces)
        got = complement(full)
        assert not calls
        assert got.ambient_dim == 5 and got.basis.shape == by_svd.basis.shape == (5, 0)


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
        null = preimage_span(
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

    @pytest.mark.parametrize("diagonal", [0.0, 0.5])
    def test_staircase_stays_orthonormal_on_a_weakly_coupled_chain(self, diagonal):
        # A shifted chain (a Jordan block when the diagonal is nonzero) of
        # order 24: every third coupling is 2^-25, about 3.5 times the rank
        # cutoff 1e-10 * ||A|| * n, and one is 0, so 20 states are
        # reachable. Integer shears hide the chain and keep A exact in
        # floats. A projected staircase divides the roundoff left along the
        # basis by each weak coupling; here every block is a product of
        # orthonormal factors, so the basis stays within the orthonormality
        # guard whatever the couplings.
        n = 24
        couplings = np.ones(n - 1)
        couplings[2::3] = 2.0 ** -25
        couplings[19] = 0.0
        J = np.diag(couplings, -1) + diagonal * np.eye(n)
        rng = np.random.default_rng(0)
        T, T_inv = np.eye(n), np.eye(n)
        for _ in range(12):
            i, j = rng.choice(n, 2, replace=False)
            c = rng.choice([-1.0, 1.0])
            T[i] += c * T[j]
            T_inv[:, j] -= c * T_inv[:, i]
        assert np.array_equal(T @ T_inv, np.eye(n))
        A, M = T @ J @ T_inv, T[:, :1]
        got = invariant_hull("smallest_containing", A, span_of(M))
        want = exact.invariant_hull_smallest(exact.from_array(A), exact.from_array(M))
        assert_orthonormal(got)
        assert got.dim == exact.shape(want)[1] == 20
        assert max_angle(got, rational_as_subspace(want, n)) <= 1e-8

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(planted_pairs(), st.integers(-4, 4),
           st.sampled_from(["smallest_containing", "largest_contained"]))
    def test_staircase_matches_reference_loop(self, pair, exponent, direction):
        A, M, k = pair
        A = A * 10.0 ** exponent
        S = span_of(M)
        if direction == "smallest_containing":
            got = invariant_hull(direction, A, S)
            want = reference_invariant_hull(A, S)
            assert got.dim <= k
        else:
            # the largest A^T-invariant subspace in S^perp is the
            # complement of the smallest A-invariant one containing S
            got = invariant_hull(direction, A.T, complement(S))
            want = complement(reference_invariant_hull(A, complement(complement(S))))
            assert got.dim >= A.shape[0] - k
        assert got.dim == want.dim
        assert_orthonormal(got)
        if got.dim:
            assert principal_angles(got, want).max() <= 1e-8

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(planted_pairs())
    def test_staircase_matches_exact_hull_on_integers(self, pair):
        A, M, _ = pair
        got = invariant_hull("smallest_containing", A, span_of(M))
        want = rational_as_subspace(
            exact.invariant_hull_smallest(exact.from_array(A), exact.from_array(M)),
            A.shape[0])
        assert max_angle(got, want) <= 1e-8


def _generated_pairs():
    """(name, A, B, k) on generated plants in both domains: (A, B),
    (A^T, C^T), (A, H) and (A^T, E^T) of each plant (k = 0), and (A, H)
    and (A^T, E^T) of the same plant with a stable k-state block appended,
    which the disturbance does not reach and the regulated output does not
    see: a planted uncontrollable block of k modes, at -1 or -2 in
    continuous time and at +-0.5 in discrete time."""
    for domain in ("continuous", "discrete"):
        for n in (4, 8, 12, 16):
            for seed in range(5):
                plant = generate_instance(InstanceSpec(seed=seed, n=n, time_domain=domain))
                for what, A, B in (("A, B", plant.A, plant.B), ("A^T, C^T", plant.A.T, plant.C.T),
                                   ("A, H", plant.A, plant.H), ("A^T, E^T", plant.A.T, plant.E.T)):
                    yield f"{domain} n={n} seed={seed} ({what})", A, B, 0
                rng = np.random.default_rng(seed)
                k = int(rng.integers(1, 5))
                lifted = lifted_obstruction(plant, k, domain, rng)
                for what, A, B in (("A, H", lifted.A, lifted.H),
                                   ("A^T, E^T", lifted.A.T, lifted.E.T)):
                    yield f"{domain} n={n} seed={seed} lifted by {k} ({what})", A, B, k


def _backward_error(M: np.ndarray, lam) -> float:
    """sigma_min(M - lam I): the norm of the smallest perturbation of M
    that has lam as an eigenvalue."""
    return np.linalg.svd(M - lam * np.eye(M.shape[0]), compute_uv=False)[-1]


# The fixed spectra of the two routes are the spectra of T2^T A T2 on two
# bases of nearly the same subspace: each mode of one route must be an
# exact eigenvalue of the other route's map perturbed by at most this
# much, relative to max(1, ||A||). (Measured: 2.0e-11 on `_generated_pairs`.)
SPECTRUM_BACKWARD_ERROR = 1e-9


class TestStaircaseSplit:
    """`geometry._controllable_split` on one orthogonal staircase against
    the hull and complement route it replaced
    (`helpers.reference_controllable_split`)."""

    @staticmethod
    def assert_split(A, B, planted=0, exact_dim=None):
        T1, T2, fixed = _controllable_split(A, B, DEFAULT_TOL)
        R1, R2, ref_fixed = reference_controllable_split(A, B)
        n = A.shape[0]
        scale = max(1.0, np.linalg.norm(A, 2))
        T = np.hstack([T1, T2])
        # [T1 T2] is orthogonal, and both pass the orthonormality guard
        assert np.linalg.norm(T.T @ T - np.eye(n), 2) <= 1e-12
        for basis in (T1, T2):
            Subspace._adopt(n, basis.copy())  # raises unless orthonormal
        # im B <= T1, and T1 is A-invariant
        assert containment_residual(span_of(B), Subspace(n, T1)) <= 1e-12
        invariance = np.linalg.norm(A @ T1 - T1 @ (T1.T @ A @ T1), 2) / scale
        if planted:
            # the rank cut of the staircase: a kept step with a small
            # singular value leaves more than roundoff here, in both routes
            assert invariance <= DEFAULT_TOL.rank_rel * n
        else:
            assert invariance <= 1e-12
        assert T1.shape[1] == R1.shape[1]
        assert T2.shape[1] >= planted
        if exact_dim is not None:
            assert T1.shape[1] == exact_dim
        assert len(fixed) == len(ref_fixed) == T2.shape[1]
        for lams, M in ((fixed, R2.T @ A @ R2), (ref_fixed, T2.T @ A @ T2)):
            for lam in lams:
                assert _backward_error(M, lam) <= SPECTRUM_BACKWARD_ERROR * scale

    def test_generated_and_planted_pairs(self):
        for name, A, B, k in _generated_pairs():
            exact_dim = exact.shape(exact.invariant_hull_smallest(
                exact.from_array(A), exact.from_array(B)))[1]
            try:
                self.assert_split(A, B, k, exact_dim)
            except AssertionError as err:
                raise AssertionError(name) from err

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(planted_pairs())
    def test_integer_planted_pairs(self, pair):
        A, M, k = pair
        exact_dim = exact.shape(exact.invariant_hull_smallest(
            exact.from_array(A), exact.from_array(M)))[1]
        assert exact_dim <= k
        self.assert_split(A, M, exact_dim=exact_dim)

    def test_empty_input_and_state(self):
        A = np.array([[1.0, 2.0], [0.0, 3.0]])
        T1, T2, fixed = _controllable_split(A, np.zeros((2, 0)), DEFAULT_TOL)
        assert T1.shape == (2, 0) and np.array_equal(T2, np.eye(2))
        assert sorted(fixed) == [1.0, 3.0]
        T1, T2, fixed = _controllable_split(np.zeros((0, 0)), np.zeros((0, 2)), DEFAULT_TOL)
        assert T1.shape == T2.shape == (0, 0) and fixed.size == 0

    def test_largest_contained_equals_the_complement_route(self):
        # the largest A-invariant subspace in ker E (the unobservable
        # subspace of (E, A)), against the complement of the smallest
        # A^T-invariant subspace containing im E^T
        for name, A, B, k in _generated_pairs():
            S = kernel_of(B.T)
            got = invariant_hull("largest_contained", A.T, S)
            want = complement(reference_invariant_hull(A, complement(S)))
            assert got.dim == want.dim and got.dim >= k, name
            assert_orthonormal(got)
            if got.dim:
                assert principal_angles(got, want).max() <= 1e-8, name

    @pytest.mark.parametrize("lifted", [0, 2])
    def test_split_takes_no_complement_svd(self, monkeypatch, lifted):
        # the SVD of B, the norm of A, then one SVD per staircase step: one
        # per dimension that a step adds, and a last one that adds nothing
        # unless T1 fills the space; no complement is computed
        plant = generate_instance(InstanceSpec(seed=3, n=6))
        if lifted:
            plant = lifted_obstruction(plant, lifted, "continuous", np.random.default_rng(3))
        calls = count_calls(monkeypatch, "_gesdd", subspaces)
        T1, T2, _ = _controllable_split(plant.A, plant.H, DEFAULT_TOL)
        assert T2.shape[1] == lifted
        assert [M.shape for M, *_ in calls[:2]] == [plant.H.shape, plant.A.shape]
        # a single disturbance column: each step maps a one-column block
        # into the W left, and the last one into the uncontrollable block
        widths = list(range(plant.n - 1, lifted, -1)) + ([lifted] if lifted else [])
        assert [M.shape for M, *_ in calls[2:]] == [(k, 1) for k in widths]


class TestLatticeIdentities:
    """`combine` with a full or trivial operand: X + S = X, 0 + S = S,
    X ^ S = S and 0 ^ S = 0, by dimension alone."""

    @staticmethod
    def operands(rng, n):
        return [Subspace.full(n), Subspace.trivial(n),
                span_of(rng.standard_normal((n, int(rng.integers(1, n))))),
                span_of(rng.standard_normal((n, n)))]

    def test_full_or_trivial_operand_is_returned_itself(self, monkeypatch):
        rng = np.random.default_rng(41)
        X, zero = Subspace.full(5), Subspace.trivial(5)
        S = span_of(rng.standard_normal((5, 2)))
        calls = count_calls(monkeypatch, "_gesdd", subspaces)
        # (S1, S2, S1 + S2, S1 ^ S2)
        for S1, S2, total, common in ((S, X, X, S), (X, S, X, S), (S, zero, S, zero),
                                      (zero, S, S, zero), (X, zero, X, zero),
                                      (zero, X, X, zero)):
            assert combine("sum", S1, S2) is total
            assert combine("intersect", S1, S2) is common
        assert not calls

    def test_every_result_equals_the_svd_route(self):
        rng = np.random.default_rng(43)
        for _ in range(30):
            n = int(rng.integers(2, 8))
            for S1 in self.operands(rng, n):
                for S2 in self.operands(rng, n):
                    for mode in ("sum", "intersect"):
                        got = combine(mode, S1, S2)
                        want = reference_combine(mode, S1, S2)
                        assert_orthonormal(got)
                        assert equal(got, want), (mode, S1.dim, S2.dim)


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
        # on the boundary, or inside it by less than the region guard, which
        # `StabilityRegion.outside` counts as a violation too
        for lam, other, kind in ((0.0, -1.0, "continuous"),
                                 (-5e-9, -1.0, "continuous"),
                                 (1 - 5e-9, 0.5, "discrete")):
            region = StabilityRegion(kind)
            assert region.outside([lam]) == [lam]
            with pytest.raises(BoundarySpectrum):
                modal_subspace(np.diag([lam, other]), region)

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
                                 preimage_span(exact.from_array(A), R2), n)) <= 1e-8
