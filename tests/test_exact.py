import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import find, given, settings
from hypothesis import strategies as st

from geodd import PlantSystem, analyze_p1, exact, generate
from helpers import (
    equal_span,
    grid_points,
    image_span,
    mat,
    preimage_span,
    reference_affine_k_family,
    reference_colspace,
    reference_det,
    reference_det_grid_scan,
    reference_intersect_spans,
    reference_kernel,
    reference_matmul,
    reference_preimage_span,
    reference_rref,
    reference_sstar_span,
    reference_vstar_span,
)

PROPERTY = settings(max_examples=150, derandomize=True, deadline=None)

ENTRIES = {
    # plant matrices arrive as floats: dyadic rationals, large denominators
    "dyadic": st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False).map(exact.fr),
    "mixed": st.fractions(min_value=-20, max_value=20, max_denominator=12),
    # small integers of both signs: ties and negative pivots
    "small": st.integers(-3, 3).map(Fraction),
    # mostly zeros, as in structured plants: pivot searches that swap rows
    "sparse": st.sampled_from([0, 0, 0, 0, 1, -1, 2, Fraction(-3, 2)]).map(Fraction),
}


@st.composite
def rational_matrices(draw, square=False, rows=None):
    """Fraction matrices up to 6 x 6, 0 x k (the empty list) and k x 0
    included: full or rank-deficient (a product of thin factors), with or
    without zeroed rows and columns. `rows` fixes the number of rows."""
    rows = draw(st.integers(0, 6)) if rows is None else rows
    cols = rows if square else draw(st.integers(0, 6))
    entry = ENTRIES[draw(st.sampled_from(sorted(ENTRIES)))]
    if draw(st.booleans()):
        inner = draw(st.integers(1, 3))
        left = [[draw(entry) for _ in range(inner)] for _ in range(rows)]
        right = [[draw(entry) for _ in range(cols)] for _ in range(inner)]
        M = exact.matmul(left, right) if rows else []
    else:
        M = [[draw(entry) for _ in range(cols)] for _ in range(rows)]
    if draw(st.booleans()):
        for i in draw(st.sets(st.integers(0, max(rows - 1, 0)), max_size=2)):
            if i < rows:
                M[i] = [Fraction(0)] * cols
        for j in draw(st.sets(st.integers(0, max(cols - 1, 0)), max_size=2)):
            if j < cols:
                for row in M:
                    row[j] = Fraction(0)
    return M


def test_rref_and_rank():
    R, pivots = exact.rref(mat([[1, 2, 3], [2, 4, 6], [0, 0, 1]]))
    assert pivots == [0, 2]
    assert R == mat([[1, 2, 0], [0, 0, 1], [0, 0, 0]])
    R, pivots = exact.rref(mat([[0, Fraction(-1, 2), 3], [Fraction(2, 3), 1, 0]]))
    assert pivots == [0, 1]
    assert R == [[1, 0, 9], [0, 1, -6]]
    assert all(type(x) is Fraction for row in R for x in row)
    assert exact.rank(mat([[1, 2], [2, 4]])) == 1


def test_kernel_is_exact_nullspace():
    M = mat([[1, 2, 3], [4, 5, 6]])
    N = exact.kernel(M)
    assert exact.shape(N) == (3, 1)
    prod = exact.matmul(M, N)
    assert all(x == 0 for row in prod for x in row)


def test_colspace_picks_pivot_columns():
    M = mat([[1, 2, 0], [2, 4, 1]])
    C = exact.colspace(M)
    assert exact.shape(C) == (2, 2)
    assert C[0][0] == 1 and C[1][0] == 2


def test_sum_intersect_dimensions():
    B1 = mat([[1, 0], [0, 1], [0, 0]])
    B2 = mat([[0, 0], [1, 0], [0, 1]])
    assert exact.shape(exact.sum_spans(B1, B2))[1] == 3
    inter = exact.intersect_spans(B1, B2)
    assert exact.shape(inter)[1] == 1
    # the intersection is the middle axis
    v = [inter[i][0] for i in range(3)]
    assert v[0] == 0 and v[2] == 0 and v[1] != 0


def test_preimage_span():
    M = mat([[1, 0], [0, 1]])
    B = mat([[1], [1]])
    P = preimage_span(M, B)
    assert exact.shape(P)[1] == 1
    assert P[0][0] == P[1][0]


def test_det_and_solve_affine():
    assert exact.det(mat([[1, 2], [3, 4]])) == Fraction(-2)
    A = mat([[1, 1, 0], [0, 0, 1]])
    sol = exact.solve_affine(A, [Fraction(2), Fraction(5)])
    assert sol is not None
    x0, null = sol
    assert x0[0] + x0[1] == 2 and x0[2] == 5
    assert exact.shape(null)[1] == 1
    inconsistent = exact.solve_affine(mat([[1, 1], [1, 1]]),
                                      [Fraction(0), Fraction(1)])
    assert inconsistent is None


@pytest.mark.parametrize("r, c", itertools.product(range(3), repeat=2))
def test_operations_keep_the_shape_numpy_gives(r, c):
    # Two matrices with no rows compare equal as lists whatever their widths,
    # so the shapes are asserted, not only the entries. X is a Vandermonde
    # block on distinct nodes, of rank min(r, c).
    X = np.array([[(i + 1) ** j / 2 for j in range(c)] for i in range(r)]).reshape(r, c)
    M, rank = exact.from_array(X), min(r, c)
    assert exact.shape(M) == X.shape
    assert exact.to_array(M).shape == X.shape and np.array_equal(exact.to_array(M), X)
    assert exact.shape(exact.zeros(r, c)) == (r, c)
    assert exact.shape(exact.eye(c)) == (c, c)
    assert exact.shape(exact.transpose(M)) == (c, r)
    stacks = {
        (r, c): [exact.hstack(M, exact.zeros(r, 0)), exact.hstack(exact.zeros(r, 0), M),
                 exact.vstack(M, exact.zeros(0, c)), exact.vstack(exact.zeros(0, c), M)],
        (r, 2 * c): [exact.hstack(M, M)],
        (2 * r, c): [exact.vstack(M, M)],
    }
    for want, mats in stacks.items():
        assert [exact.shape(S) for S in mats] == [want] * len(mats)
    product = exact.matmul(exact.zeros(r, 0), exact.zeros(0, c))
    assert exact.shape(product) == (r, c) and product == exact.zeros(r, c)
    assert exact.shape(exact.kernel(exact.zeros(0, c))) == (c, c)
    assert exact.kernel(exact.zeros(0, c)) == exact.eye(c)
    N = exact.kernel(M)
    assert exact.shape(N) == (c, c - rank)
    assert exact.shape(exact.matmul(M, N)) == (r, c - rank)
    R, pivots = exact.rref(M)
    assert exact.shape(R) == (r, c) and len(pivots) == rank
    assert exact.shape(exact.colspace(M)) == (r, rank)
    assert exact.shape(exact.clear_denominators(M)) == (r, c)


def test_exact_coupling_check_agrees_with_analyze_p1_on_every_small_shape():
    """The generator's exact check of conditions ii and iii,
    `generate._solvable_measurement`, against `analyze_p1` on every shape
    with n, m, q, p and r in {0, 1, 2}, in both domains: 486 plants with
    entries in {-1, 0, 1}, the discrete A divided by 4. With p = 0 there is
    no measurement, so ker [C G_y] is the whole space."""
    rng = np.random.default_rng(0)

    def draw(a, b):
        return rng.integers(-1, 2, size=(a, b)).astype(float)

    wrong = []
    for domain in ("continuous", "discrete"):
        for n, m, q, p, r in itertools.product(range(3), repeat=5):
            A = draw(n, n) / (4 if domain == "discrete" else 1)
            B, H, C, D_y, G_y = draw(n, m), draw(n, q), draw(p, n), draw(p, m), draw(p, q)
            E, D_z, G_z = draw(r, n), draw(r, m), draw(r, q)
            report = analyze_p1(PlantSystem(A, B, H, C, D_y, G_y, E, D_z, G_z,
                                            time_domain=domain))
            V = exact.vstar_span(*map(exact.from_array, (A, B, E, D_z)))
            got = generate._solvable_measurement(A, H, C, G_y, E, G_z, V)
            if got != (report.condition("ii").passed and report.condition("iii").passed):
                wrong.append((domain, n, m, q, p, r))
    assert wrong == []


def test_grid_points_are_distinct():
    pts = grid_points(5)
    assert pts == [Fraction(0), Fraction(1), Fraction(-1), Fraction(2), Fraction(-2)]
    assert len(set(pts)) == 5


@PROPERTY
@given(st.lists(st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
                min_size=1, max_size=12), st.integers(0, 11))
def test_float_integers_share_one_exact_denominator(values, split):
    # two arrays, one possibly empty, over one common denominator
    arrays = [np.array(values[:split]).reshape(1, -1), np.array(values[split:]).reshape(-1, 1)]
    ints, d = exact._float_integers(*arrays)
    assert all(type(x) is int for M in ints for row in M for x in row)
    for M, rows in zip(arrays, ints):
        assert [[Fraction(x, d) for x in row] for row in rows] == exact.from_array(M)
    dens = {Fraction(x).denominator for x in values}
    assert d == max(dens)


def test_vstar_sstar_on_scalar_channel_plant(scalar_channel_plant):
    V = exact.vstar_span(
        exact.from_array(scalar_channel_plant.A), exact.from_array(scalar_channel_plant.B),
        exact.from_array(scalar_channel_plant.E), exact.from_array(scalar_channel_plant.D_z))
    assert exact.shape(V)[1] == 1
    assert V[1][0] == 0  # spanned by the first axis
    S = exact.sstar_span(
        exact.from_array(scalar_channel_plant.A), exact.from_array(scalar_channel_plant.H),
        exact.from_array(scalar_channel_plant.C), exact.from_array(scalar_channel_plant.G_y))
    assert exact.shape(S)[1] == 0


def test_clear_denominators_preserves_span():
    B = [[Fraction(1, 2)], [Fraction(1, 3)]]
    C = exact.clear_denominators(B)
    assert all(x.denominator == 1 for row in C for x in row)
    assert equal_span(B, C)


def test_affine_family_reproduces_hand_solution(singular_family_plant):
    # bottom-row constraints force k11 = -1, k12 = 0, leaving two freedoms
    Atil = np.block([[singular_family_plant.A, singular_family_plant.H], [singular_family_plant.E, singular_family_plant.G_z]])
    Btil = np.vstack([singular_family_plant.B, singular_family_plant.D_z])
    Ctil = np.hstack([singular_family_plant.C, singular_family_plant.G_y])
    S = mat([[1], [-1], [1]])
    V = exact.eye(3)
    Tb = exact.vstack(exact.hstack(S, exact.zeros(3, 2)),
                      exact.hstack(exact.zeros(2, 1), exact.eye(2)))
    Vext = exact.vstack(V, exact.zeros(1, 3))
    N = exact.transpose(exact.kernel(exact.transpose(Vext)))
    fam = exact.affine_k_family(
        exact.from_array(Atil), exact.from_array(Btil),
        exact.from_array(Ctil), Tb, N)
    assert fam is not None
    assert fam.K0[0][0] == -1 and fam.K0[0][1] == 0
    assert len(fam.directions) == 2
    # and the determinant vanishes identically on that family
    Dy = exact.from_array(singular_family_plant.D_y)
    assert exact.det_grid_scan(fam, Dy, 4) is None


def test_annihilator_rows_without_entries_leave_k_free():
    # With no rows in [Atil Btil] an annihilator row has no entries, and
    # constrains nothing: the family is the one of no annihilator rows,
    # K0 = 0 and one direction per entry of K.
    Atil, Btil = exact.zeros(0, 2), exact.zeros(0, 2)
    Ctil, Tb = exact.from_array([[1, 0]]), exact.eye(2)
    free = exact.affine_k_family(Atil, Btil, Ctil, Tb, exact.zeros(0, 0))
    fam = exact.affine_k_family(Atil, Btil, Ctil, Tb, exact.zeros(1, 0))
    assert (fam.K0, fam.directions) == (free.K0, free.directions)
    assert exact.shape(fam.K0) == (2, 1) and len(fam.directions) == 2


def test_det_grid_scan_finds_witness():
    fam = exact.ExactAffineFamily(exact.eye(2), [exact.eye(2)])
    Dy = exact.eye(2)
    witness = exact.det_grid_scan(fam, Dy, 4)
    assert witness is not None


def test_det_grid_scan_degree_bound():
    # K = diag(theta - 1, theta - 2), D_y = I: det(I + K) = theta (theta - 1)
    # has degree m = 2 and vanishes on the first two grid points, 0 and 1
    fam = exact.ExactAffineFamily(mat([[-1, 0], [0, -2]]), [exact.eye(2)])
    Dy = exact.eye(2)
    assert exact.det_grid_scan(fam, Dy, 2) is None
    assert tuple(exact.det_grid_scan(fam, Dy, 3)) == (Fraction(-1),)


def test_det_grid_scan_order_and_no_directions():
    one, zero, minus = [[Fraction(1)]], [[Fraction(0)]], [[Fraction(-1)]]
    half = [[Fraction(1, 2)]]
    units = [[[Fraction(int(i == j == k), 1 + (k == 2)) for j in range(3)] for i in range(3)]
             for k in range(3)]
    cases = [  # (K0, directions, Dy, points per parameter, witness)
        # no directions: the one grid point is K0 itself
        (zero, [], one, 3, []),
        (minus, [], one, 3, None),
        (mat([[1, 0], [0, 2]]), [], exact.eye(2), 1, []),
        (mat([[-1, 0], [0, 2]]), [], mat([[1, 0], [0, 0]]), 3, None),
        # det = theta_1 + theta_2, nonzero at (1, 0) and (0, 1): the first
        # parameter varies fastest
        (minus, [one, one], one, 3, [1, 0]),
        # det = (theta_1 + theta_2 + theta_3) / 2 - 1: nonzero at the origin
        ([[Fraction(-2)]], [half, half, half], one, 3, [0, 0, 0]),
        # det = theta_1 theta_2 theta_3 / 2: the first corner with all nonzero
        (mat([[-1, 0, 0], [0, -1, 0], [0, 0, -1]]), units, exact.eye(3), 3, [1, 1, 1]),
        # det = theta_1 (theta_1 - 1): zero on the two-point grid, not the three
        (mat([[-1, 0], [0, -2]]), [exact.eye(2)], exact.eye(2), 2, None),
        (mat([[-1, 0], [0, -2]]), [exact.eye(2)], exact.eye(2), 3, [-1]),
    ]
    for K0, dirs, Dy, points, want in cases:
        got = exact.det_grid_scan(exact.ExactAffineFamily(K0, dirs), Dy, points)
        assert got == reference_det_grid_scan(K0, dirs, Dy, points) == want


@PROPERTY
@given(rational_matrices())
def test_rref_matches_fraction_reference(M):
    R, pivots = exact.rref(M)
    R_ref, pivots_ref = reference_rref(M)
    assert pivots == pivots_ref
    assert R == R_ref
    assert [[type(x) for x in row] for row in R] == [[type(x) for x in row] for row in R_ref]
    assert exact.rank(M) == len(pivots_ref)


@PROPERTY
@given(rational_matrices())
def test_kernel_and_colspace_match_fraction_reference(M):
    ncols = exact.shape(M)[1]
    R_ref, pivots = reference_rref(M)
    free = [c for c in range(ncols) if c not in pivots]
    expected = [[-R_ref[pivots.index(c)][fc] if c in pivots else Fraction(int(c == fc))
                 for fc in free] for c in range(ncols)]
    assert exact.kernel(M) == expected
    assert exact.colspace(M) == [[row[c] for c in pivots] for row in M]


@PROPERTY
@given(rational_matrices(), st.integers(0, 6))
def test_contains_span_matches_fraction_reference(M, split):
    # outer = the first columns of M, inner = the rest
    split = min(split, exact.shape(M)[1])
    outer = [row[:split] for row in M]
    inner = [row[split:] for row in M]
    expected = (exact.shape(inner)[1] == 0
                or len(reference_rref(outer)[1]) == len(reference_rref(M)[1]))
    assert exact.contains_span(outer, inner) == expected


@PROPERTY
@given(rational_matrices(), st.data())
def test_solve_affine_matches_rref_and_kernel(A, data):
    # b in the column space of A half the time, arbitrary otherwise
    nrows, ncols = exact.shape(A)
    if data.draw(st.booleans()):
        x = [[data.draw(ENTRIES["mixed"])] for _ in range(ncols)]
        b = [row[0] for row in exact.matmul(A, x)] if ncols else [Fraction(0)] * nrows
    else:
        b = [data.draw(ENTRIES["mixed"]) for _ in range(nrows)]
    R, pivots = exact.rref([row + [v] for row, v in zip(A, b)])
    got = exact.solve_affine(A, b)
    if ncols in pivots:
        assert got is None
        return
    x0, null = got
    assert [sum((a * v for a, v in zip(row, x0)), Fraction(0)) for row in A] == b
    assert all(x0[c] == 0 for c in range(ncols) if c not in pivots)
    want = exact.kernel(A)
    assert null == want
    assert [[type(v) for v in row] for row in null] == [[type(v) for v in row] for row in want]
    assert all(type(v) is Fraction for v in x0)


@PROPERTY
@given(rational_matrices(square=True))
def test_det_matches_fraction_reference(M):
    d = exact.det(M)
    assert d == reference_det(M)
    assert type(d) is Fraction


def assert_positive_multiples(got, want):
    """got has want's shape, Fraction entries, and each column a positive
    multiple of want's column; so both clear to the same integers."""
    assert exact.shape(got) == exact.shape(want)
    assert all(type(x) is Fraction for row in got for x in row)
    for j in range(exact.shape(want)[1]):
        g, w = [row[j] for row in got], [row[j] for row in want]
        ratio = next(a / b for a, b in zip(g, w) if b != 0)
        assert ratio > 0 and g == [ratio * b for b in w]
    assert exact.clear_denominators(got) == exact.clear_denominators(want)


@st.composite
def quadruples(draw):
    """Fraction quadruples (A, B, C, D) drawn from a seeded generator: n 2 to
    5, m and p 0 to 3, entries small integers, mostly zeros, dyadic or
    rationals with small denominators. D is zero half the time: a strictly
    proper system with few outputs has star subspaces strictly between 0
    and X."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, m, p = int(rng.integers(2, 6)), int(rng.integers(0, 4)), int(rng.integers(0, 4))
    kind = rng.integers(4)

    def entry():
        if kind == 0:
            return Fraction(int(rng.integers(-3, 4)))
        if kind == 1:
            return Fraction(int(rng.choice([0, 0, 0, 0, 1, -1, 2])))
        if kind == 2:
            return exact.fr(rng.integers(-64, 65) / 2.0 ** rng.integers(0, 8))
        return Fraction(int(rng.integers(-20, 21)), int(rng.integers(1, 13)))

    def block(r, c):
        return [[entry() for _ in range(c)] for _ in range(r)]

    D = block(p, m) if rng.integers(2) else exact.zeros(p, m)
    return block(n, n), block(n, m), block(p, n), D


@PROPERTY
@given(quadruples())
def test_star_spans_are_positive_multiples_of_fraction_reference(quad):
    assert_positive_multiples(exact.vstar_span(*quad), reference_vstar_span(*quad))
    assert_positive_multiples(exact.sstar_span(*quad), reference_sstar_span(*quad))
    # the twin's recursion on [C S_k  D] spans the literal recursion's S*
    (A, B, C, D), _ = exact._scaled(*quad)
    grown = exact._span(exact._sstar_small(A, B, C, D, exact.shape(B)[1]), len(A))
    literal = exact.sstar_span(*quad)
    assert exact.contains_span(literal, grown) and exact.contains_span(grown, literal)


QUADRUPLE_CORNERS = {
    "p = 0": lambda A, B, C, D: not C,
    "m = 0": lambda A, B, C, D: not B[0],
    "zero D": lambda A, B, C, D: bool(C and B[0]) and not any(x for row in D for x in row),
}


@pytest.mark.parametrize("corner", sorted(QUADRUPLE_CORNERS))
def test_quadruples_reach_empty_sides_and_a_zero_d(corner):
    holds = QUADRUPLE_CORNERS[corner]
    find(quadruples(), lambda quad: holds(*quad),
         settings=settings(derandomize=True, database=None))


@PROPERTY
@given(rational_matrices(), st.data())
def test_span_operations_are_positive_multiples_of_fraction_reference(M, data):
    rows = exact.shape(M)[0]
    B = data.draw(rational_matrices(rows=rows))
    assert_positive_multiples(exact.intersect_spans(M, B), reference_intersect_spans(M, B))
    assert_positive_multiples(preimage_span(M, B), reference_preimage_span(M, B))
    B = data.draw(rational_matrices(rows=exact.shape(M)[1])) if rows else []
    assert_positive_multiples(image_span(M, B),
                              reference_colspace(reference_matmul(M, B)))


@PROPERTY
@given(rational_matrices(square=True), st.data())
def test_invariant_hull_is_a_positive_multiple_of_fraction_reference(A, data):
    n = exact.shape(A)[0]
    B = data.draw(rational_matrices(rows=n))
    want = reference_colspace(B)
    for _ in range(n + 1):
        grown = reference_colspace(exact.hstack(
            want, reference_colspace(reference_matmul(A, want))))
        if exact.shape(grown)[1] == exact.shape(want)[1]:
            break
        want = grown
    assert_positive_multiples(exact.invariant_hull_smallest(A, B), want)


@PROPERTY
@given(rational_matrices(), rational_matrices())
def test_matmul_and_kernel_equal_fraction_reference(A, B):
    B = [row[:exact.shape(B)[1]] for row in B[:exact.shape(A)[1]]]
    if exact.shape(B)[0] == exact.shape(A)[1]:
        got = exact.matmul(A, B)
        assert got == reference_matmul(A, B)
        assert all(type(x) is Fraction for row in got for x in row)
    assert exact.kernel(A) == reference_kernel(A)


@PROPERTY
@given(rational_matrices(), st.data())
def test_solve_affine_equals_fraction_reference(A, data):
    b = [data.draw(ENTRIES["mixed"]) for _ in range(exact.shape(A)[0])]
    if data.draw(st.booleans()) and exact.shape(A)[1]:
        x = [[data.draw(ENTRIES["small"])] for _ in range(exact.shape(A)[1])]
        b = [row[0] for row in reference_matmul(A, x)]
    ncols = exact.shape(A)[1]
    R, pivots = reference_rref([row + [v] for row, v in zip(A, b)])
    got = exact.solve_affine(A, b)
    if ncols in pivots:
        assert got is None
        return
    x0 = [Fraction(0)] * ncols
    for r, pc in enumerate(pivots):
        x0[pc] = R[r][ncols]
    assert got == (x0, reference_kernel(A))


@PROPERTY
@given(st.data())
def test_affine_k_family_equals_fraction_reference(data):
    entry = ENTRIES[data.draw(st.sampled_from(sorted(ENTRIES)))]
    rows, cols = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 5))
    m, p = data.draw(st.integers(0, 3)), data.draw(st.integers(0, 3))

    def block(r, c):
        return [[data.draw(entry) for _ in range(c)] for _ in range(r)]

    Btil, Ctil = block(rows, m), block(p, cols)
    if m and p and data.draw(st.booleans()):
        # feasible by construction: K = Kstar solves N (Atil + Btil K Ctil) Tb = 0
        BKC = reference_matmul(Btil, reference_matmul(block(m, p), Ctil))
        Atil = [[-x for x in row] for row in BKC]
    else:
        Atil = block(rows, cols)
    Tb = block(cols, data.draw(st.integers(0, cols)))
    N = block(data.draw(st.integers(0, rows)), rows)
    got = exact.affine_k_family(Atil, Btil, Ctil, Tb, N)
    want = reference_affine_k_family(Atil, Btil, Ctil, Tb, N)
    if want is None:
        assert got is None
        return
    assert (got.K0, got.directions) == want
    assert all(type(x) is Fraction for M in [got.K0, *got.directions]
               for row in M for x in row)


@PROPERTY
@given(st.data())
def test_det_grid_scan_equals_fraction_reference(data):
    points = data.draw(st.integers(1, 4))
    if data.draw(st.booleans()):
        # K = -I/c + sum theta_i c_i E_ii, D_y = c I: det(I + K D_y) is a
        # multiple of the product of the covered theta_i, zero everywhere
        # when an entry is left uncovered
        m = p = data.draw(st.integers(1, 3))
        c = data.draw(st.sampled_from([Fraction(1), Fraction(1, 2), Fraction(-2, 3)]))
        K0 = [[-1 / c if i == j else Fraction(0) for j in range(m)] for i in range(m)]
        dirs = []
        for i in data.draw(st.lists(st.integers(0, m - 1), max_size=m, unique=True)):
            D = exact.zeros(m, m)
            D[i][i] = data.draw(st.sampled_from([Fraction(-2), Fraction(1, 2), Fraction(3)]))
            dirs.append(D)
        Dy = [[c if i == j else Fraction(0) for j in range(m)] for i in range(m)]
    else:
        entry = ENTRIES[data.draw(st.sampled_from(["mixed", "small", "sparse"]))]
        m, p = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))

        def block(r, c):
            return [[data.draw(entry) for _ in range(c)] for _ in range(r)]

        K0 = block(m, p)
        dirs = [block(m, p) for _ in range(data.draw(st.integers(0, 3)))]
        Dy = block(p, m)
    family = exact.ExactAffineFamily(K0, dirs)
    got = exact.det_grid_scan(family, Dy, points)
    want = reference_det_grid_scan(K0, dirs, Dy, points)
    assert got == want
    if got is not None:
        assert all(type(x) is Fraction for x in got)
        K = family.member(got)
        assert K == [[k + sum((t * D[i][j] for t, D in zip(got, dirs)), Fraction(0))
                      for j, k in enumerate(row)] for i, row in enumerate(K0)]
