import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st
from scipy.interpolate import BSpline

from specal.basis import (
    KnotVector,
    PenaltyMatrix,
    cached_design_matrix,
    design_matrix,
    knots_from_grid,
    make_knots,
    penalty_matrix,
)
from specal.errors import (
    DomainError,
    InvalidBasisError,
    InvalidDomainError,
    InvalidGridError,
    UnsupportedOrderError,
)

from oracles import basis_values, derivative_matrix


def naive_bspline(knots, order, k, t):
    """Textbook recursion, the independent oracle for single values."""
    if order == 1:
        return 1.0 if knots[k] <= t < knots[k + 1] else 0.0
    value = 0.0
    left = knots[k + order - 1] - knots[k]
    if left > 0:
        value += (t - knots[k]) / left * naive_bspline(knots, order - 1, k, t)
    right = knots[k + order] - knots[k + 1]
    if right > 0:
        value += (knots[k + order] - t) / right * naive_bspline(knots, order - 1, k + 1, t)
    return value


def random_knots(rng, num_basis):
    interior = np.sort(rng.uniform(0.0, 10.0, num_basis - 4))
    return KnotVector(np.concatenate([np.zeros(4), interior, np.full(4, 10.0)]))


def repeated_knot_vector(rng, num_basis=24):
    """Random clamped knots on [0, 10] with one interior knot doubled."""
    interior = np.sort(rng.uniform(0.0, 10.0, num_basis - 4))
    interior[7] = interior[8]
    return KnotVector(np.concatenate([np.zeros(4), interior, np.full(4, 10.0)]))


def greville_points(kv):
    """Knot averages; using them as coefficients reproduces the identity."""
    return np.array([kv.knots[i + 1:i + kv.order].mean() for i in range(kv.num_basis)])


def dense_penalty(penalty):
    """The K-by-K matrix held by a PenaltyMatrix, from its lower band."""
    band = penalty.band
    k = band.shape[0]
    r = np.zeros((k, k))
    for q in range(band.shape[1]):
        rows = np.arange(k - q)
        r[rows + q, rows] = band[:k - q, q]
        r[rows, rows + q] = band[:k - q, q]
    return r


def dense_gauss_penalty(kv):
    """Penalty from a dense table of second derivatives at two Gauss nodes
    per span, weighted and multiplied out in full."""
    a, b = kv.domain
    breaks = np.unique(kv.knots)
    breaks = breaks[(breaks >= a) & (breaks <= b)]
    lo, hi = breaks[:-1], breaks[1:]
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    offset = half / np.sqrt(3.0)
    nodes = np.concatenate([mid - offset, mid + offset])
    weights = np.concatenate([half, half])
    d2 = basis_values(kv.knots, kv.order, nodes, deriv=2)
    entries = (d2 * weights[:, None]).T @ d2
    return 0.5 * (entries + entries.T)


class TestMakeKnots:
    def test_minimal_cubic(self):
        kv = make_knots((0.0, 1.0), 4)
        npt.assert_array_equal(kv.knots, [0, 0, 0, 0, 1, 1, 1, 1])
        assert kv.num_basis == 4

    def test_uniform_interior(self):
        kv = make_knots((0.0, 10.0), 6)
        npt.assert_allclose(kv.knots[4:6], [10 / 3, 20 / 3])

    def test_smoothing_dimension(self):
        # dimension = number of interior sites + order
        grid = np.arange(350.0, 751.0, 5.0)
        kv = knots_from_grid(grid)
        assert kv.num_basis == (grid.size - 2) + 4 == 83
        assert kv.knots.size == kv.num_basis + 4

    def test_rejects_small_basis(self):
        with pytest.raises(InvalidBasisError):
            make_knots((0.0, 1.0), 3)

    def test_rejects_bad_domain(self):
        with pytest.raises(InvalidDomainError):
            make_knots((1.0, 1.0), 6)

    def test_rejects_excess_multiplicity(self):
        with pytest.raises(InvalidBasisError):
            KnotVector(np.array([0.0] * 5 + [1.0] * 4))


class TestEvalBasis:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(4, 18), st.floats(0.0, 1.0), st.integers(0, 2 ** 31 - 1))
    def test_partition_of_unity(self, num_basis, frac, seed):
        kv = random_knots(np.random.default_rng(seed), num_basis)
        t = 10.0 * frac
        values = design_matrix(kv, [t]).dense()[0]
        assert abs(values.sum() - 1.0) < 1e-12
        assert np.all(values >= 0)
        assert np.count_nonzero(values) <= 4

    def test_matches_naive_recursion(self):
        kv = random_knots(np.random.default_rng(5), 9)
        for t in np.linspace(0.01, 9.99, 7):
            values = design_matrix(kv, [t]).dense()[0]
            oracle = [naive_bspline(kv.knots, 4, k, t) for k in range(9)]
            npt.assert_allclose(values, oracle, atol=1e-13)

    def test_cardinal_cubic_central_value(self):
        # Single cubic spline on simple knots 0..4: value 2/3 at the middle.
        knots = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
        assert naive_bspline(knots, 4, 0, 2.0) == pytest.approx(2 / 3)
        value = basis_values(knots, 4, np.array([2.0]))
        npt.assert_allclose(value, [[2 / 3]], atol=1e-14)

    def test_left_endpoint_is_first_function(self):
        kv = make_knots((2.0, 7.0), 9)
        values = design_matrix(kv, [2.0]).dense()[0]
        expected = np.zeros(9)
        expected[0] = 1.0
        npt.assert_allclose(values, expected, atol=1e-15)

    def test_local_support(self):
        kv = random_knots(np.random.default_rng(11), 12)
        for t in np.linspace(0.0, 10.0, 23):
            values = design_matrix(kv, [t]).dense()[0]
            for k in range(kv.num_basis):
                if t < kv.knots[k] or t > kv.knots[k + 4]:
                    assert values[k] == 0.0

    def test_rejects_outside_domain(self):
        kv = make_knots((0.0, 1.0), 5)
        with pytest.raises(DomainError):
            design_matrix(kv, [1.0001])
        with pytest.raises(DomainError):
            design_matrix(kv, [-0.0001])


class TestDesignMatrix:
    def test_minimal_basis_endpoints(self):
        kv = make_knots((0.0, 1.0), 4)
        mat = design_matrix(kv, np.array([0.0, 1.0])).dense()
        npt.assert_allclose(mat, [[1, 0, 0, 0], [0, 0, 0, 1]], atol=1e-15)

    def test_row_sums(self):
        rng = np.random.default_rng(2)
        kv = random_knots(rng, 10)
        grid = np.sort(rng.uniform(0, 10, 40))
        grid = np.unique(grid)
        mat = design_matrix(kv, grid).dense()
        npt.assert_allclose(mat.sum(axis=1), 1.0, atol=1e-12)

    def test_full_rank_on_interlacing_grid(self):
        # Greville sites interlace the knots, so the design has full rank;
        # the rank check itself goes through an SVD, independent of the
        # evaluation recurrence.
        kv = random_knots(np.random.default_rng(3), 11)
        grid = np.unique(
            np.concatenate([greville_points(kv), np.linspace(0, 10, 25)])
        )
        mat = design_matrix(kv, grid).dense()
        assert np.linalg.matrix_rank(mat) == kv.num_basis

    def test_rejects_unsorted_or_duplicate_grid(self):
        kv = make_knots((0.0, 1.0), 5)
        with pytest.raises(InvalidGridError):
            design_matrix(kv, np.array([0.3, 0.2, 0.8]))
        with pytest.raises(InvalidGridError):
            design_matrix(kv, np.array([0.2, 0.2, 0.8]))


    def test_cached_matrix_keyed_by_grid_values(self):
        kv = make_knots((0.0, 10.0), 8)
        grid = np.linspace(0.0, 10.0, 41)
        first = cached_design_matrix(kv, grid)
        assert not first.values.flags.writeable
        assert not first.first.flags.writeable
        npt.assert_array_equal(first.dense(), design_matrix(kv, grid).dense())
        assert cached_design_matrix(kv, grid.copy()) is first
        assert cached_design_matrix(make_knots((0.0, 10.0), 8), grid) is not first
        shifted = 0.9 * grid
        other = cached_design_matrix(kv, shifted)
        npt.assert_array_equal(other.dense(), design_matrix(kv, shifted).dense())
        assert cached_design_matrix(kv, shifted.copy()) is other
        # The knot vector holds its matrix weakly: once the callers drop
        # it, it is freed and the next call evaluates again.
        del other
        assert kv.__dict__["_design"][1]() is None
        npt.assert_array_equal(cached_design_matrix(kv, shifted).dense(),
                               design_matrix(kv, shifted).dense())


def band_cases():
    """(knots, grid, B'B half-bandwidth) of five bases: every site a knot,
    14 uniform functions, random knots with a double and a triple interior
    knot, every site of a non-uniform grid a knot, and unclamped knots,
    whose last site's span reaches past the last basis function."""
    rng = np.random.default_rng(14)
    grid = np.arange(350.0, 751.0, 5.0)
    interior = np.sort(rng.uniform(0.0, 10.0, 20))
    interior[7] = interior[8]
    interior[12:15] = interior[12]
    repeated = KnotVector(np.concatenate([np.zeros(4), interior, np.full(4, 10.0)]))
    uneven = np.concatenate([[0.0], np.sort(rng.uniform(0.0, 10.0, 60)), [10.0]])
    return {
        "every-site": (knots_from_grid(grid), grid, 2),
        "k14": (make_knots((350.0, 750.0), 14), grid, 3),
        "repeated-knots": (repeated, np.linspace(0.0, 10.0, 97), 3),
        "non-uniform": (knots_from_grid(uneven), uneven, 2),
        "unclamped": (KnotVector(np.arange(12.0)), np.linspace(3.0, 8.0, 33), 3),
    }


def assert_band_close(got, want):
    npt.assert_allclose(got, want, rtol=1e-14, atol=1e-14 * np.abs(want).max())


class TestBandOracle:
    """The banded design and its products against scipy's dense design."""

    @pytest.mark.parametrize("case", list(band_cases()))
    def test_products_match_scipy(self, case):
        kv, grid, width = band_cases()[case]
        b = design_matrix(kv, grid)
        want = BSpline.design_matrix(grid, kv.knots, kv.order - 1).toarray()
        k = kv.num_basis
        assert b.width == width
        assert b.values.shape == (grid.size, kv.order)
        assert_band_close(b.dense(), want)
        band = b.gram_band(3)
        gram = want.T @ want
        for q in range(4):
            assert_band_close(band[:k - q, q], np.diag(gram, -q))
            npt.assert_array_equal(band[k - q:, q], 0.0)
        rng = np.random.default_rng(15)
        x = rng.standard_normal((2, 3, grid.size))
        assert_band_close(b.left_multiply(x), x @ want)
        assert_band_close(b.left_multiply(x[0, 0]), x[0, 0] @ want)
        theta = rng.standard_normal((3, k))
        assert_band_close(b.evaluate(theta), theta @ want.T)
        assert_band_close(b.evaluate(theta[0]), theta[0] @ want.T)
        for start in range(0, grid.size, 8):
            stop = min(start + 8, grid.size)
            assert_band_close(b.rows(start, stop), want[start:stop])


class TestDerivatives:
    def test_first_derivative_matches_finite_differences(self):
        kv = random_knots(np.random.default_rng(7), 9)
        grid = np.linspace(0.5, 9.5, 17)
        h = 1e-6
        d1 = derivative_matrix(kv, grid, deriv=1)
        fd = (basis_values(kv.knots, 4, grid + h)
              - basis_values(kv.knots, 4, grid - h)) / (2 * h)
        npt.assert_allclose(d1, fd, atol=1e-6)

    def test_second_derivative_matches_finite_differences(self):
        kv = random_knots(np.random.default_rng(8), 8)
        grid = np.linspace(0.5, 9.5, 11)
        h = 1e-4
        d2 = derivative_matrix(kv, grid, deriv=2)
        fd = (
            basis_values(kv.knots, 4, grid + h)
            - 2 * basis_values(kv.knots, 4, grid)
            + basis_values(kv.knots, 4, grid - h)
        ) / h ** 2
        npt.assert_allclose(d2, fd, atol=1e-4)


class TestPenaltyMatrix:
    def test_constant_and_linear_null_space(self):
        kv = random_knots(np.random.default_rng(9), 12)
        r = dense_penalty(penalty_matrix(kv))
        ones = np.ones(kv.num_basis)
        line = greville_points(kv)
        scale = np.abs(r).max() * line @ line
        assert abs(ones @ r @ ones) < 1e-10
        assert abs(line @ r @ line) < 1e-10 * max(scale, 1.0)

    def test_positive_on_curved_coefficients(self):
        kv = make_knots((0.0, 1.0), 8)
        r = dense_penalty(penalty_matrix(kv))
        curved = greville_points(kv) ** 2
        assert curved @ r @ curved > 1e-6

    def test_matches_fine_grid_trapezoid_oracle(self):
        kv = random_knots(np.random.default_rng(10), 9)
        r = dense_penalty(penalty_matrix(kv))
        a, b = kv.domain
        dense = np.linspace(a, b, 60001)
        d2 = derivative_matrix(kv, dense, deriv=2)
        oracle = np.trapezoid(d2[:, :, None] * d2[:, None, :], dense, axis=0)
        npt.assert_allclose(r, oracle, atol=1e-8 * max(1.0, np.abs(r).max()))

    def test_band_is_a_read_only_copy(self):
        source = np.ones((5, 4))
        penalty = PenaltyMatrix(source)
        assert not penalty.band.flags.writeable
        source[0, 0] = 5.0
        assert penalty.band[0, 0] == 1.0
        for shape in ((5,), (5, 0), (5, 6)):
            with pytest.raises(InvalidBasisError):
                PenaltyMatrix(np.ones(shape))

    def test_building_holds_no_square_matrix(self):
        # The assembly writes the (K, 4) band directly; a K-by-K array
        # alone would be 8 K^2 bytes.
        import tracemalloc

        kv = knots_from_grid(np.linspace(350.0, 750.0, 1001))
        k = kv.num_basis
        tracemalloc.start()
        try:
            penalty_matrix(kv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert k == 1003
        assert peak < 0.02 * k * k * 8

    def test_symmetric_psd_banded(self):
        kv = random_knots(np.random.default_rng(12), 14)
        r = dense_penalty(penalty_matrix(kv))
        assert np.abs(r - r.T).max() < 1e-14
        assert np.linalg.eigvalsh(r).min() > -1e-10 * np.abs(r).max()
        k = kv.num_basis
        for i in range(k):
            for j in range(k):
                if abs(i - j) > 3:
                    assert r[i, j] == 0.0

    @pytest.mark.parametrize("kv", [
        knots_from_grid(np.arange(350.0, 751.0, 1.0)),
        make_knots((350.0, 750.0), 14),
        repeated_knot_vector(np.random.default_rng(13)),
    ], ids=["K403", "K14", "repeated-knot"])
    def test_matches_dense_gauss_quadrature(self, kv):
        r = dense_penalty(penalty_matrix(kv))
        oracle = dense_gauss_penalty(kv)
        npt.assert_allclose(r, oracle, rtol=1e-12,
                            atol=1e-12 * np.abs(oracle).max())

    def test_rejects_non_cubic(self):
        kv = KnotVector(np.array([0.0, 0, 0, 1, 2, 2, 2]), order=3)
        with pytest.raises(UnsupportedOrderError):
            penalty_matrix(kv)
