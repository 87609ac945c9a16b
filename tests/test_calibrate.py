import numpy as np
import numpy.testing as npt
import pytest
import scipy.linalg as sla
from hypothesis import assume, given, settings, strategies as st
from scipy.optimize import nnls

from specal.basis import design_matrix, make_knots, penalty_matrix
from specal.calibrate import (
    DEFAULT_PHI_GRID,
    CovarianceModel,
    _uniform_lags,
    _whiten,
    _WhitenedSystem,
    empirical_covariogram,
    fit_covariance,
    fit_gls,
    fit_ols,
    fit_penalized,
    gcv_score,
    gls_loo_coefficients,
    loo_coefficients,
    select_lambda,
)
from specal.errors import (
    CovarianceConditioningError,
    DegenerateCovarianceError,
    DegenerateGcvError,
    InvalidParameterError,
    SingularDesignError,
)
from specal.model import (
    AggregatedDesign,
    ConcentrationMatrix,
    SpectraSet,
    assemble_design,
)
from specal.simulate import STRONG_PHI, WEAK_PHI, gp_cholesky

from test_model import make_dataset


def small_design(rng, num_samples=3, num_points=10, num_basis=5, num_analytes=1,
                 noise=0.05):
    grid = np.linspace(0.0, 1.0, num_points)
    kv = make_knots((0.0, 1.0), num_basis)
    b = design_matrix(kv, grid)
    coef = rng.standard_normal((num_analytes + 1, num_basis))
    y = rng.uniform(0.1, 1.5, (num_samples, num_analytes))
    w = coef[0] @ b.T + y @ (coef[1:] @ b.T) + noise * rng.standard_normal(
        (num_samples, num_points)
    )
    spectra = SpectraSet(grid=grid, absorbance=w)
    conc = ConcentrationMatrix(values=y)
    return assemble_design(spectra, conc, kv), kv


class TestFitOls:
    def test_noiseless_recovery(self):
        rng = np.random.default_rng(0)
        spectra, conc, kv, coef = make_dataset(rng, sum_zero=True)
        model = fit_ols(assemble_design(spectra, conc, kv))
        npt.assert_allclose(model.coefficients, coef,
                            atol=1e-8 * np.abs(coef).max())

    def test_baseline_only_orthonormal_projection(self):
        # One sample, no analytes, orthonormal basis block: the estimate is
        # the plain projection of the spectrum onto the columns.
        rng = np.random.default_rng(1)
        q, _ = np.linalg.qr(rng.standard_normal((12, 4)))
        w = rng.standard_normal((1, 12))
        grid = np.linspace(0.0, 1.0, 12)
        design = AggregatedDesign(
            b=q,
            conc_aug=np.array([[1.0], [0.0]]),
            spectra=SpectraSet(grid=grid, absorbance=w),
            concentrations=ConcentrationMatrix(values=np.zeros((1, 0))),
            basis=make_knots((0.0, 1.0), 4),
        )
        model = fit_ols(design, diagnostics=False)
        npt.assert_allclose(model.coefficients.ravel(), q.T @ w[0], atol=1e-12)

    def test_matches_dense_lstsq_oracle(self):
        rng = np.random.default_rng(2)
        for seed in range(5):
            design, _ = small_design(np.random.default_rng(seed))
            model = fit_ols(design)
            oracle = np.linalg.lstsq(design.x_plus, design.w_plus, rcond=None)[0]
            npt.assert_allclose(model.coefficients.ravel(), oracle, atol=1e-10)

    def test_residual_orthogonality(self):
        for seed in range(20):
            design, _ = small_design(np.random.default_rng(seed))
            model = fit_ols(design)
            resid = design.w_plus - design.x_plus @ model.coefficients.ravel()
            score = design.x_plus.T @ resid
            scale = np.abs(design.x_plus).max() * np.abs(design.w_plus).max()
            assert np.abs(score).max() < 1e-8 * max(scale, 1.0)

    def test_rank_deficient_basis_raises(self):
        # More basis functions than resolvable by two grid points.
        grid = np.linspace(0.0, 1.0, 3)
        kv = make_knots((0.0, 1.0), 5)
        spectra = SpectraSet(grid=grid, absorbance=np.ones((3, 3)))
        conc = ConcentrationMatrix(values=np.array([[0.1], [0.5], [0.9]]))
        design = assemble_design(spectra, conc, kv)
        with pytest.raises(SingularDesignError):
            fit_ols(design)


class TestFitPenalized:
    def test_lambda_zero_equals_ols(self):
        rng = np.random.default_rng(3)
        design, kv = small_design(rng)
        pen = penalty_matrix(kv)
        a = fit_ols(design).coefficients
        b = fit_penalized(design, pen, 0.0).coefficients
        npt.assert_allclose(a, b, atol=1e-10 * np.abs(a).max())

    def test_huge_lambda_flattens_curvature(self):
        rng = np.random.default_rng(4)
        spectra, conc, kv, _ = make_dataset(rng, noise=0.2)
        design = assemble_design(spectra, conc, kv)
        pen = penalty_matrix(kv)
        from specal.basis import derivative_matrix

        d2 = derivative_matrix(kv, spectra.grid, deriv=2)
        flat = fit_penalized(design, pen, 1e12).coefficients
        rough = fit_penalized(design, pen, 0.0).coefficients
        assert np.abs(flat @ d2.T).max() < 1e-6 * np.abs(rough @ d2.T).max()

    def test_is_minimizer(self):
        rng = np.random.default_rng(5)
        design, kv = small_design(rng)
        pen = penalty_matrix(kv).entries
        lam = 0.3
        coef = fit_penalized(design, penalty_matrix(kv), lam).coefficients

        def objective(c):
            resid = design.w_plus - design.x_plus @ c.ravel()
            rough = sum(row @ pen @ row for row in c)
            return resid @ resid + lam * rough

        base = objective(coef)
        for _ in range(100):
            delta = 1e-3 * rng.standard_normal(coef.shape)
            assert objective(coef + delta) >= base - 1e-12

    def test_penalized_normal_equations(self):
        rng = np.random.default_rng(6)
        design, kv = small_design(rng)
        pen = penalty_matrix(kv).entries
        lam = 2.5
        coef = fit_penalized(design, penalty_matrix(kv), lam).coefficients
        g = design.x_plus.T @ design.x_plus
        p_full = np.kron(np.eye(coef.shape[0]), pen)
        lhs = (g + lam * p_full) @ coef.ravel()
        rhs = design.x_plus.T @ design.w_plus
        npt.assert_allclose(lhs, rhs, atol=1e-8 * max(np.abs(rhs).max(), 1.0))

    def test_continuity_in_lambda(self):
        rng = np.random.default_rng(7)
        design, kv = small_design(rng)
        pen = penalty_matrix(kv)
        lam = 1.0
        base = fit_penalized(design, pen, lam).coefficients
        eps = 1e-6
        bumped = fit_penalized(design, pen, lam + eps).coefficients
        slope = np.abs(bumped - base).max() / eps
        coarse = fit_penalized(design, pen, lam + 0.1).coefficients
        coarse_slope = np.abs(coarse - base).max() / 0.1
        assert slope < 10 * max(coarse_slope, 1.0)

    def test_rejects_negative_lambda(self):
        rng = np.random.default_rng(8)
        design, kv = small_design(rng)
        with pytest.raises(InvalidParameterError):
            fit_penalized(design, penalty_matrix(kv), -1.0)


class TestGcv:
    def test_trace_equals_dimension_at_zero(self):
        rng = np.random.default_rng(9)
        design, kv = small_design(rng, num_samples=5)
        model = fit_penalized(design, penalty_matrix(kv), 0.0)
        assert model.diagnostics.hat_trace == pytest.approx(
            design.num_coefficients, abs=1e-6
        )

    def test_trace_identity_against_leverages(self):
        rng = np.random.default_rng(10)
        design, kv = small_design(rng, num_samples=4)
        pen = penalty_matrix(kv)
        lam = 0.7
        model = fit_penalized(design, pen, lam)
        x = design.x_plus
        g = x.T @ x + lam * np.kron(np.eye(2), pen.entries)
        leverage = np.einsum("ij,ji->i", x, np.linalg.solve(g, x.T))
        assert model.diagnostics.hat_trace == pytest.approx(
            leverage.sum(), abs=1e-6
        )

    def test_monotone_rss_in_lambda(self):
        rng = np.random.default_rng(11)
        design, kv = small_design(rng, noise=0.2)
        pen = penalty_matrix(kv)
        lams = [0.0, 0.01, 0.1, 1.0, 10.0, 100.0]
        rss = [fit_penalized(design, pen, lam).diagnostics.rss for lam in lams]
        assert np.all(np.diff(rss) >= -1e-10)

    def test_grid_minimizer_self_consistent(self):
        rng = np.random.default_rng(12)
        spectra, conc, kv, _ = make_dataset(rng, noise=0.3)
        design = assemble_design(spectra, conc, kv)
        pen = penalty_matrix(kv)
        grid = np.logspace(-3, 4, 12)
        chosen = select_lambda(design, pen, grid)
        scores = np.array([gcv_score(design, pen, lam) for lam in grid])
        assert chosen == pytest.approx(grid[int(np.argmin(scores))])

    def test_single_element_grid(self):
        rng = np.random.default_rng(13)
        design, kv = small_design(rng)
        assert select_lambda(design, penalty_matrix(kv), np.array([3.0])) == 3.0

    def test_decreasing_scores_pick_last(self):
        # A noisy linear truth smooths without penalty cost, so GCV keeps
        # improving over a short increasing grid.
        rng = np.random.default_rng(14)
        grid_t = np.linspace(0.0, 1.0, 30)
        kv = make_knots((0.0, 1.0), 10)
        y = rng.uniform(0.2, 0.8, (4, 1))
        w = 1.0 + y * grid_t[None, :] + 0.3 * rng.standard_normal((4, 30))
        design = assemble_design(
            SpectraSet(grid=grid_t, absorbance=w),
            ConcentrationMatrix(values=y), kv,
        )
        pen = penalty_matrix(kv)
        lam_grid = np.array([1e-6, 1e-4, 1e-2])
        scores = [gcv_score(design, pen, lam) for lam in lam_grid]
        assert np.all(np.diff(scores) < 0)
        assert select_lambda(design, pen, lam_grid) == lam_grid[-1]

    def test_selected_rss_close_to_fine_grid_oracle(self):
        # Smoothing-spline setup with a smooth truth; the coarse-grid
        # selection must land within a factor two of the RSS at the
        # exhaustive fine-grid choice.
        from specal.basis import knots_from_grid

        rng = np.random.default_rng(30)
        grid_t = np.linspace(0.0, 1.0, 25)
        kv = knots_from_grid(grid_t)
        y = rng.uniform(0.2, 0.8, (6, 2))
        curves = np.vstack([np.sin(2 * np.pi * grid_t),
                            np.cos(2 * np.pi * grid_t)])
        w = 1.0 + y @ curves + 0.2 * rng.standard_normal((6, 25))
        design = assemble_design(
            SpectraSet(grid=grid_t, absorbance=w),
            ConcentrationMatrix(values=y), kv,
        )
        pen = penalty_matrix(kv)
        lam_coarse = select_lambda(design, pen, np.logspace(-8, 4, 9))
        lam_fine = select_lambda(design, pen, np.logspace(-8, 4, 97))
        rss_coarse = fit_penalized(design, pen, lam_coarse).diagnostics.rss
        rss_fine = fit_penalized(design, pen, lam_fine).diagnostics.rss
        assert np.isfinite(lam_coarse) and lam_coarse > 0
        assert 0.5 <= rss_coarse / rss_fine <= 2.0

    def test_fit_diagnostics_gcv_equals_gcv_score(self):
        # Fits, scores and lambda selection share one GCV evaluation, so the
        # fit's recorded score and gcv_score agree exactly.
        from specal.basis import knots_from_grid

        rng = np.random.default_rng(31)
        designs = [small_design(rng, num_samples=4)]
        grid_t = np.linspace(0.0, 1.0, 25)
        kv = knots_from_grid(grid_t)
        y = rng.uniform(0.2, 0.8, (6, 2))
        w = 1.0 + y @ np.vstack([np.sin(2 * np.pi * grid_t), grid_t ** 2]) \
            + 0.2 * rng.standard_normal((6, 25))
        designs.append((assemble_design(SpectraSet(grid=grid_t, absorbance=w),
                                        ConcentrationMatrix(values=y), kv), kv))
        for design, kv in designs:
            pen = penalty_matrix(kv)
            for lam in (0.7, 1e3):
                gcv = fit_penalized(design, pen, lam).diagnostics.gcv
                assert gcv is not None
                assert gcv == gcv_score(design, pen, lam)

    def test_empty_or_invalid_grid(self):
        rng = np.random.default_rng(15)
        design, kv = small_design(rng)
        pen = penalty_matrix(kv)
        with pytest.raises(InvalidParameterError):
            select_lambda(design, pen, np.array([]))
        with pytest.raises(InvalidParameterError):
            select_lambda(design, pen, np.array([0.0, 1.0]))

    def test_degenerate_gcv_when_trace_reaches_rows(self):
        # Two grid points cannot out-number eight coefficients: at tiny
        # lambda the smoother interpolates every row.
        grid = np.array([0.0, 1.0])
        kv = make_knots((0.0, 1.0), 4)
        spectra = SpectraSet(grid=grid, absorbance=np.array([[1.0, 2.0]]))
        conc = ConcentrationMatrix(values=np.array([[0.5]]))
        design = assemble_design(spectra, conc, kv)
        with pytest.raises((DegenerateGcvError, SingularDesignError)):
            gcv_score(design, penalty_matrix(kv), 1e-12)


class TestDemmlerReinsch:
    """Dense oracles for the one-factorization solver.

    ``knots_from_grid`` puts K = T + 2 basis functions on T sites, so the
    basis Gram is singular and only the penalty makes the system solvable.
    The 10 nm grid keeps the dense oracle itself accurate to about 1e-10
    over the whole lambda range.
    """

    def make(self):
        from specal.basis import knots_from_grid

        rng = np.random.default_rng(40)
        grid_t = 350.0 + 10.0 * np.arange(15)
        kv = knots_from_grid(grid_t)
        t = (grid_t - grid_t[0]) / (grid_t[-1] - grid_t[0])
        y = rng.uniform(0.2, 0.8, (6, 2))
        w = 1.0 + y @ np.vstack([np.sin(2 * np.pi * t), t ** 2]) \
            + 0.1 * rng.standard_normal((6, 15))
        design = assemble_design(SpectraSet(grid=grid_t, absorbance=w),
                                 ConcentrationMatrix(values=y), kv)
        return design, penalty_matrix(kv)

    def test_matches_dense_penalized_system(self):
        design, pen = self.make()
        x, w = design.x_plus, design.w_plus
        assert np.linalg.matrix_rank(design.b.T @ design.b) < design.num_basis
        for lam in (1e-4, 1.0, 1e8):
            gram = x.T @ x + lam * np.kron(np.eye(3), pen.entries)
            theta = np.linalg.solve(gram, x.T @ w)
            model = fit_penalized(design, pen, lam)
            npt.assert_allclose(model.coefficients.ravel(), theta, rtol=0,
                                atol=1e-8 * np.abs(theta).max())
            hat = np.trace(x @ np.linalg.solve(gram, x.T))
            assert model.diagnostics.hat_trace == pytest.approx(hat, rel=1e-9)

    def test_gcv_rss_matches_direct_residual(self):
        # The RSS read off the spectrum (projection RSS plus the shrinkage
        # terms) equals the residual of the solved coefficients, on the
        # singular smoothing-spline design and on a full-rank one.
        spline, spline_pen = self.make()
        small, kv = small_design(np.random.default_rng(41), num_samples=5)
        for design, pen in ((spline, spline_pen), (small, penalty_matrix(kv))):
            x, w = design.x_plus, design.w_plus
            for lam in (1e-4, 0.3, 1.0, 1e3, 1e8):
                model = fit_penalized(design, pen, lam)
                resid = w - x @ model.coefficients.ravel()
                assert model.diagnostics.rss == pytest.approx(resid @ resid,
                                                              rel=1e-10)

    def test_lambda_zero_on_singular_gram_raises(self):
        design, pen = self.make()
        with pytest.raises(SingularDesignError):
            fit_penalized(design, pen, 0.0)
        with pytest.raises(SingularDesignError):
            dict(loo_coefficients(design, pen, 0.0))


class TestLooRefits:
    def test_fast_path_matches_naive(self):
        rng = np.random.default_rng(16)
        spectra, conc, kv, _ = make_dataset(rng, noise=0.1)
        design = assemble_design(spectra, conc, kv)
        pen = penalty_matrix(kv)
        for lam in (0.0, 1.5):
            fast = dict(loo_coefficients(design, pen if lam else None, lam))
            for i in range(spectra.num_samples):
                keep = np.arange(spectra.num_samples) != i
                sub = assemble_design(
                    SpectraSet(grid=spectra.grid, absorbance=spectra.absorbance[keep]),
                    ConcentrationMatrix(values=conc.values[keep]),
                    kv,
                )
                naive = (fit_penalized(sub, pen, lam) if lam else fit_ols(sub))
                npt.assert_allclose(fast[i], naive.coefficients, atol=1e-9)


class TestCovariance:
    def test_recovers_known_parameters(self):
        grid = np.arange(0.0, 405.0, 5.0)
        chol = gp_cholesky(grid, 4.0, 0.002)
        sig, phi = [], []
        for seed in range(20):
            rng = np.random.default_rng(seed)
            resid = (chol @ rng.standard_normal((grid.size, 20))).T
            cov = fit_covariance(resid, np.ones((20, 1)), grid)
            sig.append(cov.sigma2[0])
            phi.append(cov.phi[0])
        assert abs(np.median(sig) - 4.0) / 4.0 < 0.15
        assert abs(np.median(phi) - 0.002) / 0.002 < 0.25

    def test_white_noise_gets_fast_decay(self):
        rng = np.random.default_rng(21)
        grid = np.arange(0.0, 405.0, 5.0)
        resid = 2.0 * rng.standard_normal((20, grid.size))
        cov = fit_covariance(resid, np.ones((20, 1)), grid)
        assert np.exp(-5.0 * cov.phi[0]) < 0.2

    def test_single_exponential_matches_covariogram(self):
        grid = np.arange(0.0, 405.0, 5.0)
        chol = gp_cholesky(grid, 4.0, 0.01)
        rng = np.random.default_rng(22)
        resid = (chol @ rng.standard_normal((grid.size, 30))).T
        cov = fit_covariance(resid, np.ones((30, 1)), grid)
        lags, covs, _ = empirical_covariogram(resid, grid)
        keep = lags <= 0.5 * lags[-1]
        fitted = cov.sigma2[0] * np.exp(-cov.phi[0] * lags[keep])
        empirical = covs[:, keep].mean(axis=0)
        rel = np.linalg.norm(fitted - empirical) / np.linalg.norm(empirical)
        assert rel < 0.3

    def test_covariogram_matches_pairwise_oracle(self):
        # Non-uniform grid with a lag (0.2) shared by two site pairs; every
        # ordered pair, the zero lag included, is counted once.
        rng = np.random.default_rng(23)
        grid = np.array([0.0, 0.3, 0.5, 1.1, 1.3, 2.0])
        resid = rng.standard_normal((3, grid.size))
        lags, covs, counts = empirical_covariogram(resid, grid)
        pairs, sums = {}, {}
        for n in range(grid.size):
            for k in range(grid.size):
                lag = round(abs(grid[n] - grid[k]), 9)
                pairs[lag] = pairs.get(lag, 0) + 1
                sums[lag] = sums.get(lag, 0.0) + resid[:, n] * resid[:, k]
        expected = sorted(pairs)
        assert pairs[0.2] == 4
        npt.assert_allclose(lags, expected, rtol=0, atol=1e-12)
        npt.assert_array_equal(counts, [pairs[lag] for lag in expected])
        npt.assert_allclose(
            covs, np.column_stack([sums[lag] / pairs[lag] for lag in expected]),
            rtol=1e-12, atol=1e-15,
        )

    @pytest.mark.parametrize("grid", [
        np.arange(350, 751, 1.0),
        np.arange(350, 750, 0.4),
        np.linspace(350, 750, 301),
    ], ids=["step1", "step0.4", "linspace"])
    def test_uniform_covariogram_matches_pairwise_oracle(self, grid):
        rng = np.random.default_rng(24)
        resid = rng.standard_normal((2, grid.size))
        assert _uniform_lags(grid) is not None      # the lagged-product path
        lags, covs, counts = empirical_covariogram(resid, grid)
        expected, oracle_covs, oracle_counts = pairwise_covariogram(resid, grid)
        npt.assert_array_equal(lags, expected)
        npt.assert_array_equal(counts, oracle_counts)
        npt.assert_allclose(covs, oracle_covs, rtol=1e-12,
                            atol=1e-15 * np.abs(oracle_covs).max())

    def test_jittered_grid_is_not_uniform(self):
        grid = np.arange(350, 751, 1.0)
        grid[200] += 1e-6
        assert _uniform_lags(grid) is None
        assert _uniform_lags(grid[::-1]) is None

    @pytest.mark.parametrize("num_samples,num_analytes,phi", [
        (20, 1, WEAK_PHI), (20, 1, STRONG_PHI),
        (30, 3, WEAK_PHI), (30, 3, STRONG_PHI),
        (2, 3, WEAK_PHI), (2, 3, STRONG_PHI),
    ])
    def test_reduced_fit_matches_stacked_nnls(self, num_samples, num_analytes,
                                              phi):
        # I = 2 with m = 3 leaves the thin QR with fewer rows than analytes.
        rng = np.random.default_rng(25 + num_samples + num_analytes)
        grid = np.arange(350.0, 751.0, 5.0)
        chol = gp_cholesky(grid, 4.0, phi)
        y = (np.ones((num_samples, 1)) if num_analytes == 1
             else rng.dirichlet(np.ones(num_analytes), num_samples))
        resid = np.stack([
            sum(y[i, k] * (chol @ rng.standard_normal(grid.size))
                for k in range(num_analytes))
            for i in range(num_samples)
        ])
        cov = fit_covariance(resid, y, grid)
        sigma2, phi_fit = stacked_covariance_fit(resid, y, grid)
        npt.assert_array_equal(cov.phi, phi_fit)
        npt.assert_allclose(cov.sigma2, np.maximum(sigma2, 1e-12), rtol=1e-10)
        assert cov.clipped == bool(np.any(sigma2 < 1e-12))

    def test_zero_residuals_degenerate(self):
        with pytest.raises(DegenerateCovarianceError):
            fit_covariance(np.zeros((5, 11)), np.ones((5, 1)),
                           np.linspace(0, 1, 11))


def pairwise_covariogram(resid, grid):
    """Covariogram by the double loop over every ordered site pair."""
    pairs, sums = {}, {}
    for n in range(grid.size):
        row_lags = np.round(np.abs(grid[n] - grid), 9).tolist()
        products = (resid[:, n, None] * resid).T.tolist()
        for lag, product in zip(row_lags, products):
            pairs[lag] = pairs.get(lag, 0) + 1
            acc = sums.setdefault(lag, [0.0] * len(product))
            for i, value in enumerate(product):
                acc[i] += value
    lags = sorted(pairs)
    counts = np.array([pairs[lag] for lag in lags], dtype=float)
    covs = np.array([sums[lag] for lag in lags]).T / counts
    return np.array(lags), covs, counts


def stacked_covariance_fit(resid, y, grid, phi_grid=DEFAULT_PHI_GRID):
    """The covariance fit on the full (I L)-by-m stacked NNLS design.

    Returns the unclipped variance scales and the decay rates, found by
    the same shared-then-cyclic search with the strict ``<`` rule.
    """
    lags, covs, counts = pairwise_covariogram(resid, grid)
    keep = lags <= 0.5 * lags[-1]
    lags, covs, counts = lags[keep], covs[:, keep], counts[keep]
    row_weights = np.tile(np.sqrt(counts), covs.shape[0])
    target = covs.ravel() * row_weights
    y_sq = y ** 2
    m = y.shape[1]

    def objective(phi_vec):
        decay = np.exp(-np.outer(lags, phi_vec))
        design = (y_sq[:, None, :] * decay[None, :, :]).reshape(-1, m)
        sigma2, rnorm = nnls(design * row_weights[:, None], target)
        return rnorm, sigma2

    best = (np.inf, None, None)
    for phi in phi_grid:
        sse, sigma2 = objective(np.full(m, phi))
        if sse < best[0]:
            best = (sse, sigma2, np.full(m, phi))
    for ell in range(m if m > 1 else 0):
        for phi in phi_grid:
            candidate = best[2].copy()
            candidate[ell] = phi
            sse, sigma2 = objective(candidate)
            if sse < best[0]:
                best = (sse, sigma2, candidate)
    return best[1], best[2]


def equal_norm_rows(num_samples, num_analytes=2):
    theta = np.linspace(0.2, 1.3, num_samples)
    return np.column_stack([np.cos(theta), np.sin(theta)])[:, :num_analytes]


class TestGls:
    def make(self, seed, num_samples=8, noise=0.1):
        rng = np.random.default_rng(seed)
        grid = np.linspace(0.0, 10.0, 31)
        kv = make_knots((0.0, 10.0), 6)
        b = design_matrix(kv, grid)
        coef = rng.standard_normal((3, 6))
        y = equal_norm_rows(num_samples)
        w = coef[0] @ b.T + y @ (coef[1:] @ b.T) + noise * rng.standard_normal(
            (num_samples, 31)
        )
        return (SpectraSet(grid=grid, absorbance=w),
                ConcentrationMatrix(values=y), kv, b, coef)

    def test_scalar_covariance_reduces_to_ols(self):
        spectra, conc, kv, b, _ = self.make(23)
        for scale in (1.0, 3.7):
            cov = CovarianceModel(sigma2=np.full(2, scale), phi=np.full(2, 1e4))
            model = fit_gls(spectra, conc, kv, cov)
            x = np.kron(np.column_stack([np.ones(8), conc.values]), b)
            ols = np.linalg.lstsq(x, spectra.absorbance.ravel(), rcond=None)[0]
            npt.assert_allclose(model.coefficients.ravel(), ols,
                                atol=1e-8 * np.abs(ols).max())

    def test_matches_whitened_lstsq_oracle(self):
        spectra, conc, kv, b, _ = self.make(24)
        cov = CovarianceModel(sigma2=np.array([0.5, 2.0]), phi=np.array([0.3, 1.0]))
        model = fit_gls(spectra, conc, kv, cov)
        blocks, rhs = [], []
        for i in range(8):
            sigma = cov.sample_covariance(spectra.grid, conc.values[i])
            chol = np.linalg.cholesky(sigma)
            xi = np.kron(np.concatenate([[1.0], conc.values[i]])[None, :], b)
            blocks.append(np.linalg.solve(chol, xi))
            rhs.append(np.linalg.solve(chol, spectra.absorbance[i]))
        oracle = np.linalg.lstsq(np.vstack(blocks), np.concatenate(rhs), rcond=None)[0]
        npt.assert_allclose(model.coefficients.ravel(), oracle,
                            atol=1e-10 * max(np.abs(oracle).max(), 1.0))

    def test_beats_ols_under_true_strong_covariance(self):
        # Aggregate coefficient error over replicates; with the exact noise
        # covariance supplied, the weighted estimator cannot lose.  The
        # sample noise scales differ (concentration-dependent covariance),
        # which is exactly what the weighting exploits.
        grid = np.linspace(0.0, 10.0, 31)
        kv = make_knots((0.0, 10.0), 6)
        b = design_matrix(kv, grid)
        rng = np.random.default_rng(25)
        coef = rng.standard_normal((3, 6))
        scales = np.linspace(0.5, 2.0, 10)[:, None]
        y = scales * (equal_norm_rows(10) + rng.uniform(0, 0.3, (10, 2)))
        cov = CovarianceModel(sigma2=np.array([2.0, 2.0]), phi=np.array([0.08, 0.08]))
        chols = [
            np.linalg.cholesky(cov.sample_covariance(grid, y[i]))
            for i in range(10)
        ]
        x = np.kron(np.column_stack([np.ones(10), y]), b)
        gls_err = ols_err = 0.0
        for rep in range(50):
            rng_rep = np.random.default_rng(1000 + rep)
            noise = np.vstack([
                chols[i] @ rng_rep.standard_normal(31) for i in range(10)
            ])
            w = coef[0] @ b.T + y @ (coef[1:] @ b.T) + noise
            spectra = SpectraSet(grid=grid, absorbance=w)
            conc = ConcentrationMatrix(values=y)
            gls_coef = fit_gls(spectra, conc, kv, cov, diagnostics=False).coefficients
            ols_coef = np.linalg.lstsq(x, w.ravel(), rcond=None)[0].reshape(3, 6)
            gls_err += np.sum((gls_coef - coef) ** 2)
            ols_err += np.sum((ols_coef - coef) ** 2)
        assert gls_err <= ols_err

    def test_blank_sample_takes_jitter_fallback(self):
        # An all-zero concentration row has a zero noise covariance; that
        # sample is whitened against 1e-8 mean(sigma2) I instead.
        spectra, conc, kv, b, _ = self.make(28)
        y = conc.values.copy()
        y[3] = 0.0
        conc = ConcentrationMatrix(values=y)
        cov = CovarianceModel(sigma2=np.array([0.5, 2.0]), phi=np.array([0.3, 1.0]))
        model = fit_gls(spectra, conc, kv, cov)
        jitter = 1e-8 * np.mean(cov.sigma2) * np.eye(spectra.grid.size)
        blocks, rhs = [], []
        for i in range(8):
            sigma = cov.sample_covariance(spectra.grid, y[i])
            chol = np.linalg.cholesky(sigma + jitter if i == 3 else sigma)
            xi = np.kron(np.concatenate([[1.0], y[i]])[None, :], b)
            blocks.append(np.linalg.solve(chol, xi))
            rhs.append(np.linalg.solve(chol, spectra.absorbance[i]))
        oracle = np.linalg.lstsq(np.vstack(blocks), np.concatenate(rhs), rcond=None)[0]
        npt.assert_allclose(model.coefficients.ravel(), oracle,
                            atol=1e-9 * max(np.abs(oracle).max(), 1.0))

    def test_unwhitenable_sample_raises(self):
        # A noise variance y^2 sigma2 that overflows to infinity fails the
        # jitter fallback too.
        spectra, conc, kv, _, _ = self.make(29)
        conc = ConcentrationMatrix(values=10.0 * conc.values)
        cov = CovarianceModel(sigma2=np.array([1e307, 1.0]), phi=np.array([0.3, 1.0]))
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(CovarianceConditioningError):
            fit_gls(spectra, conc, kv, cov)

    def test_loo_fast_path_matches_naive(self):
        spectra, conc, kv, _, _ = self.make(26)
        cov = CovarianceModel(sigma2=np.array([0.5, 2.0]), phi=np.array([0.3, 1.0]))
        fast = dict(gls_loo_coefficients(spectra, conc, kv, cov))
        for i in (0, 4, 7):
            keep = np.arange(8) != i
            naive = fit_gls(
                SpectraSet(grid=spectra.grid, absorbance=spectra.absorbance[keep]),
                ConcentrationMatrix(values=conc.values[keep]),
                kv, cov, diagnostics=False,
            )
            npt.assert_allclose(fast[i], naive.coefficients, atol=1e-9)

    def test_closed_rows_need_augmentation(self):
        rng = np.random.default_rng(27)
        grid = np.linspace(0.0, 10.0, 31)
        kv = make_knots((0.0, 10.0), 6)
        b = design_matrix(kv, grid)
        coef = rng.standard_normal((3, 6))
        coef[1:] -= coef[1:].mean(axis=0)
        y = rng.dirichlet(np.ones(2), 8)
        w = coef[0] @ b.T + y @ (coef[1:] @ b.T) + 0.1 * rng.standard_normal((8, 31))
        spectra = SpectraSet(grid=grid, absorbance=w)
        conc = ConcentrationMatrix(values=y)
        cov = CovarianceModel(sigma2=np.array([1.0, 1.0]), phi=np.array([0.5, 0.5]))
        with pytest.raises(SingularDesignError):
            fit_gls(spectra, conc, kv, cov)
        model = fit_gls(spectra, conc, kv, cov, augment=True)
        npt.assert_allclose(model.coefficients, coef, atol=0.5)

    @pytest.mark.parametrize("eigenvalues, singular", [
        ([4.0, 1e-9], False), ([4.0, 1e-14], True), ([1e-3, 1e-11], False),
        ([1e-3, 1e-13], True), ([1e-20, 1e-20], True), ([4.0, 0.0], True),
    ])
    def test_singular_guard_threshold(self, eigenvalues, singular):
        # Singular when the smallest eigenvalue is at most 1e-12 max(largest, 1).
        rng = np.random.default_rng(5)
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        gram = (q * np.repeat(eigenvalues, 2)) @ q.T
        system = _WhitenedSystem.__new__(_WhitenedSystem)
        system.num_basis = 2
        if singular:
            with pytest.raises(SingularDesignError, match="augment=True"):
                system.solve(gram, np.ones(4))
        else:
            npt.assert_allclose(system.solve(gram, np.ones(4)).ravel(),
                                np.linalg.solve(gram, np.ones(4)), rtol=1e-6)


def dense_whitened(cov, grid, y, cols):
    """``L_i^-1 cols[:, i]`` per sample from the dense covariance's Cholesky."""
    out = np.empty_like(cols)
    for i, row in enumerate(y):
        chol = np.linalg.cholesky(cov.sample_covariance(grid, row))
        out[:, i] = sla.solve_triangular(chol, cols[:, i], lower=True)
    return out


def recursion_whitened(cov, grid, y, cols):
    out = cols.copy()
    _whiten(out, grid, y, cov)
    return out


FINE_GRID = np.arange(350.0, 751.0, 1.0)
JITTERED_GRID = FINE_GRID + np.random.default_rng(50).uniform(-0.4, 0.4,
                                                              FINE_GRID.size)


class TestInnovationsWhitening:
    """The innovations recursion against the dense Cholesky whitening.

    At ``phi = 1e-4`` the dense covariance is ill-conditioned and its
    Cholesky solve carries errors near 1e-10 of the largest entry (the
    recursion is exact there, see ``test_single_process_closed_form``), so
    the dense comparison allows 1e-9.
    """

    @pytest.mark.parametrize("grid", [FINE_GRID, JITTERED_GRID],
                             ids=["uniform", "jittered"])
    @pytest.mark.parametrize("phi", [
        (1e-4,), (0.3,), (7.0,), (1e4,),
        (1e-4, 0.3), (7.0, 1e4), (0.3, 0.3),
        (1e-4, 7.0, 1e4), (0.3, 0.3, 7.0),
    ])
    def test_matches_dense_cholesky(self, grid, phi):
        rng = np.random.default_rng(51)
        m = len(phi)
        cov = CovarianceModel(sigma2=np.linspace(0.5, 2.0, m), phi=np.array(phi))
        y = rng.uniform(0.0, 1.5, (3, m))
        if m > 1:
            y[0, 0] = 0.0               # one analyte absent from one sample
        cols = rng.standard_normal((grid.size, 3, 4))
        want = dense_whitened(cov, grid, y, cols)
        got = recursion_whitened(cov, grid, y, cols)
        npt.assert_allclose(got, want, rtol=0, atol=1e-9 * np.abs(want).max())

    @pytest.mark.parametrize("phi", [1e-4, 0.3, 1e4])
    def test_single_process_closed_form(self, phi):
        # One exponential process: z_0 = x_0 / sqrt(c) and
        # z_n = (x_n - a_n x_(n-1)) / sqrt(c (1 - a_n^2)).
        rng = np.random.default_rng(52)
        grid = JITTERED_GRID
        c = 0.7
        cov = CovarianceModel(sigma2=np.array([c]), phi=np.array([phi]))
        x = rng.standard_normal(grid.size)
        a = np.exp(-phi * np.diff(grid))
        fresh = -np.expm1(-2.0 * phi * np.diff(grid))
        want = np.concatenate([[x[0] / np.sqrt(c)],
                               (x[1:] - a * x[:-1]) / np.sqrt(c * fresh)])
        got = recursion_whitened(cov, grid, np.ones((1, 1)), x[:, None, None])
        npt.assert_allclose(got[:, 0, 0], want, rtol=0,
                            atol=1e-13 * np.abs(want).max())

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), num_points=st.integers(2, 60),
           num_analytes=st.integers(1, 3))
    def test_random_grids_match_dense_cholesky(self, data, num_points,
                                               num_analytes):
        gaps = data.draw(st.lists(st.floats(0.05, 5.0), min_size=num_points - 1,
                                  max_size=num_points - 1))
        grid = np.concatenate([[0.0], np.cumsum(gaps)])
        assume(np.all(np.diff(grid) > 0))
        log_phi = data.draw(st.lists(st.floats(-3.0, 3.0), min_size=num_analytes,
                                     max_size=num_analytes))
        y = np.array(data.draw(st.lists(st.floats(0.0, 2.0), min_size=num_analytes,
                                        max_size=num_analytes)))
        assume(np.max(y) > 0.05)
        cov = CovarianceModel(sigma2=np.linspace(1.0, 2.0, num_analytes),
                              phi=10.0 ** np.array(log_phi))
        cols = np.random.default_rng(num_points).standard_normal(
            (num_points, 1, 3))
        want = dense_whitened(cov, grid, y[None, :], cols)
        got = recursion_whitened(cov, grid, y[None, :], cols)
        npt.assert_allclose(got, want, rtol=0, atol=1e-8 * np.abs(want).max())
