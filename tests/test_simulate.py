import tracemalloc
from dataclasses import fields, replace

import numpy as np
import numpy.testing as npt
import pytest
from scipy.linalg.lapack import dtbtrs

from specal.calibrate import CovarianceModel, _whitened_blocks, fit_ols
from specal.errors import (
    CollinearConcentrationsError,
    InvalidBasisError,
    InvalidParameterError,
)
from specal.methods import (
    FUNCTIONAL_METHODS,
    MULTIVARIATE_METHODS,
    READ_FIELDS,
    FitSpec,
    make_strategy,
    resolve_sum_to,
)
from specal.model import ConcentrationMatrix, SpectraSet, assemble_design
from specal.predict import jackknife_sd
from specal.simulate import (
    STRONG_PHI,
    WEAK_PHI,
    SimConfig,
    generate_dataset,
    gp_cholesky,
    prediction_spectra,
    run_bias_variance_study,
    run_jackknife_study,
    sample_dirichlet,
    true_curves,
    _noise,
    _stream,
)

from oracles import by_fold, dense_factor, naive_jackknife_fits


def colour(band, normals):
    """The columns of ``normals`` times the factor whose inverse has the
    lower ``band``: the simulator's sampler."""
    return dtbtrs(band, normals, uplo="L")[0]


class TestDirichlet:
    def test_rows_on_simplex(self):
        rng = np.random.default_rng(0)
        draws = sample_dirichlet(rng, 500, 1.0, 3)
        npt.assert_allclose(draws.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(draws >= 0)

    def test_symmetric_moments(self):
        rng = np.random.default_rng(1)
        draws = sample_dirichlet(rng, 100_000, 1.0, 3)
        npt.assert_allclose(draws.mean(axis=0), 1 / 3, rtol=0.01)
        sd = draws.std(axis=0)
        npt.assert_allclose(sd, np.sqrt(1 / 18), rtol=0.03)

    def test_rejects_bad_alpha(self):
        with pytest.raises(InvalidParameterError):
            sample_dirichlet(np.random.default_rng(0), 5, 0.0, 3)


class TestGpSampler:
    @pytest.mark.parametrize("phi,expected", [(0.002, np.exp(-0.01)),
                                              (0.5, np.exp(-2.5))])
    def test_lag_five_correlation(self, phi, expected):
        grid = np.arange(350.0, 751.0, 5.0)
        band = gp_cholesky(grid, 4.0, phi)
        rng = np.random.default_rng(7)
        draws = colour(band, rng.standard_normal((grid.size, 2000))).T
        x = draws[:, :-1].ravel()
        z = draws[:, 1:].ravel()
        corr = (x * z).mean() / np.sqrt((x * x).mean() * (z * z).mean())
        assert abs(corr - expected) < 0.03

    def test_pointwise_variance(self):
        grid = np.arange(350.0, 751.0, 5.0)
        band = gp_cholesky(grid, 4.0, 0.5)
        rng = np.random.default_rng(8)
        draws = colour(band, rng.standard_normal((grid.size, 10_000))).T
        variances = draws.var(axis=0)
        assert np.all(np.abs(variances - 4.0) / 4.0 < 0.05)

    def test_covariance_convergence(self):
        grid = np.linspace(0.0, 40.0, 21)
        band = gp_cholesky(grid, 4.0, 0.1)
        rng = np.random.default_rng(9)
        draws = colour(band, rng.standard_normal((grid.size, 5000))).T
        empirical = np.cov(draws.T, bias=True)
        truth = 4.0 * np.exp(-0.1 * np.abs(grid[:, None] - grid[None, :]))
        rel = np.linalg.norm(empirical - truth) / np.linalg.norm(truth)
        assert rel < 0.10

    @pytest.mark.parametrize("phi", [WEAK_PHI, STRONG_PHI])
    @pytest.mark.parametrize("step", [5.0, 0.4], ids=["T81", "T1001"])
    def test_band_matches_dense_factor(self, step, phi):
        grid = SimConfig(grid_step=step, phi=phi).grid
        band = gp_cholesky(grid, 4.0, phi)
        assert band.shape == (2, grid.size)
        factor = colour(band, np.eye(grid.size))
        cov = 4.0 * np.exp(-phi * np.abs(grid[:, None] - grid[None, :]))
        for got, want in ((factor @ factor.T, cov),
                          (factor, dense_factor(grid, 4.0, phi))):
            npt.assert_allclose(got, want, rtol=0, atol=1e-12 * 4.0)

    @pytest.mark.parametrize("phi", [WEAK_PHI, STRONG_PHI])
    def test_whitening_returns_the_draws(self, phi):
        # GLS's whitening with the true sigma2 and phi undoes the simulator's
        # colouring: one analyte at y = 1 is the simulator's noise law.
        cfg = SimConfig(seed=5, num_samples=6, phi=phi)
        noise = _noise(cfg, 6, 1, 0)
        draws = np.vstack([_stream(cfg.seed, 1, 0, j).standard_normal(cfg.grid.size)
                           for j in range(6)])
        cov = CovarianceModel(sigma2=[cfg.sigma2], phi=[cfg.phi])
        blocks = [block[:, :, 0].copy() for block, _ in _whitened_blocks(
            [noise.T[:, :, None]], cfg.grid, np.ones((6, 1)), cov)]
        npt.assert_allclose(np.vstack(blocks).T, draws, rtol=0, atol=1e-10)

    def test_rejects_bad_parameters(self):
        # NaN fails every comparison, so it needs its own check.
        for sigma2, phi in [(-1.0, 0.5), (np.nan, 0.5), (np.inf, 0.5),
                            (1.0, 0.0), (1.0, np.nan), (1.0, np.inf)]:
            with pytest.raises(InvalidParameterError):
                gp_cholesky(np.linspace(0, 1, 5), sigma2, phi)


class TestGenerateDataset:
    def test_noiseless_limit_recovers_curves(self):
        cfg = SimConfig(seed=7, num_samples=20, phi=WEAK_PHI, sigma2=1e-20)
        spectra, conc, truth = generate_dataset(cfg)
        model = fit_ols(assemble_design(spectra, conc, truth.basis))
        err = model.curve_values(cfg.grid) - truth.curve_values
        assert np.abs(err).max() < 1e-4

    def test_sample_nesting(self):
        small = SimConfig(seed=7, num_samples=20, phi=WEAK_PHI)
        large = SimConfig(seed=7, num_samples=100, phi=WEAK_PHI)
        s20, c20, _ = generate_dataset(small)
        s100, c100, _ = generate_dataset(large)
        npt.assert_array_equal(s20.absorbance, s100.absorbance[:20])
        npt.assert_array_equal(c20.values, c100.values[:20])

    def test_bit_reproducible(self):
        cfg = SimConfig(seed=11, num_samples=10, phi=STRONG_PHI)
        a, ca, _ = generate_dataset(cfg)
        b, cb, _ = generate_dataset(cfg)
        npt.assert_array_equal(a.absorbance, b.absorbance)
        npt.assert_array_equal(ca.values, cb.values)

    def test_truth_record_round_trip(self):
        cfg = SimConfig(seed=3, num_samples=6, phi=WEAK_PHI)
        spectra, conc, truth = generate_dataset(cfg)
        mean = truth.curve_values[0] + conc.values @ truth.curve_values[1:]
        noise = spectra.absorbance - mean
        normals = np.column_stack([
            _stream(cfg.seed, 1, 0, i).standard_normal(cfg.grid.size)
            for i in range(6)
        ])
        expected = colour(gp_cholesky(cfg.grid, cfg.sigma2, cfg.phi), normals).T
        npt.assert_allclose(noise, expected, atol=1e-10)

    def test_peak_memory_at_a_fine_grid(self):
        # T = 1001: the dense T-by-T covariance alone would take 7.6 MiB.
        cfg = SimConfig(num_samples=20, grid_step=0.4)
        tracemalloc.start()
        try:
            generate_dataset(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20

    def test_residual_variance_matches_noise_level(self):
        cfg = SimConfig(seed=1, num_samples=20, phi=WEAK_PHI)
        spectra, conc, truth = generate_dataset(cfg)
        model = fit_ols(assemble_design(spectra, conc, truth.basis))
        mean_rss = model.diagnostics.rss / (20 * cfg.grid.size)
        assert abs(mean_rss - 4.0) / 4.0 < 0.20

    def test_sum_zero_projection_is_exact(self):
        kv, coef = true_curves((350.0, 750.0))
        npt.assert_allclose(coef[1:].sum(axis=0), 0.0, atol=1e-12)

    def test_config_validation(self):
        with pytest.raises(InvalidParameterError):
            SimConfig(seed=1, num_samples=2, phi=0.5)
        with pytest.raises(InvalidParameterError):
            SimConfig(seed=1, phi=-0.1)

    @pytest.mark.parametrize("name", ["alpha", "sigma2", "phi"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_noise_law_must_be_finite(self, name, value):
        with pytest.raises(InvalidParameterError, match="finite and positive"):
            SimConfig(**{name: value})


class TestJackknifeStudy:
    def test_single_replicate_degenerate_iqr(self):
        # One replicate leaves nothing to spread over: every per-component
        # IQR collapses (the pooled row still mixes components).
        cfg = SimConfig(seed=2, num_samples=10, phi=WEAK_PHI)
        result = run_jackknife_study(cfg, ["OLS-K"], replicates=1)
        stats = result.summary()["OLS-K"]
        npt.assert_array_equal(stats["iqr"], 0.0)

    def test_parallel_matches_serial(self):
        # The functional methods run their folds in blocks, the baselines
        # from one SVD; neither depends on the worker count.
        cfg = SimConfig(seed=2, num_samples=10, phi=WEAK_PHI)
        methods = ["OLS-K", "GLS-K", "OLS-SS", "MLR"]
        serial = run_jackknife_study(cfg, methods, replicates=4, jobs=1)
        parallel = run_jackknife_study(cfg, methods, replicates=4, jobs=2)
        assert serial.failures == parallel.failures == dict.fromkeys(methods, 0)
        for name in methods:
            npt.assert_array_equal(serial.spreads[name], parallel.spreads[name])

    def test_concentrations_fixed_across_replicates(self):
        cfg = SimConfig(seed=4, num_samples=8, phi=WEAK_PHI)
        _, c0, _ = generate_dataset(cfg, noise_stream=0)
        _, c5, _ = generate_dataset(cfg, noise_stream=5)
        npt.assert_array_equal(c0.values, c5.values)

    def test_unknown_method_rejected(self):
        cfg = SimConfig(seed=2, num_samples=10, phi=WEAK_PHI)
        with pytest.raises(InvalidParameterError):
            run_jackknife_study(cfg, ["OLS-X"], replicates=1)


@pytest.mark.parametrize("jobs", [0, -3])
@pytest.mark.parametrize("run", [
    lambda cfg, jobs: run_jackknife_study(cfg, ["OLS-K"], 1, jobs=jobs),
    lambda cfg, jobs: run_bias_variance_study(cfg, ["OLS-K"], 1, 1, jobs=jobs),
], ids=["jackknife", "bias-variance"])
def test_studies_reject_jobs_below_one(run, jobs):
    with pytest.raises(InvalidParameterError, match="jobs must be at least 1"):
        run(SimConfig(seed=1, num_samples=6), jobs)


class TestBiasVarianceStudy:
    def test_zero_noise_zero_bias_and_variance(self):
        cfg = SimConfig(seed=5, num_samples=12, phi=WEAK_PHI, sigma2=1e-22)
        result = run_bias_variance_study(cfg, ["OLS-K"], learning_sets=2,
                                         prediction_reps=2)
        assert result.squared_bias["OLS-K"].sum() < 1e-10
        assert result.variability["OLS-K"].sum() < 1e-10

    def test_prediction_spectra_deterministic(self):
        cfg = SimConfig(seed=6, num_samples=8, phi=WEAK_PHI)
        _, _, truth = generate_dataset(cfg)
        y_star = np.array([[0.2, 0.3, 0.5]])
        a = prediction_spectra(truth, y_star, 0, 0)
        b = prediction_spectra(truth, y_star, 0, 0)
        c = prediction_spectra(truth, y_star, 0, 1)
        npt.assert_array_equal(a.absorbance, b.absorbance)
        assert np.abs(a.absorbance - c.absorbance).max() > 1e-6

    def test_independent_learning_sets_differ(self):
        cfg = SimConfig(seed=6, num_samples=8, phi=WEAK_PHI)
        _, c0, _ = generate_dataset(cfg, conc_stream=0)
        _, c1, _ = generate_dataset(cfg, conc_stream=1)
        assert np.abs(c0.values - c1.values).max() > 1e-6


def fold_fits(strategy, spectra, conc):
    """``{i: coefficients}`` of the strategy's blocked leave-one-out pass."""
    _, _, leave_one_out, args = strategy._calibration(spectra, conc)
    return by_fold(leave_one_out(*args))


class TestStrategyFastPaths:
    @pytest.mark.parametrize("method", ["ols-k", "ols-ss"])
    def test_jackknife_fast_path_matches_naive_refits(self, method):
        cfg = SimConfig(seed=9, num_samples=8, phi=STRONG_PHI)
        spectra, conc, _ = generate_dataset(cfg)
        spec = FitSpec(method=method, num_basis=10,
                       lam=5.0 if method == "ols-ss" else None)
        fast_fits = fold_fits(make_strategy(spec), spectra, conc)
        naive = dict(naive_jackknife_fits(make_strategy(spec), spectra, conc))
        assert sorted(fast_fits) == sorted(naive)
        for i in fast_fits:
            npt.assert_allclose(
                fast_fits[i], naive[i].coefficients,
                atol=1e-8 * max(1.0, np.abs(naive[i].coefficients).max()),
            )

    def test_gls_fast_path_uses_shared_covariance(self):
        # The GLS jackknife estimates the covariance once on the
        # full data; with that covariance fixed, the downdated refits must
        # equal from-scratch refits on each fold.
        from specal.calibrate import fit_covariance, fit_gls
        from specal.model import SpectraSet
        from specal.basis import make_knots

        cfg = SimConfig(seed=9, num_samples=8, phi=STRONG_PHI)
        spectra, conc, _ = generate_dataset(cfg)
        spec = FitSpec(method="gls-k", num_basis=10)
        fast_fits = fold_fits(make_strategy(spec), spectra, conc)
        assert sorted(fast_fits) == list(range(8))
        kv = make_knots((cfg.grid_start, cfg.grid_end), 10)
        design = assemble_design(spectra, conc, kv)
        pilot = fit_ols(design, diagnostics=False)
        resid = spectra.absorbance - design.b.evaluate(
            design.conc_aug[:-1] @ pilot.coefficients)
        cov = fit_covariance(resid, conc, spectra.grid)
        for i in fast_fits:
            keep = np.arange(8) != i
            naive = fit_gls(assemble_design(
                SpectraSet(grid=spectra.grid, absorbance=spectra.absorbance[keep]),
                ConcentrationMatrix(values=conc.values[keep]), kv,
            ), cov, diagnostics=False)
            npt.assert_allclose(
                fast_fits[i], naive.coefficients,
                atol=1e-8 * max(1.0, np.abs(naive.coefficients).max()),
            )

    @pytest.mark.parametrize("spec", [
        FitSpec(method="ols-k"), FitSpec(method="ols-ss"),
        FitSpec(method="ols-ss", lam=5.0), FitSpec(method="gls-k"),
    ], ids=["ols-k", "ols-ss-gcv", "ols-ss-5", "gls-k"])
    @pytest.mark.parametrize("rows", ["closed", "open"])
    def test_held_out_predictions_match_naive_refits(self, monkeypatch, spec,
                                                     rows):
        # Each fold's held-out estimate from the block pass equals the
        # strategy's own prediction from a refit without that sample, at the
        # full fit's lambda and noise covariance.  22 samples leave a short
        # last block for every method.
        from specal.methods import FunctionalStrategy

        cfg = SimConfig(seed=12, num_samples=22, phi=STRONG_PHI)
        spectra, conc, _ = generate_dataset(cfg)
        if rows == "open":
            scales = np.random.default_rng(12).uniform(0.8, 1.2, (22, 1))
            conc = ConcentrationMatrix(values=conc.values * scales)
        strategy = make_strategy(spec)
        design, _, leave_one_out, args = strategy._calibration(spectra, conc)
        assert (design.closed_total is None) == (rows == "open")
        blocks = [len(coef) for _, coef in leave_one_out(*args)]
        assert 1 < len(blocks) and blocks[-1] < blocks[0]
        if spec.method == "ols-ss":
            spec = replace(spec, lam=args[2])
        if spec.method == "gls-k":
            monkeypatch.setattr(FunctionalStrategy, "_pilot_covariance",
                                lambda self, design, cov=args[1]: cov)
        got = list(strategy.jackknife_fits(spectra, conc))
        assert [i for i, _ in got] == list(range(22))
        naive = make_strategy(spec)
        rtol = 1e-8 if spec.method == "gls-k" else 1e-10
        for (i, y_hat), (j, fitted) in zip(got, naive_jackknife_fits(naive, spectra,
                                                                     conc)):
            held_out = SpectraSet(grid=spectra.grid,
                                  absorbance=spectra.absorbance[j:j + 1])
            npt.assert_allclose(y_hat, naive.predict_fitted(fitted, held_out)[0],
                                rtol=rtol)

    def test_gcv_fit_and_folds_factor_once(self, monkeypatch):
        # select_lambda and the fit (or the folds) at the chosen lambda
        # share one factorization of the design, with unchanged results.
        from specal import calibrate
        from specal.basis import knots_from_grid, penalty_matrix

        cfg = SimConfig(seed=9, num_samples=8, phi=STRONG_PHI)
        spectra, conc, _ = generate_dataset(cfg)
        kv = knots_from_grid(spectra.grid)
        pen = penalty_matrix(kv)
        lam = calibrate.select_lambda(assemble_design(spectra, conc, kv), pen)
        want = calibrate.fit_penalized(assemble_design(spectra, conc, kv), pen, lam)
        want_folds = by_fold(calibrate.loo_coefficients(
            assemble_design(spectra, conc, kv), pen, lam))

        calls = []
        original = calibrate._bands

        def counting(*args):
            calls.append(1)
            return original(*args)

        monkeypatch.setattr(calibrate, "_bands", counting)
        strategy = make_strategy(FitSpec(method="ols-ss"))
        got = strategy.fit(spectra, conc)
        assert len(calls) == 1
        npt.assert_array_equal(got.coefficients, want.coefficients)
        assert got.lam == lam
        folds = fold_fits(strategy, spectra, conc)
        assert len(calls) == 2
        assert sorted(folds) == sorted(want_folds)
        for i, coef in folds.items():
            npt.assert_array_equal(coef, want_folds[i])

    @pytest.mark.parametrize("method,evaluations", [
        ("ols-k", 1), ("ols-ss", 1), ("gls-k", 1),
    ])
    def test_jackknife_evaluates_basis_once(self, monkeypatch, method,
                                            evaluations):
        # The held-out predictions share the basis evaluation of the design
        # that the folds hold; GLS-K's pilot OLS fit and its whitened
        # system are built from that same design.
        from specal import model as model_layer

        cfg = SimConfig(seed=10, num_samples=8, phi=STRONG_PHI)
        spectra, conc, _ = generate_dataset(cfg)
        want = jackknife_sd(spectra, conc, FitSpec(method=method))
        calls = []
        original = model_layer.design_matrix

        def counting(*args):
            calls.append(1)
            return original(*args)

        monkeypatch.setattr(model_layer, "design_matrix", counting)
        got = jackknife_sd(spectra, conc, FitSpec(method=method))
        assert len(calls) == evaluations
        npt.assert_array_equal(got, want)


class TestJackknifeMatchesFit:
    """The jackknife resolves its method as the fit does."""

    @staticmethod
    def _collinear():
        cfg = SimConfig(seed=9, num_samples=8, phi=STRONG_PHI)
        spectra, conc, _ = generate_dataset(cfg)
        values = conc.values.copy()
        values[:, 2] = values[:, 1]
        return spectra, ConcentrationMatrix(values=values)

    @pytest.mark.parametrize("spec, error", [
        (FitSpec(method="ols-k"), CollinearConcentrationsError),
        (FitSpec(method="ols-ss"), CollinearConcentrationsError),
        (FitSpec(method="gls-k", num_basis=3), InvalidBasisError),
    ], ids=["ols-k", "ols-ss", "gls-k"])
    @pytest.mark.parametrize("run", [
        lambda spectra, conc, spec: list(
            make_strategy(spec).jackknife_fits(spectra, conc)),
        jackknife_sd,
    ], ids=["jackknife_fits", "jackknife_sd"])
    def test_edge_inputs_keep_their_error_type(self, spec, error, run):
        # The folds are resolved as the fit is, before the first one, so a
        # bad input fails with its own error, not a fold failure, and keeps
        # it through the loop that numbers the folds.
        spectra, conc = self._collinear()
        with pytest.raises(error):
            run(spectra, conc, spec)

    @pytest.mark.parametrize("method", ["ols-k", "ols-ss", "gls-k"])
    @pytest.mark.parametrize("sum_to", ["auto", 2.0])
    def test_folds_predict_with_the_fit_closure(self, method, sum_to):
        # The folds yield one held-out estimate per sample, in index order,
        # held to the closure the fit's predictions take: the closed rows'
        # total, or the spec's sum_to.
        cfg = SimConfig(seed=9, num_samples=8, phi=STRONG_PHI)
        spectra, conc, _ = generate_dataset(cfg)
        strategy = make_strategy(FitSpec(method=method, num_basis=10, sum_to=sum_to))
        total = resolve_sum_to(sum_to, strategy.fit(spectra, conc).closed_total)
        assert total == (1.0 if sum_to == "auto" else 2.0)
        folds = list(strategy.jackknife_fits(spectra, conc))
        assert [i for i, _ in folds] == list(range(8))
        for _, y_hat in folds:
            assert y_hat.shape == (3,)
            npt.assert_allclose(y_hat.sum(), total, rtol=1e-12)


# A valid value other than the default for every FitSpec field but
# ``method``; a field without one fails test_table_covers_every_field.
FIELD_VALUES = {
    "num_basis": 10,
    "lam": 5.0,
    "lam_grid": np.array([2.0, 7.0]),
    "components": 4,
    "variance_fraction": 0.999,
    "sum_to": 2.0,
}


class TestReadFields:
    """``READ_FIELDS`` lists exactly the fields that change a jackknife."""

    @pytest.fixture(scope="class")
    def walkthrough(self):
        cfg = SimConfig(seed=1, num_samples=8, phi=WEAK_PHI, grid_step=10.0)
        spectra, conc, _ = generate_dataset(cfg)
        return spectra, conc

    def test_table_covers_every_field(self):
        assert set(FIELD_VALUES) == {f.name for f in fields(FitSpec)} - {"method"}

    @pytest.mark.parametrize("method", FUNCTIONAL_METHODS + MULTIVARIATE_METHODS)
    def test_spread_changes_exactly_with_the_fields_read(self, walkthrough,
                                                         method):
        spectra, conc = walkthrough
        base = jackknife_sd(spectra, conc, FitSpec(method=method))
        changed = {name for name, value in FIELD_VALUES.items()
                   if not np.array_equal(
                       jackknife_sd(spectra, conc,
                                    FitSpec(method=method, **{name: value})),
                       base)}
        assert changed == set(READ_FIELDS[method])
