from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest
from scipy.optimize import minimize

from specal.basis import cached_design_matrix
from specal.calibrate import fit_ols
from specal.errors import (
    DegenerateAnalytesError,
    FoldFailureError,
    InsufficientSamplesError,
    InvalidParameterError,
    ShapeError,
)
from specal.methods import FitSpec, make_strategy
from specal.model import (
    ConcentrationMatrix,
    SpectraSet,
    assemble_design,
)
from specal.predict import (
    confidence_intervals,
    held_out_estimates,
    jackknife_sd,
    predict_concentrations,
    prediction_report,
    sep,
)
from specal.simulate import SimConfig, generate_dataset, STRONG_PHI, WEAK_PHI

from test_model import make_dataset


def fitted_model(seed=0, num_analytes=3, **kwargs):
    rng = np.random.default_rng(seed)
    spectra, conc, kv, _ = make_dataset(rng, num_analytes=num_analytes, **kwargs)
    model = fit_ols(assemble_design(spectra, conc, kv))
    return model, spectra


def new_spectra(model, grid, y_rows, noise=None, rng=None):
    curves = model.curve_values(grid)
    w = curves[0][None, :] + np.atleast_2d(y_rows) @ curves[1:]
    if noise:
        w = w + noise * rng.standard_normal(w.shape)
    return SpectraSet(grid=grid, absorbance=w)


class TestPredictConcentrations:
    def test_exact_recovery_on_consistent_system(self):
        model, spectra = fitted_model()
        y_star = np.array([[0.2, 0.3, 0.5], [0.7, 0.1, 0.4]])
        target = new_spectra(model, spectra.grid, y_star)
        y_hat = predict_concentrations(model, target)
        npt.assert_allclose(y_hat, y_star, atol=1e-10)

    def test_scalar_projection_for_single_analyte(self):
        model, spectra = fitted_model(seed=1, num_analytes=1)
        curves = model.curve_values(spectra.grid)
        rng = np.random.default_rng(2)
        w = curves[0] + 0.4 * curves[1] + 0.2 * rng.standard_normal(curves[0].size)
        target = SpectraSet(grid=spectra.grid, absorbance=w[None, :])
        y_hat = predict_concentrations(model, target)
        expected = (w - curves[0]) @ curves[1] / (curves[1] @ curves[1])
        assert y_hat[0, 0] == pytest.approx(expected, abs=1e-12)

    def test_matches_derivative_free_minimizer(self):
        model, spectra = fitted_model(seed=3)
        curves = model.curve_values(spectra.grid)
        rng = np.random.default_rng(4)
        for trial in range(5):
            w = (curves[0] + rng.uniform(0, 1, 3) @ curves[1:]
                 + 0.3 * rng.standard_normal(curves[0].size))
            target = SpectraSet(grid=spectra.grid, absorbance=w[None, :])
            y_hat = predict_concentrations(model, target)[0]

            def objective(y):
                resid = w - curves[0] - y @ curves[1:]
                return resid @ resid

            start = np.full(3, 0.3)
            res = minimize(objective, start, method="Nelder-Mead",
                           options={"xatol": 1e-10, "fatol": 1e-12,
                                    "maxiter": 20000, "maxfev": 20000})
            npt.assert_allclose(y_hat, res.x, atol=1e-6)

    def test_affine_equivariance(self):
        model, spectra = fitted_model(seed=5)
        curves = model.curve_values(spectra.grid)
        rng = np.random.default_rng(6)
        w = curves[0] + rng.uniform(0, 1, 3) @ curves[1:] + rng.standard_normal(
            curves[0].size
        )
        delta = np.array([0.13, -0.2, 0.05])
        base = predict_concentrations(
            model, SpectraSet(grid=spectra.grid, absorbance=w[None, :]))
        shifted = predict_concentrations(
            model, SpectraSet(grid=spectra.grid,
                              absorbance=(w + delta @ curves[1:])[None, :]))
        npt.assert_allclose(shifted - base, delta[None, :], atol=1e-10)

    def test_normal_equation_orthogonality(self):
        model, spectra = fitted_model(seed=7)
        curves = model.curve_values(spectra.grid)
        rng = np.random.default_rng(8)
        w = curves[0] + rng.uniform(0, 1, 3) @ curves[1:] + rng.standard_normal(
            curves[0].size
        )
        target = SpectraSet(grid=spectra.grid, absorbance=w[None, :])
        y_hat = predict_concentrations(model, target)[0]
        a = curves[1:].T
        score = a.T @ (w - curves[0] - a @ y_hat)
        assert np.abs(score).max() < 1e-8 * max(np.abs(a).max() * np.abs(w).max(), 1.0)

    def test_degenerate_analytes_raises_without_closure(self):
        rng = np.random.default_rng(9)
        spectra, conc, kv, _ = make_dataset(rng, sum_zero=True, closed=True)
        model = fit_ols(assemble_design(spectra, conc, kv))
        target = SpectraSet(grid=spectra.grid, absorbance=spectra.absorbance[:1])
        with pytest.raises(DegenerateAnalytesError):
            predict_concentrations(model, target)
        y_hat = predict_concentrations(model, target, sum_to=1.0)
        npt.assert_allclose(y_hat, conc.values[:1], atol=1e-8)

    def test_curves_coinciding_under_a_closure_raise(self):
        # Equal analyte curves differ by nothing on the zero-sum subspace,
        # where a closed prediction solves: no estimate separates them.
        model, spectra = fitted_model(seed=11)
        coef = model.coefficients.copy()
        coef[2:] = coef[1]
        model = replace(model, coefficients=coef)
        with pytest.raises(DegenerateAnalytesError, match="held to sum to 1"):
            predict_concentrations(model, spectra, sum_to=1.0)
        with pytest.raises(DegenerateAnalytesError):
            prediction_report(model, spectra, s=np.full(3, 0.05), sum_to=1.0)
        # Fold 2 of a block of leave-one-out fits has such curves.
        b = cached_design_matrix(model.basis, spectra.grid)
        blocks = [(0, np.stack([fitted_model(seed=11)[0].coefficients] * 2)),
                  (2, coef[None])]
        with pytest.raises(FoldFailureError,
                           match="prediction failed on fold 2") as excinfo:
            list(held_out_estimates(blocks, b, spectra.absorbance, 1.0))
        assert isinstance(excinfo.value.__cause__, DegenerateAnalytesError)

    def test_closed_penalized_model_needs_a_closure(self):
        # The soft sum-to-zero block leaves penalized curves of closed rows
        # of full rank, yet their total is unidentified all the same.
        spectra, conc, _ = generate_dataset(SimConfig(seed=1, num_samples=20,
                                                      phi=WEAK_PHI))
        model = make_strategy(FitSpec(method="ols-ss", lam=330.0)).fit(spectra,
                                                                      conc)
        target = SpectraSet(grid=spectra.grid, absorbance=spectra.absorbance[:2])
        with pytest.raises(DegenerateAnalytesError):
            predict_concentrations(model, target)
        with pytest.raises(DegenerateAnalytesError):
            prediction_report(model, target, s=np.full(3, 0.05))
        npt.assert_allclose(
            predict_concentrations(model, target, sum_to=1.0).sum(axis=1), 1.0)

    def test_grid_refinement_is_continuous(self):
        model, spectra = fitted_model(seed=10)
        y_star = np.array([[0.3, 0.4, 0.2]])
        coarse = new_spectra(model, spectra.grid, y_star)
        fine_grid = np.linspace(spectra.grid[0], spectra.grid[-1],
                                4 * (spectra.grid.size - 1) + 1)
        fine = new_spectra(model, fine_grid, y_star)
        y_coarse = predict_concentrations(model, coarse)
        y_fine = predict_concentrations(model, fine)
        assert np.abs(y_coarse - y_fine).max() < 1e-3

    def test_report_flags_out_of_range(self):
        model, spectra = fitted_model(seed=11)
        y_star = np.array([[1.4, -0.2, 0.1], [0.2, 0.3, 0.4]])
        target = new_spectra(model, spectra.grid, y_star)
        report = prediction_report(model, target, s=np.full(3, 0.05))
        assert report.outside_unit_range.tolist() == [True, False]
        npt.assert_allclose(report.y_hat, y_star, atol=1e-8)

    @pytest.mark.parametrize("sum_to", [None, 1.0])
    def test_report_evaluates_basis_once(self, monkeypatch, sum_to):
        # The estimates and the residual norms share one evaluation of the
        # analyte curves, and the report equals its parts bit for bit.
        from specal import basis

        model, spectra = fitted_model(seed=12)
        target = new_spectra(model, spectra.grid,
                             np.array([[0.3, 0.4, 0.3], [0.2, 0.5, 0.3]]),
                             noise=0.01, rng=np.random.default_rng(13))
        y_hat = predict_concentrations(model, target, sum_to=sum_to)
        curves = model.curve_values(target.grid)
        fitted = curves[0][None, :] + y_hat @ curves[1:]
        norms = np.linalg.norm(target.absorbance - fitted, axis=1)
        del curves
        calls = []
        original = basis.design_matrix

        def counting(*args):
            calls.append(1)
            return original(*args)

        monkeypatch.setattr(basis, "design_matrix", counting)
        report = prediction_report(model, target, s=np.full(3, 0.05),
                                   sum_to=sum_to)
        assert len(calls) == 1
        npt.assert_array_equal(report.y_hat, y_hat)
        npt.assert_array_equal(report.residual_norms, norms)


def single_pass_report(model, spectra, s, c=1.96, sum_to=None):
    """The report as one pass over the whole batch: the reference for the
    row-blocked :func:`prediction_report`.  Each spectrum is solved from the
    thin SVD of the curves regressed on, one spectrum per product, as a
    jackknife fold's held-out spectrum is (test_criterion_3_prediction_oracle
    checks that solve against ``lstsq``)."""
    curves = model.curve_values(spectra.grid)
    baseline, a = curves[0], curves[1:].T
    m = a.shape[1]
    target = spectra.absorbance - baseline[None, :]
    design, v, center = a, None, None
    if sum_to is not None:
        q, _ = np.linalg.qr(np.ones((m, 1)), mode="complete")
        v = q[:, 1:]
        center = (float(sum_to) / m) * np.ones(m)
        target -= a @ center
        design = a @ v
    u, singular, vt = np.linalg.svd(design, full_matrices=False)
    z = (vt.T @ ((u.T @ target[:, :, None]) / singular[:, None]))[:, :, 0]
    y_hat = z if v is None else center + z @ v.T
    fitted = baseline[None, :] + y_hat @ a.T
    return (y_hat, confidence_intervals(y_hat, s, c),
            np.linalg.norm(spectra.absorbance - fitted, axis=1))


def batch(model, grid, num_rows, seed):
    rng = np.random.default_rng(seed)
    y = rng.dirichlet(np.ones(model.num_analytes), num_rows)
    return new_spectra(model, grid, y, noise=0.05, rng=rng)


class TestBlockedReport:
    S = np.array([0.05, 0.02, 0.1])

    @pytest.mark.parametrize("num_rows, rtol", [(8, 0.0), (2000, 0.0),
                                                (257, 1e-12), (513, 1e-12)])
    @pytest.mark.parametrize("sum_to", [None, 1.0])
    def test_equal_to_single_pass(self, num_rows, rtol, sum_to):
        # Each spectrum is solved on its own, and blocks of 256 rows keep
        # every row at the kernel position one pass over the batch gives
        # its residual product, so nothing moves by a bit; a tail block of
        # one row may take another kernel (tolerance relative to the
        # largest entry).
        model, _ = fitted_model(seed=20)
        target = batch(model, np.linspace(0.0, 10.0, 401), num_rows, 21)
        report = prediction_report(model, target, self.S, sum_to=sum_to)
        y_hat, intervals, norms = single_pass_report(model, target, self.S,
                                                     sum_to=sum_to)
        for got, want in ((report.y_hat, y_hat), (report.intervals, intervals),
                          (report.residual_norms, norms)):
            npt.assert_allclose(got, want, rtol=0,
                                atol=rtol * np.abs(want).max())

    def test_peak_memory_stays_below_one_batch_copy(self):
        import tracemalloc

        model, _ = fitted_model(seed=24)
        target = batch(model, np.linspace(0.0, 10.0, 401), 2000, 25)
        batch_bytes = target.absorbance.nbytes
        tracemalloc.start()
        try:
            prediction_report(model, target, self.S, sum_to=1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < batch_bytes

    @pytest.mark.parametrize("method", ["mlr", "pcr", "pls"])
    def test_multivariate_report_matches_linear_predictor(self, method):
        from specal.baselines import fit_mlr, fit_pcr, fit_pls, predict_multivariate

        # 2000 spectra of 401 wavelengths: enough work that OpenBLAS runs
        # the product on its large-matrix kernel, which 256-row blocks
        # would not.
        model, _ = fitted_model(seed=26)
        grid = np.linspace(0.0, 10.0, 401)
        rng = np.random.default_rng(27)
        y = rng.uniform(0.1, 2.0, (30, 3))
        cal = new_spectra(model, grid, y, noise=0.01, rng=rng)
        fit = {"mlr": fit_mlr, "pcr": lambda w, y: fit_pcr(w, y, 3),
               "pls": lambda w, y: fit_pls(w, y, 3)}[method]
        linear = fit(cal.absorbance, y)
        target = batch(model, grid, 2000, 28)
        report = prediction_report(linear, target, self.S)
        y_hat = predict_multivariate(linear, target.absorbance)
        npt.assert_array_equal(report.y_hat, y_hat)
        npt.assert_array_equal(report.intervals,
                               confidence_intervals(y_hat, self.S))
        npt.assert_array_equal(report.residual_norms, np.zeros(2000))
        npt.assert_array_equal(report.outside_unit_range,
                               np.any((y_hat < 0) | (y_hat > 1), axis=1))


class TestJackknife:
    def test_noiseless_gives_negligible_spread(self):
        # Perfect refits need data consistent with the sum-to-zero block:
        # zero-sum truth plus closed samples (closure then resolves the
        # prediction direction automatically).
        rng = np.random.default_rng(12)
        spectra, conc, kv, _ = make_dataset(rng, num_samples=8, sum_zero=True,
                                            closed=True)
        s = jackknife_sd(spectra, conc, FitSpec(method="ols-k", num_basis=8))
        assert np.all(s < 1e-6)

    def test_permutation_invariance(self):
        cfg = SimConfig(seed=3, num_samples=12, phi=WEAK_PHI)
        spectra, conc, _ = generate_dataset(cfg)
        spec = FitSpec(method="ols-k", num_basis=14)
        s = jackknife_sd(spectra, conc, spec)
        perm = np.random.default_rng(13).permutation(12)
        s_perm = jackknife_sd(
            SpectraSet(grid=spectra.grid, absorbance=spectra.absorbance[perm]),
            ConcentrationMatrix(values=conc.values[perm]),
            spec,
        )
        npt.assert_allclose(s, s_perm, atol=1e-10)

    def test_minimal_three_samples(self):
        rng = np.random.default_rng(14)
        spectra, conc, kv, _ = make_dataset(rng, num_samples=3, num_analytes=1,
                                            noise=0.01)
        s = jackknife_sd(spectra, conc, FitSpec(method="ols-k", num_basis=8))
        assert np.all(np.isfinite(s))
        with pytest.raises(InvalidParameterError):
            jackknife_sd(
                SpectraSet(grid=spectra.grid, absorbance=spectra.absorbance[:2]),
                ConcentrationMatrix(values=conc.values[:2]),
                FitSpec(method="ols-k", num_basis=8),
            )

    @pytest.mark.parametrize("per_block, failing", [
        (None, 2), (None, 5), (1, 5), (3, 5),
    ], ids=["duplicate-rows", "off-line-row", "off-line-row-blocks-of-1",
            "off-line-row-blocks-of-3"])
    @pytest.mark.parametrize("tuning", [
        {"method": "ols-k", "num_basis": 4},
        {"method": "ols-ss", "lam": 5.0},
        {"method": "gls-k", "num_basis": 4},
    ], ids=lambda tuning: tuning["method"])
    def test_fold_failure_is_reported(self, monkeypatch, tuning, per_block,
                                      failing):
        # Duplicate rows: four open samples, two with identical
        # concentration rows; the full fit has rank 3, and dropping either
        # distinct row (fold 2 or 3) leaves a rank-deficient fold; folds 0
        # and 1 succeed.  Off-line row: eight open samples, all but sample
        # 5 on one line in concentration space, so only fold 5 is rank
        # deficient; in blocks of 1 or 3 it lies past the first block (in
        # blocks of 3, last in the second).
        from specal import calibrate

        if per_block is not None:
            monkeypatch.setattr(calibrate, "_folds_per_block",
                                lambda fold_bytes: per_block)
        rng = np.random.default_rng(15)
        if failing == 2:
            y = np.array([[0.2, 0.3], [0.2, 0.3], [0.6, 0.1], [0.1, 0.5]])
        else:
            t = np.linspace(0.1, 0.6, 8)
            y = np.column_stack([t, 2 * t + 0.1])
            y[5] = [0.3, 0.3]
        spectra = SpectraSet(grid=np.linspace(0.0, 1.0, 20),
                             absorbance=rng.standard_normal((len(y), 20)))
        conc = ConcentrationMatrix(values=y)
        with pytest.raises(FoldFailureError):
            jackknife_sd(spectra, conc, FitSpec(**tuning))
        with pytest.raises(FoldFailureError,
                           match=f"refit failed on fold {failing}:"):
            jackknife_sd(spectra, conc, FitSpec(**tuning, sum_to=1.0))

    @pytest.mark.parametrize("spec", [
        FitSpec(method="ols-k"), FitSpec(method="ols-ss"),
        FitSpec(method="ols-ss", lam=5.0), FitSpec(method="gls-k"),
    ], ids=["ols-k", "ols-ss-gcv", "ols-ss-5", "gls-k"])
    def test_spreads_do_not_depend_on_the_blocks(self, monkeypatch, spec):
        from specal import calibrate

        cfg = SimConfig(seed=17, num_samples=30, phi=STRONG_PHI)
        spectra, conc, _ = generate_dataset(cfg)
        want = jackknife_sd(spectra, conc, spec)
        monkeypatch.setattr(calibrate, "_FOLD_BLOCK_BYTES", 1)
        npt.assert_allclose(jackknife_sd(spectra, conc, spec), want, rtol=1e-13)

    def test_simulation_protocol_bands(self):
        spec = FitSpec(method="ols-k", num_basis=14)
        weak, strong = [], []
        for seed in range(1, 9):
            for phi, sink in ((WEAK_PHI, weak), (STRONG_PHI, strong)):
                cfg = SimConfig(seed=seed, num_samples=20, phi=phi)
                spectra, conc, _ = generate_dataset(cfg)
                sink.append(jackknife_sd(spectra, conc, spec))
        weak_med = np.median(np.array(weak), axis=0)
        strong_med = np.median(np.array(strong), axis=0)
        assert np.all(weak_med > 0) and np.all(weak_med < 0.12)
        ratio = strong_med / weak_med
        assert np.all(ratio > 1.5) and np.all(ratio < 6.0)


@pytest.mark.parametrize("sum_to", [None, "none", float("nan"), float("inf")])
def test_spec_takes_auto_or_a_finite_sum(sum_to):
    with pytest.raises(InvalidParameterError,
                       match="sum_to must be 'auto' or a finite number"):
        FitSpec(method="ols-k", sum_to=sum_to)


class TestConfidenceIntervals:
    def test_zero_spread_degenerates(self):
        y_hat = np.array([[0.2, 0.8]])
        intervals = confidence_intervals(y_hat, np.zeros(2), c=1.96)
        npt.assert_array_equal(intervals[..., 0], y_hat)
        npt.assert_array_equal(intervals[..., 1], y_hat)

    def test_arithmetic(self):
        intervals = confidence_intervals(np.array([[0.5]]), np.array([0.1]), c=1.0)
        npt.assert_allclose(intervals[0, 0], [0.4, 0.6])

    def test_rejects_bad_multiplier(self):
        with pytest.raises(InvalidParameterError):
            confidence_intervals(np.array([[0.5]]), np.array([0.1]), c=0.0)

    def test_monte_carlo_coverage(self):
        rng = np.random.default_rng(16)
        truth = np.array([0.3, 0.5, 0.2])
        s = np.array([0.05, 0.08, 0.02])
        hits = 0
        total = 0
        for _ in range(200):
            y_hat = truth + s * rng.standard_normal(3)
            intervals = confidence_intervals(y_hat[None, :], s, c=1.96)
            hits += np.sum(
                (intervals[0, :, 0] <= truth) & (truth <= intervals[0, :, 1])
            )
            total += 3
        assert hits / total >= 0.90


class TestSep:
    def test_perfect_predictions(self):
        y = np.array([[0.1, 0.9], [0.4, 0.6]])
        report = sep(y, y)
        npt.assert_array_equal(report.per_component, [0.0, 0.0])
        assert report.overall == 0.0

    def test_hand_computed_case(self):
        y_true = np.array([[0.5], [0.5]])
        y_hat = np.array([[0.4], [0.6]])
        report = sep(y_true, y_hat)
        assert report.per_component[0] == pytest.approx(np.sqrt(0.02), abs=1e-12)
        assert report.overall == pytest.approx(np.sqrt(0.02), abs=1e-12)

    def test_overall_denominator_relation(self):
        # Equal residual sets per component: the overall figure differs from
        # the per-component one only through the two denominators.
        rng = np.random.default_rng(17)
        j, m = 7, 3
        resid = rng.standard_normal(j)
        y_true = np.zeros((j, m))
        y_hat = -np.column_stack([resid] * m)
        report = sep(y_true, y_hat)
        expected = report.per_component[0] * np.sqrt(
            m * (j - 1) / (m * j - 1)
        )
        assert report.overall == pytest.approx(expected, rel=1e-12)

    def test_invariances(self):
        rng = np.random.default_rng(18)
        y_true = rng.uniform(0, 1, (9, 2))
        y_hat = y_true + 0.1 * rng.standard_normal((9, 2))
        base = sep(y_true, y_hat)
        perm = rng.permutation(9)
        permuted = sep(y_true[perm], y_hat[perm])
        npt.assert_allclose(permuted.per_component, base.per_component)
        flipped = sep(y_hat, y_true)
        npt.assert_allclose(flipped.per_component, base.per_component)

    def test_errors(self):
        with pytest.raises(InsufficientSamplesError):
            sep(np.zeros((1, 2)), np.zeros((1, 2)))
        with pytest.raises(ShapeError):
            sep(np.zeros((3, 2)), np.zeros((3, 3)))
