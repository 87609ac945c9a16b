import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st

from specal.baselines import (
    fit_mlr,
    fit_pcr,
    fit_pls,
    predict_multivariate,
)
from specal.errors import (
    ConvergenceError,
    DegenerateSpectraError,
    FoldFailureError,
    GridMismatchError,
    InvalidComponentsError,
    InvalidParameterError,
)
from specal.methods import STUDY_METHODS, FitSpec, make_strategy
from specal.model import ConcentrationMatrix, SpectraSet
from specal.predict import jackknife_sd, jackknife_spreads
from specal.simulate import (
    STRONG_PHI,
    SimConfig,
    generate_dataset,
    run_jackknife_study,
    WEAK_PHI,
)

from oracles import naive_jackknife_fits

BASELINES = ("MLR", "PCR-o", "PCR-p", "PLS-o", "PLS-p")


def nipals_pls2(w, y, p, max_iter=500, tol=1e-10):
    """Reference NIPALS PLS2 with deflation of both blocks.

    Returns the coefficients and the scores.  Each weight is seeded at the
    dominant right singular vector of the deflated cross block ``F'E``,
    the fixed point of the iteration, and refined until it moves by less
    than ``tol``.
    """
    e = w - w.mean(axis=0)
    f = y - y.mean(axis=0)
    weights = np.zeros((e.shape[1], p))
    loadings = np.zeros((e.shape[1], p))
    y_loadings = np.zeros((f.shape[1], p))
    scores = np.zeros((e.shape[0], p))
    for a in range(p):
        w_vec = np.linalg.svd(f.T @ e, full_matrices=False)[2][0]
        for _ in range(max_iter):
            t_vec = e @ w_vec
            c_vec = f.T @ t_vec / (t_vec @ t_vec)
            if f.shape[1] == 1:
                break
            w_new = e.T @ (f @ c_vec / (c_vec @ c_vec))
            w_new /= np.linalg.norm(w_new)
            converged = np.linalg.norm(w_new - w_vec) < tol
            w_vec = w_new
            if converged:
                break
        else:
            raise AssertionError(f"NIPALS did not converge on component {a + 1}")
        t_vec = e @ w_vec
        t_norm_sq = t_vec @ t_vec
        p_vec = e.T @ t_vec / t_norm_sq
        c_vec = f.T @ t_vec / t_norm_sq
        e = e - np.outer(t_vec, p_vec)
        f = f - np.outer(t_vec, c_vec)
        weights[:, a] = w_vec
        loadings[:, a] = p_vec
        y_loadings[:, a] = c_vec
        scores[:, a] = t_vec
    rotation = weights @ np.linalg.solve(loadings.T @ weights, np.eye(p))
    return rotation @ y_loadings.T, scores


def naive_jackknife_sd(spectra, conc, spec):
    """Leave-one-out spread from fits rebuilt per fold (``fit`` per fold)."""
    strategy = make_strategy(spec)
    y = conc.values
    sq_sum = np.zeros(conc.num_analytes)
    for i, fitted in naive_jackknife_fits(strategy, spectra, conc):
        held_out = SpectraSet(grid=spectra.grid,
                              absorbance=spectra.absorbance[i:i + 1])
        sq_sum += (y[i] - strategy.predict_fitted(fitted, held_out)[0]) ** 2
    return np.sqrt(sq_sum / spectra.num_samples)


def linear_data(rng, num_samples, num_wavelengths, num_analytes=2, noise=0.0):
    w = rng.standard_normal((num_samples, num_wavelengths))
    coef = rng.standard_normal((num_wavelengths, num_analytes))
    y = 0.5 + w @ coef + noise * rng.standard_normal((num_samples, num_analytes))
    return w, y, coef


class TestMlr:
    def test_exact_recovery_overdetermined(self):
        rng = np.random.default_rng(0)
        w, y, coef = linear_data(rng, 40, 6)
        model = fit_mlr(w, y)
        npt.assert_allclose(model.coefficients, coef, atol=1e-8)
        npt.assert_allclose(predict_multivariate(model, w), y, atol=1e-8)

    def test_min_norm_interpolates_wide_data(self):
        rng = np.random.default_rng(1)
        w = rng.standard_normal((20, 81))
        y = rng.uniform(0, 1, (20, 3))
        model = fit_mlr(w, y)
        npt.assert_allclose(predict_multivariate(model, w), y, atol=1e-8)
        wc = w - w.mean(axis=0)
        yc = y - y.mean(axis=0)
        oracle = np.linalg.pinv(wc) @ yc
        npt.assert_allclose(model.coefficients, oracle, atol=1e-8)

    def test_conflicting_duplicates_compromise(self):
        rng = np.random.default_rng(2)
        w = np.vstack([rng.standard_normal(5)] * 4)
        y = np.array([[0.0], [1.0], [0.4], [0.6]])
        w = np.vstack([w, rng.standard_normal((3, 5))])
        y = np.vstack([y, rng.uniform(0, 1, (3, 1))])
        model = fit_mlr(w, y)
        resid = y - predict_multivariate(model, w)
        assert np.sum(resid ** 2) > 1e-4

    def test_constant_spectra_degenerate(self):
        with pytest.raises(DegenerateSpectraError):
            fit_mlr(np.ones((5, 8)), np.random.default_rng(3).uniform(0, 1, (5, 2)))


class TestPcr:
    def test_component_count_from_variance_fraction(self):
        # Singular values chosen so the variance spectrum is (4, 3, 2, 1):
        # cumulative fractions 0.4, 0.7, 0.9, 1.0.
        rng = np.random.default_rng(4)
        base = rng.standard_normal((12, 4))
        u, _ = np.linalg.qr(base - base.mean(axis=0))
        v, _ = np.linalg.qr(rng.standard_normal((6, 4)))
        wc = u @ np.diag(np.sqrt([4.0, 3.0, 2.0, 1.0])) @ v.T
        w = wc + 5.0
        y = rng.uniform(0, 1, (12, 2))
        model = fit_pcr(w, y, variance_fraction=0.90)
        assert model.components == 3

    def test_full_rank_equals_min_norm_mlr(self):
        rng = np.random.default_rng(5)
        w = rng.standard_normal((10, 25))
        y = rng.uniform(0, 1, (10, 2))
        rank = np.linalg.matrix_rank(w - w.mean(axis=0))
        pcr = fit_pcr(w, y, components=rank)
        mlr = fit_mlr(w, y)
        npt.assert_allclose(
            predict_multivariate(pcr, w), predict_multivariate(mlr, w), atol=1e-8
        )

    def test_rank_one_needs_single_component(self):
        rng = np.random.default_rng(6)
        w = np.outer(rng.standard_normal(9), rng.standard_normal(7)) + 2.0
        y = rng.uniform(0, 1, (9, 1))
        for q in (0.1, 0.5, 0.99):
            assert fit_pcr(w, y, variance_fraction=q).components == 1

    def test_component_validation(self):
        rng = np.random.default_rng(7)
        w, y, _ = linear_data(rng, 6, 10)
        with pytest.raises(InvalidComponentsError):
            fit_pcr(w, y, components=6)
        with pytest.raises(InvalidParameterError):
            fit_pcr(w, y)
        with pytest.raises(InvalidParameterError):
            fit_pcr(w, y, components=2, variance_fraction=0.5)

    def test_orthonormal_loadings(self):
        rng = np.random.default_rng(8)
        w, y, _ = linear_data(rng, 15, 9, noise=0.3)
        model = fit_pcr(w, y, components=4)
        scores = model.scores
        gram = scores.T @ scores
        npt.assert_allclose(gram - np.diag(np.diag(gram)), 0.0, atol=1e-8)


class TestPls:
    def test_first_direction_is_cross_covariance(self):
        rng = np.random.default_rng(9)
        w = rng.standard_normal((14, 7))
        y = rng.standard_normal((14, 1))
        model = fit_pls(w, y, components=1)
        wc = w - w.mean(axis=0)
        yc = (y - y.mean(axis=0)).ravel()
        direction = wc.T @ yc
        direction /= np.linalg.norm(direction)
        score = model.scores[:, 0]
        expected = wc @ direction
        assert min(np.abs(score - expected).max(),
                   np.abs(score + expected).max()) < 1e-10

    def test_full_rank_equals_min_norm_mlr(self):
        rng = np.random.default_rng(10)
        w = rng.standard_normal((9, 20))
        y = rng.uniform(0, 1, (9, 3))
        rank = np.linalg.matrix_rank(w - w.mean(axis=0))
        pls = fit_pls(w, y, components=rank)
        mlr = fit_mlr(w, y)
        npt.assert_allclose(
            predict_multivariate(pls, w), predict_multivariate(mlr, w), atol=1e-6
        )

    def test_scores_orthogonal(self):
        rng = np.random.default_rng(11)
        w, y, _ = linear_data(rng, 18, 12, noise=0.5)
        model = fit_pls(w, y, components=5)
        gram = model.scores.T @ model.scores
        npt.assert_allclose(gram - np.diag(np.diag(gram)), 0.0, atol=1e-8)

    def test_variance_selector_matches_pcr(self):
        rng = np.random.default_rng(12)
        w, y, _ = linear_data(rng, 20, 10, noise=0.4)
        pcr = fit_pcr(w, y, variance_fraction=0.9)
        pls = fit_pls(w, y, variance_fraction=0.9)
        assert pls.components == pcr.components


class TestPredictMultivariate:
    def test_training_row_round_trip(self):
        rng = np.random.default_rng(13)
        w, y, _ = linear_data(rng, 30, 5)
        model = fit_mlr(w, y)
        npt.assert_allclose(predict_multivariate(model, w[:1]), y[:1], atol=1e-8)

    def test_mean_spectrum_gives_mean_response(self):
        rng = np.random.default_rng(14)
        w, y, _ = linear_data(rng, 25, 6, noise=0.2)
        model = fit_mlr(w, y)
        pred = predict_multivariate(model, w.mean(axis=0, keepdims=True))
        npt.assert_allclose(pred[0], y.mean(axis=0), atol=1e-8)

    def test_grid_mismatch(self):
        rng = np.random.default_rng(15)
        w, y, _ = linear_data(rng, 10, 6)
        model = fit_mlr(w, y)
        with pytest.raises(GridMismatchError):
            predict_multivariate(model, np.zeros((2, 7)))


class TestJackknifeHarnessAgnostic:
    def test_all_baselines_run_through_jackknife(self):
        cfg = SimConfig(seed=5, num_samples=12, phi=WEAK_PHI)
        spectra, conc, _ = generate_dataset(cfg)
        for spec in (
            FitSpec(method="mlr"),
            FitSpec(method="pcr", components=3),
            FitSpec(method="pls", variance_fraction=0.9),
        ):
            s = jackknife_sd(spectra, conc, spec)
            assert s.shape == (3,)
            assert np.all(s > 0) and np.all(np.isfinite(s))


class TestKernelPlsMatchesNipals:
    @pytest.mark.parametrize("shape", [(30, 8), (9, 20)], ids=["tall", "wide"])
    @pytest.mark.parametrize("num_analytes", [1, 3])
    def test_every_component_count(self, shape, num_analytes):
        rng = np.random.default_rng(16 + num_analytes)
        w = rng.standard_normal(shape) + 3.0
        y = rng.uniform(0, 1, (shape[0], num_analytes))
        rank = np.linalg.matrix_rank(w - w.mean(axis=0))
        assert rank == min(shape[0] - 1, shape[1])
        for p in range(1, rank + 1):
            coef, scores = nipals_pls2(w, y, p)
            model = fit_pls(w, y, components=p)
            npt.assert_allclose(model.coefficients, coef, rtol=0,
                                atol=1e-10 * np.abs(coef).max())
            # Score columns are defined up to sign.
            signs = np.sign(np.sum(model.scores * scores, axis=0))
            npt.assert_allclose(model.scores * signs, scores, rtol=0,
                                atol=1e-10 * np.abs(scores).max())

    def test_vanishing_weight_raises(self):
        rng = np.random.default_rng(20)
        w = rng.standard_normal((10, 6))
        with pytest.raises(ConvergenceError, match="component 1"):
            fit_pls(w, np.full((10, 2), 0.3), components=2)
        # A response along one principal direction is used up by the
        # first component, leaving nothing for the second.
        wc = w - w.mean(axis=0)
        v = np.linalg.svd(wc)[2][0]
        y = (wc @ v)[:, None]
        assert fit_pls(w, y, components=1).components == 1
        with pytest.raises(ConvergenceError, match="component 2"):
            fit_pls(w, y, components=2)


# The shared pass downdates one SVD of all samples.  PCR and PLS read the
# leading directions and keep full accuracy.  MLR divides by every singular
# value: a fold is downdated only while its smallest squared one is above
# sqrt(eps) s_0^2, so it stays within about sqrt(eps) of a refit (and is
# decomposed from its own rows below that).
PCR_PLS_RTOL = 1e-12
MLR_RTOL = 1e-7


def assert_matches_naive_refits(spectra, conc, specs):
    shared = jackknife_spreads(spectra, conc, specs)
    for spec, spread in zip(specs, shared):
        npt.assert_allclose(spread, naive_jackknife_sd(spectra, conc, spec),
                            rtol=MLR_RTOL if spec.method == "mlr" else PCR_PLS_RTOL)


class TestSharedFoldPass:
    # At T = 81: 20 and 82 samples span every centered direction, so each
    # fold drops one; 83 samples leave each fold square and ill-conditioned
    # (s_0 / s_min reaches 8.2e6 over the folds of seed 303).
    @pytest.mark.parametrize("seed, num_samples",
                             [(21, 20), (21, 82), (21, 83), (303, 83), (21, 100)],
                             ids=["wide", "wide-edge", "tall-edge",
                                  "tall-edge-ill", "tall"])
    def test_matches_naive_refits(self, seed, num_samples):
        cfg = SimConfig(seed=seed, num_samples=num_samples, phi=STRONG_PHI)
        spectra, conc, _ = generate_dataset(cfg)
        assert_matches_naive_refits(spectra, conc,
                                    [STUDY_METHODS[name] for name in BASELINES])

    @pytest.mark.parametrize("seed", range(4))
    def test_fold_losing_a_direction_below_full_span(self, seed):
        # Twelve spectra at six wavelengths, the first eleven in a plane:
        # only the fold without sample 11 loses a direction, although the
        # set spans fewer than n - 1 centered directions.
        rng = np.random.default_rng(seed)
        w = 1.0 + rng.standard_normal((12, 2)) @ rng.standard_normal((2, 6))
        w[11] += rng.standard_normal(6)
        spectra = SpectraSet(grid=np.arange(6.0), absorbance=w)
        conc = ConcentrationMatrix(values=rng.uniform(0, 1, (12, 2)))
        assert_matches_naive_refits(spectra, conc, [
            FitSpec(method="mlr"), FitSpec(method="pcr", components=2),
            FitSpec(method="pls", components=2)])

    def test_duplicated_spectrum_in_a_wide_set(self):
        # With samples 3 and 7 equal, 20 spectra span 18 centered directions
        # and every fold that keeps both loses one.
        cfg = SimConfig(seed=21, num_samples=20, phi=STRONG_PHI)
        spectra, conc, _ = generate_dataset(cfg)
        w = spectra.absorbance.copy()
        w[7] = w[3]
        spectra = SpectraSet(grid=spectra.grid, absorbance=w)
        assert_matches_naive_refits(spectra, conc,
                                    [STUDY_METHODS[name] for name in BASELINES])

    def test_failing_baseline_fails_alone(self):
        # Each fold of 20 samples keeps 19, whose centered spectra have
        # rank 18, so 19 principal components cannot be fitted.
        cfg = SimConfig(seed=22, num_samples=20, phi=STRONG_PHI)
        spectra, conc, _ = generate_dataset(cfg)
        too_many = FitSpec(method="pcr", components=19)
        specs = [STUDY_METHODS[name] for name in BASELINES]
        results = jackknife_spreads(spectra, conc, [specs[0], too_many, *specs[1:]])
        assert isinstance(results[1], FoldFailureError)
        assert isinstance(results[1].__cause__, InvalidComponentsError)
        for spec, spread in zip(specs, results[:1] + results[2:]):
            npt.assert_array_equal(spread, jackknife_sd(spectra, conc, spec))
        with pytest.raises(FoldFailureError, match="refit failed on fold 0"):
            jackknife_sd(spectra, conc, too_many)

    def test_study_counts_only_the_failing_method(self):
        cfg = SimConfig(seed=22, num_samples=20, phi=STRONG_PHI)
        methods = {"OLS-K": STUDY_METHODS["OLS-K"], "MLR": STUDY_METHODS["MLR"],
                   "PCR-19": FitSpec(method="pcr", components=19)}
        result = run_jackknife_study(cfg, methods, replicates=2)
        assert result.failures == {"OLS-K": 0, "MLR": 0, "PCR-19": 2}
        spectra, conc, _ = generate_dataset(cfg, noise_stream=1)
        npt.assert_array_equal(result.spreads["MLR"][1],
                               jackknife_sd(spectra, conc, methods["MLR"]))


def test_shared_pass_decomposes_the_spectra_once(monkeypatch):
    # Every fold is downdated from one SVD of the calibration spectra; no
    # fold decomposes its own wavelength-length data.
    cfg = SimConfig(seed=23, num_samples=20, phi=STRONG_PHI)
    spectra, conc, _ = generate_dataset(cfg)
    shapes = []
    svd = np.linalg.svd

    def recording_svd(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording_svd)
    spreads = jackknife_spreads(spectra, conc,
                                [STUDY_METHODS[name] for name in BASELINES])
    assert not any(isinstance(s, Exception) for s in spreads)
    num_wavelengths = spectra.num_wavelengths
    assert [shape for shape in shapes if num_wavelengths in shape] == [
        (20, num_wavelengths)]


BASELINE_SPECS = [FitSpec(method="mlr"), FitSpec(method="pcr", components=2),
                  FitSpec(method="pcr", variance_fraction=0.8),
                  FitSpec(method="pls", components=3),
                  FitSpec(method="pls", variance_fraction=0.8)]


def random_calibration(seed, num_samples, num_wavelengths, num_analytes):
    rng = np.random.default_rng(seed)
    grid = np.arange(num_wavelengths, dtype=float)
    w = rng.standard_normal((num_samples, num_wavelengths)) + 2.0
    y = rng.uniform(0, 1, (num_samples, num_analytes))
    return SpectraSet(grid=grid, absorbance=w), ConcentrationMatrix(values=y)


class TestBaselineProperties:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1), st.integers(6, 24), st.integers(4, 30),
           st.integers(1, 3))
    def test_predictions_ignore_row_order(self, seed, num_samples,
                                          num_wavelengths, num_analytes):
        spectra, conc = random_calibration(seed, num_samples, num_wavelengths,
                                           num_analytes)
        order = np.random.default_rng(seed + 1).permutation(num_samples)
        shuffled = (SpectraSet(grid=spectra.grid, absorbance=spectra.absorbance[order]),
                    ConcentrationMatrix(values=conc.values[order]))
        for spec in BASELINE_SPECS:
            strategy = make_strategy(spec)
            want = strategy.predict_fitted(strategy.fit(spectra, conc), spectra)
            got = strategy.predict_fitted(strategy.fit(*shuffled), spectra)
            npt.assert_allclose(got, want, rtol=1e-10,
                                atol=1e-10 * np.abs(want).max())

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1), st.integers(6, 24), st.integers(4, 30),
           st.floats(1e-3, 1e3))
    def test_scaling_concentrations_scales_outputs(self, seed, num_samples,
                                                   num_wavelengths, scale):
        spectra, conc = random_calibration(seed, num_samples, num_wavelengths, 2)
        scaled = ConcentrationMatrix(values=scale * conc.values)
        for spec in BASELINE_SPECS:
            strategy = make_strategy(spec)
            want = scale * strategy.predict_fitted(strategy.fit(spectra, conc), spectra)
            got = strategy.predict_fitted(strategy.fit(spectra, scaled), spectra)
            npt.assert_allclose(got, want, rtol=1e-10,
                                atol=1e-10 * np.abs(want).max())
        base = jackknife_spreads(spectra, conc, BASELINE_SPECS)
        for want, got in zip(base, jackknife_spreads(spectra, scaled, BASELINE_SPECS)):
            npt.assert_allclose(got, scale * want, rtol=1e-10)


def test_constant_fold_fails_every_baseline():
    # Without sample 0 the remaining spectra are identical, so fold 0 has
    # nothing to decompose; every baseline reports that fold.
    w = np.vstack([np.arange(6.0), np.ones((4, 6))])
    w[1:, 0] = 0.0
    spectra = SpectraSet(grid=np.arange(6.0), absorbance=w)
    conc = ConcentrationMatrix(values=np.linspace(0.1, 0.5, 5)[:, None])
    specs = [STUDY_METHODS[name] for name in ("MLR", "PCR-p", "PLS-o")]
    for error in jackknife_spreads(spectra, conc, specs):
        assert isinstance(error, FoldFailureError)
        assert "refit failed on fold 0" in str(error)
        assert isinstance(error.__cause__, DegenerateSpectraError)


@pytest.mark.parametrize("method", ["pcr", "pls"])
def test_spec_without_a_component_choice_keeps_the_variance_default(method):
    # The 0.9 default belongs to the fit configuration, so a library
    # jackknife needs no choice from its caller.
    cfg = SimConfig(seed=24, num_samples=10, phi=STRONG_PHI)
    spectra, conc, _ = generate_dataset(cfg)
    assert FitSpec(method=method).variance_fraction == 0.9
    npt.assert_array_equal(
        jackknife_sd(spectra, conc, FitSpec(method=method)),
        jackknife_sd(spectra, conc, FitSpec(method=method, variance_fraction=0.9)))


@pytest.mark.parametrize("choice, error", [
    ({"components": 3, "variance_fraction": 0.9}, InvalidParameterError),
    ({"variance_fraction": 1.5}, InvalidParameterError),
    ({"variance_fraction": float("nan")}, InvalidParameterError),
    ({"components": 0}, InvalidComponentsError),
], ids=["both", "fraction-above-one", "fraction-nan", "no-components"])
def test_spec_checks_the_component_choice(choice, error):
    with pytest.raises(error):
        FitSpec(method="pcr", **choice)
