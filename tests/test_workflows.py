"""End-to-end workflows shaped like the two public benchmark layouts:
a coarse-grid many-analyte calibration set and a fine-grid three-analyte
one, both with open (non-closed) reference concentrations.

Open-sample data with all-positive analyte curves conflict with the
sum-to-zero block, and the system is identifiable without it when (1|Y)
has full rank, so the fits leave it out on such rows by themselves.  One
test pins that the default fit is unbiased on such data.
"""

import numpy as np
import numpy.testing as npt

from specal import io
from specal.basis import design_matrix, make_knots
from specal.methods import FitSpec, make_strategy
from specal.model import ConcentrationMatrix, SpectraSet
from specal.predict import jackknife_sd, predict_concentrations, sep


def synthetic_mixture(rng, grid, num_cal, num_pred, num_analytes,
                      noise=0.01, scale=1.0):
    kv = make_knots((grid[0], grid[-1]), 10)
    b = design_matrix(kv, grid).dense()
    coef = np.abs(rng.standard_normal((num_analytes + 1, 10))) * scale
    y_cal = rng.uniform(0.05, 1.0, (num_cal, num_analytes))
    y_pred = rng.uniform(0.05, 1.0, (num_pred, num_analytes))
    curves = coef @ b.T
    w_cal = curves[0] + y_cal @ curves[1:] + noise * rng.standard_normal(
        (num_cal, grid.size))
    w_pred = curves[0] + y_pred @ curves[1:] + noise * rng.standard_normal(
        (num_pred, grid.size))
    return w_cal, y_cal, w_pred, y_pred


def test_coarse_grid_ten_analyte_workflow():
    # 27 wavelengths, 10 analytes, 25 + 25 samples, mg/l-style open rows.
    rng = np.random.default_rng(41)
    grid = np.arange(220.0, 351.0, 5.0)
    w_cal, y_cal, w_pred, y_pred = synthetic_mixture(
        rng, grid, num_cal=25, num_pred=25, num_analytes=10)
    spectra = SpectraSet(grid=grid, absorbance=w_cal)
    conc = ConcentrationMatrix(values=y_cal)
    for spec in (
        FitSpec(method="ols-k", num_basis=14),
        FitSpec(method="ols-ss", lam_grid=np.logspace(-4, 4, 9)),
    ):
        strategy = make_strategy(spec)
        model = strategy.fit(spectra, conc)
        assert not model.closed_calibration
        target = SpectraSet(grid=grid, absorbance=w_pred)
        y_hat = strategy.predict_fitted(model, target)
        report = sep(y_pred, y_hat)
        assert report.overall < 0.05
    s = jackknife_sd(spectra, conc, FitSpec(method="ols-k", num_basis=14))
    assert s.shape == (10,)
    assert np.all(s < 0.1)


def test_default_fit_is_unbiased_on_open_positive_curves():
    # All-positive analyte curves cannot sum to zero; with open samples
    # the sum-to-zero block would act as a (mis)specification prior and
    # inflate SEP (0.55 with it, 0.008 without), so the fit leaves it out.
    rng = np.random.default_rng(43)
    grid = np.arange(220.0, 351.0, 5.0)
    w_cal, y_cal, w_pred, y_pred = synthetic_mixture(
        rng, grid, num_cal=25, num_pred=25, num_analytes=4)
    spectra = SpectraSet(grid=grid, absorbance=w_cal)
    conc = ConcentrationMatrix(values=y_cal)
    target = SpectraSet(grid=grid, absorbance=w_pred)
    strategy = make_strategy(FitSpec(method="ols-k", num_basis=14))
    model = strategy.fit(spectra, conc)
    assert sep(y_pred, strategy.predict_fitted(model, target)).overall < 0.05


def test_fine_grid_three_analyte_workflow(tmp_path):
    # 100 channels, 3 analytes, manual smoothing override, CSV round trip.
    rng = np.random.default_rng(42)
    grid = np.linspace(850.0, 1050.0, 100)
    w_cal, y_cal, w_pred, y_pred = synthetic_mixture(
        rng, grid, num_cal=40, num_pred=20, num_analytes=3, noise=0.02)
    ids = tuple(f"m{i}" for i in range(40))
    spectra = SpectraSet(grid=grid, absorbance=w_cal, sample_ids=ids)
    conc = ConcentrationMatrix(values=y_cal, sample_ids=ids,
                               analytes=("moist", "fat", "protein"))
    spec = FitSpec(method="ols-ss", lam=330.0)
    model = make_strategy(spec).fit(spectra, conc)
    assert model.lam == 330.0
    path = tmp_path / "model.json"
    io.save_model(model, path)
    loaded = io.load_model(path)
    target = SpectraSet(grid=grid, absorbance=w_pred)
    npt.assert_allclose(
        predict_concentrations(model, target),
        predict_concentrations(loaded, target),
        atol=1e-12,
    )
    report = sep(y_pred, predict_concentrations(model, target))
    assert report.overall < 0.05
