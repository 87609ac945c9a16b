"""Invariances of the functional estimators under relabelling and units.

Reordering the calibration samples changes nothing a functional fit
reports, and measuring the concentrations in other units (``y -> c y``,
with the closure total becoming ``c``) scales every prediction and every
jackknife spread by ``c``.
"""

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st

from specal.methods import FitSpec, make_strategy
from specal.model import ConcentrationMatrix, SpectraSet
from specal.predict import jackknife_sd
from specal.simulate import STRONG_PHI, SimConfig, generate_dataset

NUM_SAMPLES = 10
# Every basis-smoothing fit below uses the same coarse grid (T = 41).
CAL = generate_dataset(SimConfig(seed=31, num_samples=NUM_SAMPLES,
                                 grid_step=10.0, phi=STRONG_PHI))
NEW = generate_dataset(SimConfig(seed=32, num_samples=6, grid_step=10.0,
                                 phi=STRONG_PHI))[0]
SPECS = {
    "ols-k": FitSpec(method="ols-k", num_basis=10),
    "gls-k": FitSpec(method="gls-k", num_basis=10),
    "ols-ss": FitSpec(method="ols-ss", lam=10.0),
}
# Two-decimal factors keep the closure total exact at 5 significant digits.
SCALES = st.integers(50, 20000).map(lambda n: n / 100)


def predictions_and_spreads(spec, spectra, conc):
    strategy = make_strategy(spec)
    fitted = strategy.fit(spectra, conc)
    return (fitted, strategy.predict_fitted(fitted, NEW),
            jackknife_sd(spectra, conc, spec))


def reordered(order):
    spectra, conc, _ = CAL
    return (SpectraSet(grid=spectra.grid, absorbance=spectra.absorbance[order]),
            ConcentrationMatrix(values=conc.values[order]))


@pytest.mark.parametrize("method", ["ols-k", "gls-k", "ols-ss"])
@settings(max_examples=20, deadline=None)
@given(order=st.permutations(range(NUM_SAMPLES)))
def test_row_order_does_not_matter(method, order):
    _, want_pred, want_spread = predictions_and_spreads(SPECS[method], *CAL[:2])
    _, pred, spread = predictions_and_spreads(SPECS[method],
                                              *reordered(list(order)))
    npt.assert_allclose(pred, want_pred, rtol=1e-8)
    npt.assert_allclose(spread, want_spread, rtol=1e-8)


@pytest.mark.parametrize("method", ["ols-k", "gls-k"])
@settings(max_examples=20, deadline=None)
@given(c=SCALES)
def test_concentration_units_scale_outputs(method, c):
    spectra, conc, _ = CAL
    scaled = ConcentrationMatrix(values=c * conc.values)
    fitted, want_pred, want_spread = predictions_and_spreads(SPECS[method],
                                                             spectra, conc)
    fitted_c, pred, spread = predictions_and_spreads(SPECS[method], spectra,
                                                     scaled)
    assert fitted.closed_total == 1.0
    assert fitted_c.closed_total == c
    npt.assert_allclose(pred, c * want_pred, rtol=1e-8)
    npt.assert_allclose(spread, c * want_spread, rtol=1e-8)


@settings(max_examples=20, deadline=None)
@given(c=SCALES)
def test_covariance_scales_inversely_with_units(c):
    # The noise model mixes y^2 sigma2, so y -> c y leaves the fitted
    # decay rates alone and divides the variance scales by c^2.
    spectra, conc, _ = CAL
    strategy = make_strategy(SPECS["gls-k"])
    kv = strategy._knots(spectra)
    cov = strategy._pilot_covariance(spectra, conc, kv)
    cov_c = strategy._pilot_covariance(
        spectra, ConcentrationMatrix(values=c * conc.values), kv)
    npt.assert_array_equal(cov_c.phi, cov.phi)
    npt.assert_allclose(cov_c.sigma2, cov.sigma2 / c ** 2, rtol=1e-8)
