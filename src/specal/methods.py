"""Method registry: uniform fit/predict strategies for every estimator.

The jackknife harness and the simulation studies treat calibration methods
as interchangeable fit/predict pairs.  A functional method is resolved
once (knots, one aggregated design, pilot covariance, penalty, lambda)
into a fit and its leave-one-out refits, which downdate the factored Gram
system of that design instead of rebuilding it per fold; the fit's
covariance and lambda serve every fold.  Folds come in index order, and
:func:`predict.jackknife_spreads` names a failing one.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from numbers import Real
from typing import Iterator

import numpy as np

from . import baselines
from .basis import knots_from_grid, make_knots, penalty_matrix
from .calibrate import (
    CovarianceModel,
    fit_covariance,
    fit_gls,
    fit_ols,
    fit_penalized,
    gls_loo_coefficients,
    loo_coefficients,
    select_lambda,
)
from .errors import InvalidParameterError
from .model import (
    AggregatedDesign,
    CalibrationModel,
    ConcentrationMatrix,
    SpectraSet,
    assemble_design,
)
from .predict import predict_concentrations

FUNCTIONAL_METHODS = ("ols-k", "ols-ss", "gls-k")
MULTIVARIATE_METHODS = ("mlr", "pcr", "pls")


@dataclass(frozen=True)
class FitSpec:
    """Method name plus every tuning choice needed to refit from scratch.

    ``sum_to`` is "auto" (the default) or a finite number.  With "auto",
    predictions are closed exactly when the calibration concentrations are
    (every row summing to one total, such as 1 or 100).
    :data:`READ_FIELDS` lists the fields each method reads.
    """

    method: str = "ols-k"
    num_basis: int = 14
    lam: float | None = None
    lam_grid: np.ndarray | None = None
    components: int | None = None
    variance_fraction: float | None = None
    sum_to: float | str = "auto"

    def __post_init__(self) -> None:
        method = self.method.lower()
        if method not in FUNCTIONAL_METHODS + MULTIVARIATE_METHODS:
            raise InvalidParameterError(f"unknown method '{self.method}'")
        object.__setattr__(self, "method", method)
        if not (self.sum_to == "auto" or isinstance(self.sum_to, Real)
                and np.isfinite(self.sum_to)):
            raise InvalidParameterError(
                f"sum_to must be 'auto' or a finite number, got {self.sum_to!r}")
        if method in ("pcr", "pls"):  # by default 90% of the spectral variance
            if self.components is None and self.variance_fraction is None:
                object.__setattr__(self, "variance_fraction", 0.9)
            baselines.check_component_choice(self.components,
                                             self.variance_fraction)


# The FitSpec fields besides ``method`` that each method's fit or jackknife
# reads; the others keep their defaults and change nothing.
READ_FIELDS: dict[str, tuple[str, ...]] = {
    "ols-k": ("num_basis", "sum_to"),
    "ols-ss": ("lam", "lam_grid", "sum_to"),
    "gls-k": ("num_basis", "sum_to"),
    "mlr": (),
    "pcr": ("components", "variance_fraction"),
    "pls": ("components", "variance_fraction"),
}


def resolve_sum_to(sum_to: float | str,
                   fitted: CalibrationModel) -> float | None:
    """Resolve an "auto" closure: pin predicted sums to the calibration row
    total exactly when the calibration rows were closed, which leaves the
    analyte curves summing to (near) zero."""
    if sum_to == "auto":
        return fitted.closed_total
    return sum_to


class Strategy:
    """Fit/predict pair of one FitSpec."""

    def __init__(self, spec: FitSpec):
        self.spec = spec

    def fit(self, spectra: SpectraSet, concentrations: ConcentrationMatrix):
        raise NotImplementedError

    def predict_fitted(self, fitted, spectra: SpectraSet) -> np.ndarray:
        raise NotImplementedError


class FunctionalStrategy(Strategy):
    """Basis-smoothing, smoothing-spline and GLS calibration methods.

    One resolution (:meth:`_calibration`) serves :meth:`fit` and
    :meth:`jackknife_fits`: the folds downdate the fit's design, use its
    covariance and lambda, and carry its method label, analytes and
    closure.
    """

    def _knots(self, spectra: SpectraSet):
        if self.spec.method == "ols-ss":
            return knots_from_grid(spectra.grid)
        domain = (float(spectra.grid[0]), float(spectra.grid[-1]))
        return make_knots(domain, self.spec.num_basis)

    def _pilot_covariance(self, design: AggregatedDesign) -> CovarianceModel:
        """Noise covariance fitted to the residuals of a pilot OLS fit."""
        pilot = fit_ols(design, diagnostics=False)
        resid = design.spectra.absorbance - (
            design.conc_aug[:-1] @ design.b.evaluate(pilot.coefficients))
        return fit_covariance(resid, design.concentrations, design.spectra.grid)

    def _calibration(self, spectra: SpectraSet,
                     concentrations: ConcentrationMatrix):
        """``(design, lambda, fit, leave_one_out, args)`` for this method.

        ``fit(*args)`` is the calibration and ``leave_one_out(*args)`` its
        downdated folds, both on ``design``.  The functions are the
        module's own names, read when this runs.
        """
        spec = self.spec
        design = assemble_design(spectra, concentrations, self._knots(spectra))
        if spec.method == "gls-k":
            return design, 0.0, fit_gls, gls_loo_coefficients, (
                design, self._pilot_covariance(design))
        if spec.method == "ols-k":
            return design, 0.0, fit_ols, loo_coefficients, (design,)
        pen = penalty_matrix(design.basis)
        lam = (float(spec.lam) if spec.lam is not None
               else select_lambda(design, pen, spec.lam_grid))
        return design, lam, fit_penalized, loo_coefficients, (design, pen, lam)

    def fit(self, spectra: SpectraSet,
            concentrations: ConcentrationMatrix) -> CalibrationModel:
        _, _, fit, _, args = self._calibration(spectra, concentrations)
        return fit(*args)

    def predict_fitted(self, fitted: CalibrationModel,
                       spectra: SpectraSet) -> np.ndarray:
        return predict_concentrations(
            fitted, spectra, sum_to=resolve_sum_to(self.spec.sum_to, fitted)
        )

    def jackknife_fits(self, spectra: SpectraSet,
                       concentrations: ConcentrationMatrix) -> Iterator:
        """The fit's downdated folds; its resolution runs at once, so a
        full-data failure keeps its own type."""
        design, lam, _, leave_one_out, args = self._calibration(
            spectra, concentrations)
        labels = dict(basis=design.basis, method=self.spec.method.upper(),
                      lam=lam, analytes=concentrations.analyte_names(),
                      closed_total=design.closed_total)
        return ((i, CalibrationModel(coefficients=coef, **labels))
                for i, coef in leave_one_out(*args))


class MultivariateStrategy(Strategy):
    """Classical chemometric baselines on the raw wavelength matrix.

    A fit reads its coefficients off one decomposition of the centered
    calibration data (:func:`baselines.decompose`), so the jackknife can
    refit several baselines from one decomposition of each fold.
    """

    def fit(self, spectra: SpectraSet,
            concentrations: ConcentrationMatrix) -> baselines.MultivariateModel:
        model = self.fit_decomposition(
            baselines.decompose(spectra.absorbance, concentrations.values))
        return replace(model, analytes=concentrations.analyte_names())

    def fit_decomposition(self, dec: baselines.Decomposition
                          ) -> baselines.MultivariateModel:
        spec = self.spec
        if spec.method == "mlr":
            return baselines.mlr_from(dec)
        fitter = baselines.pcr_from if spec.method == "pcr" else baselines.pls_from
        return fitter(dec, spec.components, spec.variance_fraction)

    def predict_fitted(self, fitted: baselines.MultivariateModel,
                       spectra: SpectraSet) -> np.ndarray:
        return baselines.predict_multivariate(fitted, spectra.absorbance)


def make_strategy(spec: FitSpec) -> Strategy:
    if spec.method in FUNCTIONAL_METHODS:
        return FunctionalStrategy(spec)
    return MultivariateStrategy(spec)


# Canonical study method table: names as used in the comparison studies.
STUDY_METHODS: dict[str, FitSpec] = {
    "OLS-K": FitSpec(method="ols-k", num_basis=14),
    "GLS-K": FitSpec(method="gls-k", num_basis=14),
    "OLS-SS": FitSpec(method="ols-ss"),
    "MLR": FitSpec(method="mlr"),
    "PCR-o": FitSpec(method="pcr", components=3),
    "PCR-p": FitSpec(method="pcr", variance_fraction=0.9),
    "PLS-o": FitSpec(method="pls", components=3),
    "PLS-p": FitSpec(method="pls", variance_fraction=0.9),
}
