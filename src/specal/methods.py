"""Method registry: uniform fit/predict strategies for every estimator.

The jackknife harness and the simulation studies treat calibration methods
as interchangeable fit/predict pairs.  A functional method is resolved
once (knots, one aggregated design, pilot covariance, penalty, lambda)
into a fit and its leave-one-out refits, which downdate the factored Gram
system of that design instead of rebuilding it per fold; the fit's
covariance and lambda serve every fold.  The folds run in blocks, each
block's refits and held-out predictions stacked, and yield held-out
estimates in index order, as the baselines' shared fold pass does; a
failing fold is named by :func:`predict.held_out_estimates`.
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
from .predict import held_out_estimates, predict_concentrations

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
                   closed_total: float | None) -> float | None:
    """Resolve an "auto" closure: pin predicted sums to the calibration row
    total ``closed_total`` exactly when the calibration rows were closed,
    which leaves the analyte curves summing to (near) zero."""
    if sum_to == "auto":
        return closed_total
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
    covariance and lambda, and predict with its closure.
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
        """``(design, fit, leave_one_out, args)`` for this method.

        ``fit(*args)`` is the calibration and ``leave_one_out(*args)`` its
        downdated folds in blocks, both on ``design``.  The functions are
        the module's own names, read when this runs.
        """
        spec = self.spec
        design = assemble_design(spectra, concentrations, self._knots(spectra))
        if spec.method == "gls-k":
            return design, fit_gls, gls_loo_coefficients, (
                design, self._pilot_covariance(design))
        if spec.method == "ols-k":
            return design, fit_ols, loo_coefficients, (design,)
        pen = penalty_matrix(design.basis)
        lam = (float(spec.lam) if spec.lam is not None
               else select_lambda(design, pen, spec.lam_grid))
        return design, fit_penalized, loo_coefficients, (design, pen, lam)

    def fit(self, spectra: SpectraSet,
            concentrations: ConcentrationMatrix) -> CalibrationModel:
        _, fit, _, args = self._calibration(spectra, concentrations)
        return fit(*args)

    def predict_fitted(self, fitted: CalibrationModel,
                       spectra: SpectraSet) -> np.ndarray:
        return predict_concentrations(
            fitted, spectra,
            sum_to=resolve_sum_to(self.spec.sum_to, fitted.closed_total))

    def jackknife_fits(self, spectra: SpectraSet, concentrations: ConcentrationMatrix
                       ) -> Iterator[tuple[int, np.ndarray]]:
        """Held-out estimates ``(i, y_i)`` of the fit's downdated folds, in
        index order (:func:`predict.held_out_estimates`), each predicted as
        :meth:`predict_fitted` would predict it from that fold's fit.  The
        resolution runs at once, so a full-data failure keeps its own type.
        """
        design, _, leave_one_out, args = self._calibration(spectra, concentrations)
        return held_out_estimates(
            leave_one_out(*args), design.b, spectra.absorbance,
            resolve_sum_to(self.spec.sum_to, design.closed_total))


class MultivariateStrategy(Strategy):
    """Classical chemometric baselines on the raw wavelength matrix.

    One rule (:meth:`coefficients`) serves a fit and the folds of a
    jackknife: a fit applies it to one decomposition of the centered
    calibration data (:func:`baselines.decompose`), a jackknife to blocks
    of folds downdated from one decomposition of the whole set
    (:func:`baselines.downdated_folds`), so every baseline of a jackknife
    shares its folds.
    """

    def fit(self, spectra: SpectraSet,
            concentrations: ConcentrationMatrix) -> baselines.MultivariateModel:
        dec = baselines.decompose(spectra.absorbance, concentrations.values)
        model = dec.model(self.spec.method.upper(), self.coefficients(dec.system))
        return replace(model, analytes=concentrations.analyte_names())

    def coefficients(self, pc: baselines.Systems) -> tuple[np.ndarray, ...]:
        """Principal-basis coefficients of every system in the stack, and
        for PCR and PLS the rotation from principal coordinates to scores."""
        spec = self.spec
        if spec.method == "mlr":
            return baselines.mlr_coefficients(pc)
        rule = (baselines.pcr_coefficients if spec.method == "pcr"
                else baselines.pls_coefficients)
        return rule(pc, spec.components, spec.variance_fraction)

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
