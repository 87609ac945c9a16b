"""Concentration prediction, jackknife spread estimates, SEP metrics.

Prediction inverts a fitted calibration: each new spectrum is regressed on
the fitted analyte curves after subtracting the baseline, in one blocked
loop (:func:`_blocked_estimates`) that every functional prediction runs.
The optional ``sum_to`` closure resolves the direction that closed
calibration samples leave unidentified (fitted analyte curves then sum to
zero pointwise, so the plain normal equations are singular by
construction).  The jackknife (:func:`jackknife_spreads`) is the one place
that numbers the leave-one-out folds and names a fold that fails.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .baselines import MultivariateModel, downdated_folds, predict_multivariate
from .errors import (
    DegenerateAnalytesError,
    FoldFailureError,
    InsufficientSamplesError,
    InvalidParameterError,
    ShapeError,
    SpecalError,
)
from .model import CalibrationModel, ConcentrationMatrix, SpectraSet

_RANK_RTOL = 1e-10
# Spectra per block of a functional prediction report; a multiple of
# OpenBLAS's kernel unroll widths (see _blocked_estimates).
_BLOCK_ROWS = 256


@dataclass(frozen=True)
class PredictionReport:
    """Predicted concentrations with jackknife spreads and intervals."""

    y_hat: np.ndarray
    s: np.ndarray
    intervals: np.ndarray
    c: float
    residual_norms: np.ndarray
    outside_unit_range: np.ndarray
    analytes: tuple[str, ...]


@dataclass(frozen=True)
class SepReport:
    """Root-mean-square prediction errors, per component and overall."""

    per_component: np.ndarray
    overall: float
    num_samples: int
    num_analytes: int


def predict_concentrations(model: CalibrationModel, spectra: SpectraSet,
                           sum_to: float | None = None) -> np.ndarray:
    """Per-sample least squares concentrations for new spectra.

    Estimates are unconstrained and may leave [0, 1]; they are reported
    as-is.  With ``sum_to`` given, the component sum of every estimate is
    pinned to that value, which restores well-posedness when the analyte
    curves sum to zero; a model of closed calibration rows needs it.
    """
    return _blocked_estimates(model, spectra, sum_to)[0]


def prediction_report(model: CalibrationModel | MultivariateModel,
                      spectra: SpectraSet, s: np.ndarray, c: float = 1.96,
                      sum_to: float | None = None) -> PredictionReport:
    """Full prediction output: estimates, intervals, residual norms.

    A functional model regresses each spectrum on its analyte curves and
    reports each spectrum's residual norm (:func:`_blocked_estimates`); a
    multivariate model (MLR, PCR, PLS) applies its linear predictor and
    reports zero norms.  Either way the report holds the new spectra once:
    the linear predictor makes no spectra-sized array, and the functional
    path walks the spectra in blocks of ``_BLOCK_ROWS`` rows.
    """
    s = np.asarray(s, dtype=float).ravel()
    multivariate = isinstance(model, MultivariateModel)
    if s.size != (model.intercept.size if multivariate else model.num_analytes):
        raise ShapeError("jackknife spread vector length does not match analytes")
    if multivariate:
        # One product over the whole batch: split into blocks, it would run
        # on OpenBLAS's small-matrix kernel and move the estimates' last bits.
        y_hat = predict_multivariate(model, spectra.absorbance)
        residual_norms = np.zeros(len(y_hat))
    else:
        y_hat, residual_norms = _blocked_estimates(model, spectra, sum_to)
    return PredictionReport(
        y_hat=y_hat,
        s=s,
        intervals=confidence_intervals(y_hat, s, c),
        c=float(c),
        residual_norms=residual_norms,
        outside_unit_range=np.any((y_hat < 0) | (y_hat > 1), axis=1),
        analytes=model.analytes,
    )


def _blocked_estimates(model: CalibrationModel, spectra: SpectraSet,
                       sum_to: float | None) -> tuple[np.ndarray, np.ndarray]:
    """Estimates and residual norms, ``_BLOCK_ROWS`` spectra at a time.

    The analyte curves are evaluated and their rank checked once; each
    block makes only its own residuals.  The block size is fixed, not an
    even split of the batch: BLAS picks a row's kernel by its position
    modulo the kernel's unroll width, and fixed blocks starting at row 0
    keep each row where one pass over the batch would put it, so the
    estimates do not depend on the blocking (a tail block of a single row
    may take another kernel and move in the last bit).
    """
    curves = model.curve_values(spectra.grid)
    baseline, a = curves[0], curves[1:].T
    m = a.shape[1]
    if sum_to is None:
        # Closed rows leave the curves summing to near zero, even at full rank.
        singular = np.linalg.svd(a, compute_uv=False)
        if model.closed_calibration or not singular[-1] > _RANK_RTOL * singular[0]:
            raise DegenerateAnalytesError(
                "fitted analyte curves sum to zero for closed calibration "
                "samples, or are collinear on this grid; supply sum_to to "
                "resolve the unidentified direction"
            )
    elif m > 1:
        # Solve on the zero-sum subspace, then shift to the requested total.
        q, _ = np.linalg.qr(np.ones((m, 1)), mode="complete")
        v = q[:, 1:]
        center = (float(sum_to) / m) * np.ones(m)
        shift, av = a @ center, a @ v
    w = spectra.absorbance
    y_hat = np.empty((len(w), m))
    residual_norms = np.empty(len(w))
    for start in range(0, len(w), _BLOCK_ROWS):
        block = slice(start, start + _BLOCK_ROWS)
        rows = w[block]
        if sum_to is None:
            y = np.linalg.lstsq(a, (rows - baseline).T, rcond=None)[0].T
        elif m == 1:
            y = np.full((len(rows), 1), float(sum_to))
        else:
            target = (rows - baseline).T
            target -= shift[:, None]
            y = (center[:, None] + v @ np.linalg.lstsq(av, target, rcond=None)[0]).T
            del target  # before the residual product, which sets the peak
        y_hat[block] = y
        # In place, the residual needs no block-sized temporary beside the
        # fit: with the spectra held once this loop sets the predict peak.
        fitted = y @ a.T
        fitted += baseline
        fitted -= rows
        residual_norms[block] = np.linalg.norm(fitted, axis=1)
    return y_hat, residual_norms


def confidence_intervals(y_hat: np.ndarray, s: np.ndarray, c: float = 1.96) -> np.ndarray:
    """Elementwise ``y_hat +- c * s`` as a (J, m, 2) array."""
    if not 0 < c < np.inf:
        raise InvalidParameterError(
            f"interval multiplier must be finite and positive, got {c}")
    y_hat = np.atleast_2d(np.asarray(y_hat, dtype=float))
    s = np.asarray(s, dtype=float).ravel()
    if s.size != y_hat.shape[1]:
        raise ShapeError("spread vector length does not match prediction columns")
    if np.any(s < 0):
        raise InvalidParameterError("spreads must be nonnegative")
    half = c * s[None, :]
    return np.stack([y_hat - half, y_hat + half], axis=-1)


def _numbered(folds):
    """Re-yield the ``(i, fit)`` pairs of a fold source, which yields them in
    index order; an error making fold ``i`` becomes a FoldFailureError."""
    i = 0
    try:
        for i, fit in folds:
            yield i, fit
            i += 1
    except SpecalError as exc:
        raise FoldFailureError(f"refit failed on fold {i}: {exc}") from exc


def jackknife_spreads(spectra: SpectraSet, concentrations: ConcentrationMatrix,
                      fit_configs) -> list[np.ndarray | SpecalError]:
    """Leave-one-out spreads of several predictors on one calibration set.

    Entry ``k`` is the spread :func:`jackknife_sd` gives the FitSpec
    ``fit_configs[k]``, or the error that stopped that configuration; a
    failing configuration leaves the others running.  Functional methods
    run their own leave-one-out paths one after another.  The multivariate
    baselines share one pass over the folds: one SVD of the calibration
    spectra, downdated to each fold in its principal coordinates
    (:func:`baselines.downdated_folds`), where every baseline refits and
    predicts the held-out sample without a wavelength-length array.  Only
    a failure inside a fold is a FoldFailureError; one of a functional
    method's full-data fit keeps its own type.
    """
    from .methods import MultivariateStrategy, make_strategy

    strategies = [make_strategy(config) for config in fit_configs]
    if spectra.num_samples != concentrations.num_samples:
        return [ShapeError("spectra and concentrations disagree on sample "
                           "count")] * len(strategies)
    if spectra.num_samples < 3:
        return [InvalidParameterError("jackknife needs at least three "
                                      "samples")] * len(strategies)
    y = concentrations.values
    sq_sums = np.zeros((len(strategies), concentrations.num_analytes))
    errors: list[SpecalError | None] = [None] * len(strategies)

    def add(k: int, i: int, fitted, held_out: SpectraSet) -> None:
        try:
            y_hat = strategies[k].predict_fitted(fitted, held_out)
        except Exception as exc:  # noqa: BLE001 - rewrapped with fold context
            raise FoldFailureError(f"prediction failed on fold {i}: {exc}") from exc
        sq_sums[k] += (y[i] - y_hat[0]) ** 2

    shared = []
    for k, strategy in enumerate(strategies):
        if isinstance(strategy, MultivariateStrategy):
            shared.append(k)
            continue
        try:
            for i, fitted in _numbered(strategy.jackknife_fits(spectra, concentrations)):
                add(k, i, fitted, _held_out(spectra, i))
        except SpecalError as exc:
            errors[k] = exc
    folds = _numbered(downdated_folds(spectra.absorbance, y)) if shared else ()
    try:
        for i, fold in folds:
            live = [k for k in shared if errors[k] is None]
            if not live:
                break
            for k in live:
                try:
                    y_hat = strategies[k].predict_fold(fold)
                except SpecalError as exc:
                    errors[k] = FoldFailureError(f"refit failed on fold {i}: {exc}")
                    errors[k].__cause__ = exc
                else:
                    sq_sums[k] += (y[i] - y_hat) ** 2
    except SpecalError as exc:
        for k in shared:
            if errors[k] is None:
                errors[k] = exc
    return [np.sqrt(sq_sum / spectra.num_samples) if error is None else error
            for sq_sum, error in zip(sq_sums, errors)]


def _held_out(spectra: SpectraSet, i: int) -> SpectraSet:
    return SpectraSet(grid=spectra.grid, absorbance=spectra.absorbance[i:i + 1])


def jackknife_sd(spectra: SpectraSet, concentrations: ConcentrationMatrix,
                 fit_config) -> np.ndarray:
    """Leave-one-out spread of the concentration predictor.

    For each calibration sample the model is refitted without it (same
    method and tuning as the FitSpec ``fit_config``), the held-out sample
    predicted, and the squared errors averaged with 1/I normalization.
    """
    spread, = jackknife_spreads(spectra, concentrations, [fit_config])
    if isinstance(spread, SpecalError):
        raise spread
    return spread


def sep(y_true: np.ndarray, y_hat: np.ndarray) -> SepReport:
    """Standard error of prediction from squared residuals.

    Component ``l`` uses ``sqrt(sum_j r_jl^2 / (J - 1))``; the overall
    figure pools all residuals with denominator ``m J - 1``.
    """
    y_true = np.atleast_2d(np.asarray(y_true, dtype=float))
    y_hat = np.atleast_2d(np.asarray(y_hat, dtype=float))
    if y_true.shape != y_hat.shape:
        raise ShapeError(
            f"shape mismatch: truth {y_true.shape} vs predictions {y_hat.shape}"
        )
    j, m = y_true.shape
    if j < 2:
        raise InsufficientSamplesError("SEP needs at least two prediction samples")
    resid = y_true - y_hat
    per_component = np.sqrt(np.sum(resid ** 2, axis=0) / (j - 1))
    overall = float(np.sqrt(np.sum(resid ** 2) / (m * j - 1)))
    return SepReport(
        per_component=per_component,
        overall=overall,
        num_samples=j,
        num_analytes=m,
    )
