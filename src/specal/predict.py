"""Concentration prediction, jackknife spread estimates, SEP metrics.

Prediction inverts a fitted calibration: each new spectrum is regressed on
the fitted analyte curves after subtracting the baseline.  A report walks
the new spectra in row blocks (:func:`_blocked_estimates`); a jackknife
regresses each held-out spectrum on its own fold's curves, a block of
folds at a time (:func:`held_out_estimates`).  Both take the closure, the
rank check and the solve, a thin SVD of the curves, from one place
(:class:`_Regression`).  The optional
``sum_to`` closure resolves the direction that closed calibration samples
leave unidentified (fitted analyte curves then sum to zero pointwise, so
the plain normal equations are singular by construction).  The fold
passes number the leave-one-out folds and name the first that fails.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .baselines import MultivariateModel, downdated_folds, predict_multivariate
from .basis import BasisDesign
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


class _Regression:
    """Least squares of spectra on fitted curves, for one fit or a stack.

    ``curves`` (..., m+1, T) holds each fit's baseline and analyte curves
    ``a`` on the grid.  Without ``sum_to`` a spectrum ``w`` is estimated
    as ``argmin |a y - (w - baseline)|``.  With it, the estimate is held
    to that component sum: ``y = center + v z``, ``center`` being
    ``sum_to / m`` per analyte, ``v`` an orthonormal basis of the
    zero-sum subspace and ``z = argmin |(a v) z - (w - baseline -
    shift)|`` with ``shift = a center``; one analyte is then ``sum_to``
    with no regression.  ``design`` is the matrix regressed on (``a`` or
    ``a v``, none for one analyte) and ``svd`` its thin SVD, the one solve
    (:meth:`solve`) of a report and of the jackknife folds.  A fit is
    ``degenerate`` when its design's smallest singular value is at most
    ``_RANK_RTOL`` of the largest of ``a``, and, without ``sum_to``, when
    its calibration rows were ``closed``: its curves then sum to near zero,
    even at full rank.  Curves that coincide leave ``a v`` as rounding
    noise of any rank, so ``a v`` is not measured against itself.
    """

    def __init__(self, curves: np.ndarray, sum_to: float | None, closed: bool):
        self.sum_to = sum_to
        self.baseline = curves[..., 0, :]
        self.curves = np.swapaxes(curves[..., 1:, :], -1, -2)       # (..., T, m)
        self.design = self.curves
        self.shift = self.center = self.v = self.svd = None
        m = self.curves.shape[-1]
        if sum_to is not None:
            q, _ = np.linalg.qr(np.ones((m, 1)), mode="complete")
            self.v = q[:, 1:]
            self.center = (float(sum_to) / m) * np.ones(m)
            self.shift, self.design = self.curves @ self.center, self.curves @ self.v
        self.degenerate = np.full(curves.shape[:-2], sum_to is None and closed)
        if self.design.shape[-1]:
            self.svd = np.linalg.svd(self.design, full_matrices=False)
            singular = self.svd[1]
            largest = (singular[..., 0] if sum_to is None else
                       np.linalg.svd(self.curves, compute_uv=False)[..., 0])
            self.degenerate |= ~(singular[..., -1] > _RANK_RTOL * largest)

    def error(self) -> DegenerateAnalytesError:
        if self.sum_to is None:
            return DegenerateAnalytesError(
                "fitted analyte curves sum to zero for closed calibration "
                "samples, or are collinear on this grid; supply sum_to to "
                "resolve the unidentified direction")
        return DegenerateAnalytesError(
            f"fitted analyte curves are collinear on this grid once the "
            f"estimates are held to sum to {self.sum_to:g}: no estimate "
            f"separates the analytes")

    def solve(self, w: np.ndarray) -> np.ndarray:
        """Estimates (..., m) of the spectra ``w`` (..., T), one per fit,
        from the thin SVD: ``z = V diag(1/s) U' (w - baseline - shift)``."""
        if self.svd is None:
            return np.full(w.shape[:-1] + (1,), float(self.sum_to))
        target = w - self.baseline
        if self.shift is not None:
            target -= self.shift
        u, singular, vt = self.svd
        z = np.swapaxes(u, -1, -2) @ target[..., None]
        z = (np.swapaxes(vt, -1, -2) @ (z / singular[..., None]))[..., 0]
        return z if self.v is None else self.center + z @ self.v.T


def _blocked_estimates(model: CalibrationModel, spectra: SpectraSet,
                       sum_to: float | None) -> tuple[np.ndarray, np.ndarray]:
    """Estimates and residual norms, ``_BLOCK_ROWS`` spectra at a time.

    The analyte curves are evaluated, factored and their rank checked once
    (:class:`_Regression`); each block is solved as the jackknife folds
    are and makes only its own residuals.  The block size is fixed, not an
    even split of the batch: BLAS picks a row's kernel by its position
    modulo the kernel's unroll width, and fixed blocks starting at row 0
    keep each row where one pass over the batch would put it, so the
    residual norms do not depend on the blocking (a tail block of a single
    row may take another kernel and move in the last bit).
    """
    fit = _Regression(model.curve_values(spectra.grid), sum_to,
                      model.closed_calibration)
    if fit.degenerate:
        raise fit.error()
    baseline, a = fit.baseline, fit.curves
    w = spectra.absorbance
    y_hat = np.empty((len(w), a.shape[1]))
    residual_norms = np.empty(len(w))
    for start in range(0, len(w), _BLOCK_ROWS):
        block = slice(start, start + _BLOCK_ROWS)
        rows = w[block]
        y = y_hat[block] = fit.solve(rows)
        # In place, the residual and its squares are one block-sized array:
        # with the spectra held once, this loop sets the predict peak.
        fitted = y @ a.T
        fitted += baseline
        fitted -= rows
        np.square(fitted, out=fitted)
        residual_norms[block] = np.sqrt(fitted.sum(axis=1))
        del fitted  # before the next block's solve makes its own target
    return y_hat, residual_norms


def held_out_estimates(blocks, b: BasisDesign, w: np.ndarray,
                       sum_to: float | None) -> Iterator[tuple[int, np.ndarray]]:
    """``(i, y_i)``: the estimate of held-out spectrum ``w[i]`` from the fit
    of fold ``i``, in fold order.

    ``blocks`` yields ``(start, coefficients)``, the (n, m+1, K) fits of
    folds ``start ..`` (:func:`calibrate.loo_coefficients`), on the basis
    design ``b`` of ``w``'s grid.  A block's curves are evaluated at once,
    (n, m+1, T), and each held-out spectrum regressed on its own fold's
    curves through one stacked thin SVD (:class:`_Regression`, with the
    rank check and ``sum_to`` closure of every other prediction; a
    jackknife resolves ``sum_to`` from its rows, so closed rows always come
    with one).  The first failing fold is
    named: one the source could not fit ("refit failed on fold i") or one
    whose curves cannot be regressed on ("prediction failed on fold i").
    """
    for start, coef in _numbered(blocks, len):
        fit = _Regression(b.evaluate(coef), sum_to, closed=False)
        with np.errstate(divide="ignore", invalid="ignore"):
            y_hat = fit.solve(w[start:start + len(coef)])
        count = int(fit.degenerate.argmax()) if fit.degenerate.any() else len(coef)
        for j in range(count):
            yield start + j, y_hat[j]
        if count < len(coef):
            cause = fit.error()
            raise FoldFailureError(
                f"prediction failed on fold {start + count}: {cause}") from cause


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


def _numbered(folds, width):
    """Re-yield the ``(i, fit)`` pairs of a fold source, which yields them in
    index order, ``fit`` covering ``width(fit)`` folds from ``i`` (a
    block); an error making fold ``i`` becomes a FoldFailureError."""
    i = 0
    try:
        for start, fit in folds:
            yield start, fit
            i = start + width(fit)
    except SpecalError as exc:
        raise FoldFailureError(f"refit failed on fold {i}: {exc}") from exc


def jackknife_spreads(spectra: SpectraSet, concentrations: ConcentrationMatrix,
                      fit_configs) -> list[np.ndarray | SpecalError]:
    """Leave-one-out spreads of several predictors on one calibration set.

    Entry ``k`` is the spread :func:`jackknife_sd` gives the FitSpec
    ``fit_configs[k]``, or the error that stopped that configuration; a
    failing configuration leaves the others running.  Functional methods
    run their own leave-one-out passes one after another, each a pass over
    blocks of folds that yields the held-out estimates
    (:meth:`methods.FunctionalStrategy.jackknife_fits`).  The multivariate
    baselines share one pass over blocks of folds: one SVD of the
    calibration spectra, downdated to each fold in its principal
    coordinates (:func:`baselines.downdated_folds`), where every baseline
    refits and predicts a block's held-out samples together
    (:meth:`methods.MultivariateStrategy.coefficients`) without a
    wavelength-length array.  Squared errors add up in fold order, so the
    spreads do not depend on the blocking.  Only a failure inside a fold
    is a FoldFailureError, naming the first failing fold; one of a
    functional method's full-data resolution keeps its own type.
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
    shared = []
    for k, strategy in enumerate(strategies):
        if isinstance(strategy, MultivariateStrategy):
            shared.append(k)
            continue
        try:
            for i, y_hat in strategy.jackknife_fits(spectra, concentrations):
                sq_sums[k] += (y[i] - y_hat) ** 2
        except SpecalError as exc:
            errors[k] = exc
    blocks = (_numbered(downdated_folds(spectra.absorbance, y,
                                        [strategies[k].spec for k in shared]),
                        lambda block: block.size)
              if shared else ())
    try:
        for start, block in blocks:
            if all(errors[k] is not None for k in shared):
                break
            for rule, k in enumerate(shared):
                if errors[k] is not None:
                    continue
                y_hat = np.empty((block.size, concentrations.num_analytes))
                failures = []
                for part in block.parts(rule):
                    try:
                        fitted = strategies[k].coefficients(part)
                    except SpecalError as exc:
                        failures.append((int(part.folds[getattr(exc, "system", 0)]), exc))
                    else:
                        y_hat[part.folds - start] = part.predict(fitted[0])
                if failures:
                    i, exc = min(failures, key=lambda failure: failure[0])
                    errors[k] = FoldFailureError(f"refit failed on fold {i}: {exc}")
                    errors[k].__cause__ = exc
                    continue
                for sq in (y[start:start + block.size] - y_hat) ** 2:  # in fold order
                    sq_sums[k] += sq
    except SpecalError as exc:
        for k in shared:
            if errors[k] is None:
                errors[k] = exc
    return [np.sqrt(sq_sum / spectra.num_samples) if error is None else error
            for sq_sum, error in zip(sq_sums, errors)]


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
