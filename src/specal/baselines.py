"""Classical multivariate calibration baselines: MLR, PCR, kernel PLS2.

All three regress mean-centered concentrations on mean-centered spectra
treated as unordered wavelength variables.  With more wavelengths than
samples the MLR solution is the minimum-norm one, so PCR and PLS with a
full set of components reproduce its training predictions.

Every fit starts from one :class:`Decomposition`: the centered data and
the thin SVD of the centered spectra.  MLR, PCR and PLS all read their
coefficients off it, so a leave-one-out fold decomposes its spectra once
for every baseline.  PLS2 is the kernel algorithm of Dayal & MacGregor
(1997, J. Chemometrics 11:73-85), run in the principal-axis basis where
the spectra's cross-product matrix is diagonal; it reaches the fixed
point of NIPALS without iterating.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import (
    ConvergenceError,
    DegenerateSpectraError,
    GridMismatchError,
    InvalidParameterError,
    InvalidComponentsError,
    ShapeError,
)


@dataclass(frozen=True)
class MultivariateModel:
    """Linear predictor ``y = intercept + w @ coefficients``.

    ``analytes`` names the prediction columns; None for a model fitted on
    bare arrays, or read from a file written before the names were kept.
    """

    method: str
    intercept: np.ndarray
    coefficients: np.ndarray
    components: int | None = None
    variance_fraction: float | None = None
    scores: np.ndarray | None = None
    analytes: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        intercept = np.asarray(self.intercept, dtype=float).ravel()
        coefficients = np.asarray(self.coefficients, dtype=float)
        if coefficients.ndim != 2 or coefficients.shape[1] != intercept.size:
            raise ShapeError("coefficient matrix must be wavelengths x analytes")
        if not (np.all(np.isfinite(intercept)) and np.all(np.isfinite(coefficients))):
            raise ShapeError("model parameters contain non-finite values")
        if self.components is not None and self.components < 1:
            raise InvalidComponentsError("component count must be at least one")
        if self.analytes is not None and len(self.analytes) != intercept.size:
            raise ShapeError(f"{len(self.analytes)} analyte names for "
                             f"{intercept.size} prediction columns")
        object.__setattr__(self, "intercept", intercept)
        object.__setattr__(self, "coefficients", coefficients)

    @property
    def num_features(self) -> int:
        return self.coefficients.shape[0]


@dataclass(frozen=True)
class Decomposition:
    """Calibration means and the thin SVD ``u diag(s) vt`` of the centered
    spectra.

    ``rank`` counts the singular values above ``s[0] max(shape) eps``, the
    cutoff of ``numpy.linalg.lstsq(rcond=None)``.  ``uy`` holds the
    centered concentrations in the principal basis, ``u'Y`` over those
    ``rank`` directions.
    """

    w_mean: np.ndarray
    y_mean: np.ndarray
    u: np.ndarray
    s: np.ndarray
    vt: np.ndarray
    rank: int
    uy: np.ndarray

    def model(self, method: str, principal_coef: np.ndarray,
              components: int | None = None,
              scores: np.ndarray | None = None) -> MultivariateModel:
        """Model whose coefficients are ``principal_coef`` (one row per
        leading principal direction) mapped back to wavelengths."""
        coef = self.vt[:principal_coef.shape[0]].T @ principal_coef
        explained = None
        if components is not None:
            var = self.s[:self.rank] ** 2
            explained = float(np.sum(var[:components]) / np.sum(var))
        return MultivariateModel(
            method=method,
            intercept=self.y_mean - self.w_mean @ coef,
            coefficients=coef,
            components=components,
            variance_fraction=explained,
            scores=scores,
        )


def decompose(w: np.ndarray, y: np.ndarray) -> Decomposition:
    """Center spectra and concentrations and decompose the spectra."""
    w = np.atleast_2d(np.asarray(w, dtype=float))
    y = np.atleast_2d(np.asarray(y, dtype=float))
    if w.shape[0] != y.shape[0]:
        raise ShapeError("spectra and concentrations disagree on sample count")
    if w.shape[0] < 2:
        raise InvalidParameterError("baseline fits need at least two samples")
    w_mean = w.mean(axis=0)
    y_mean = y.mean(axis=0)
    wc = w - w_mean
    if not np.any(wc):
        raise DegenerateSpectraError("spectra are constant across samples")
    u, s, vt = np.linalg.svd(wc, full_matrices=False)
    rank = int(np.sum(s > s[0] * max(wc.shape) * np.finfo(float).eps))
    return Decomposition(w_mean=w_mean, y_mean=y_mean, u=u, s=s, vt=vt,
                         rank=rank, uy=u[:, :rank].T @ (y - y_mean))


def fold_decompositions(w: np.ndarray, y: np.ndarray
                        ) -> Iterator[tuple[int, Decomposition]]:
    """Decompositions of the data without each sample in turn.

    Built one fold at a time, so only one is alive while the baselines of
    its fold are refitted.
    """
    n = w.shape[0]
    for i in range(n):
        keep = np.arange(n) != i
        yield i, decompose(w[keep], y[keep])


def check_component_choice(components: int | None,
                           variance_fraction: float | None) -> None:
    """Exactly one of a count of at least one (checked against the rank
    when a fit is made) or a variance fraction in (0, 1)."""
    if (components is None) == (variance_fraction is None):
        raise InvalidParameterError(
            "select components with exactly one of a fixed count or a "
            "variance fraction"
        )
    if components is not None and components < 1:
        raise InvalidComponentsError(
            f"component count must be at least one, got {components}")
    if variance_fraction is not None and not 0 < variance_fraction < 1:
        raise InvalidParameterError("variance fraction must lie in (0, 1)")


def _component_count(dec: Decomposition, components: int | None,
                     variance_fraction: float | None) -> int:
    check_component_choice(components, variance_fraction)
    if components is not None:
        if components > dec.rank:
            raise InvalidComponentsError(
                f"component count {components} outside [1, rank={dec.rank}]"
            )
        return components
    var = dec.s[:dec.rank] ** 2
    cumulative = np.cumsum(var) / var.sum()
    return int(np.searchsorted(cumulative, variance_fraction - 1e-12) + 1)


def mlr_from(dec: Decomposition) -> MultivariateModel:
    """Minimum-norm least squares: regression on every principal direction."""
    return dec.model("MLR", dec.uy / dec.s[:dec.rank, None])


def pcr_from(dec: Decomposition, components: int | None = None,
             variance_fraction: float | None = None) -> MultivariateModel:
    """Regression on the top ``p`` principal directions of the spectra."""
    p = _component_count(dec, components, variance_fraction)
    s = dec.s[:p]
    return dec.model("PCR", dec.uy[:p] / s[:, None], components=p,
                     scores=dec.u[:, :p] * s)


def pls_from(dec: Decomposition, components: int | None = None,
             variance_fraction: float | None = None) -> MultivariateModel:
    """Kernel PLS2 (Dayal & MacGregor 1997) in the principal-axis basis.

    With ``X = U_r S V_r'`` the cross products are ``X'X = diag(s^2)`` and
    ``X'Y = S U_r'Y`` there.  Each weight ``w`` is the leading left
    singular vector of the deflated ``X'Y`` (the NIPALS fixed point),
    ``r = w - R P'w`` its rotation onto the undeflated spectra, and only
    ``X'Y`` is deflated.  Scores are ``X R``.  The variance-fraction
    selector counts components exactly as PCR does, so the two methods
    stay comparable when run side by side.
    """
    p = _component_count(dec, components, variance_fraction)
    rank = dec.rank
    s = dec.s[:rank]
    s_sq = s * s
    xy = s[:, None] * dec.uy
    m = xy.shape[1]
    rotation = np.zeros((rank, p))
    loadings = np.zeros((rank, p))
    y_loadings = np.zeros((m, p))
    x_norm_sq = float(np.sum(s_sq))  # squared norm of the deflated spectra
    for a in range(p):
        cross_scale = np.linalg.norm(xy)
        if cross_scale < 1e-14 * max(np.sqrt(max(x_norm_sq, 0.0)), 1.0):
            raise ConvergenceError(
                f"PLS weight vector vanished on component {a + 1}"
            )
        if m == 1:
            w_vec = xy[:, 0] / cross_scale
        else:
            w_vec = np.linalg.svd(xy, full_matrices=False)[0][:, 0]
        r_vec = w_vec - rotation[:, :a] @ (loadings[:, :a].T @ w_vec)
        xx_r = s_sq * r_vec
        t_norm_sq = r_vec @ xx_r
        p_vec = xx_r / t_norm_sq
        c_vec = xy.T @ r_vec / t_norm_sq
        xy = xy - t_norm_sq * np.outer(p_vec, c_vec)
        x_norm_sq -= t_norm_sq * (p_vec @ p_vec)
        rotation[:, a] = r_vec
        loadings[:, a] = p_vec
        y_loadings[:, a] = c_vec
    scores = (dec.u[:, :rank] * s) @ rotation
    return dec.model("PLS", rotation @ y_loadings.T, components=p,
                     scores=scores)


def fit_mlr(w: np.ndarray, y: np.ndarray) -> MultivariateModel:
    """Multiple linear regression, minimum-norm when rank deficient."""
    return mlr_from(decompose(w, y))


def fit_pcr(w: np.ndarray, y: np.ndarray, components: int | None = None,
            variance_fraction: float | None = None) -> MultivariateModel:
    """Principal components regression on the top directions of the spectra."""
    return pcr_from(decompose(w, y), components, variance_fraction)


def fit_pls(w: np.ndarray, y: np.ndarray, components: int | None = None,
            variance_fraction: float | None = None) -> MultivariateModel:
    """Kernel PLS2 on the centered spectra; see :func:`pls_from`."""
    return pls_from(decompose(w, y), components, variance_fraction)


def predict_multivariate(model: MultivariateModel, w_new: np.ndarray) -> np.ndarray:
    """Apply the linear predictor; the wavelength grid must match training."""
    w_new = np.atleast_2d(np.asarray(w_new, dtype=float))
    if w_new.shape[1] != model.num_features:
        raise GridMismatchError(
            f"prediction spectra have {w_new.shape[1]} wavelengths, model was "
            f"trained on {model.num_features}; multivariate baselines cannot "
            "interpolate across grids"
        )
    return model.intercept[None, :] + w_new @ model.coefficients
