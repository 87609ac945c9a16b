"""Classical multivariate calibration baselines: MLR, PCR, kernel PLS2.

All three regress mean-centered concentrations on mean-centered spectra
treated as unordered wavelength variables.  With more wavelengths than
samples the MLR solution is the minimum-norm one, so PCR and PLS with a
full set of components reproduce its training predictions.

Each rule reads its coefficients off principal coordinates: the singular
values of the centered spectra and the centered concentrations on their
left singular vectors.  A full fit takes these from the thin SVD of its
data (:class:`Decomposition`) and maps its coefficients back to
wavelengths.  A jackknife takes one SVD of the whole calibration set and
downdates each fold in its principal coordinates (:func:`downdated_folds`):
dropping a sample and recentering changes the spectra's cross-product by
one rank-one term, so a fold's singular values and rotation come from a
rank-by-rank symmetric eigenproblem (Bunch, Nielsen & Sorensen 1978,
Numer. Math. 31:31-48), and its held-out sample is predicted there with
no wavelength-length array.  Solving for squared singular values costs
relative accuracy in the small ones: each eigenvalue carries an absolute
error near ``eps s_0^2``.  PCR and PLS, which read the leading
directions, keep full accuracy.  MLR divides by every singular value, so
a fold is downdated only while its smallest eigenvalue is above
``sqrt(eps) s_0^2``, keeping MLR within about ``sqrt(eps)`` relative of
a refit from scratch.  A fold below that (one that may have lost a
direction, or keeps one badly conditioned) is taken instead from a thin
SVD of its rows in principal coordinates, with the rank cutoff of
``numpy.linalg.lstsq``.

PLS2 is the kernel algorithm of Dayal & MacGregor (1997, J. Chemometrics
11:73-85), run in the principal-axis basis where the spectra's
cross-product matrix is diagonal; it reaches the fixed point of NIPALS
without iterating.
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
    spectra, for a full fit.

    ``rank`` counts the singular values above ``s[0] max(shape) eps``, the
    cutoff of ``numpy.linalg.lstsq(rcond=None)``.  ``uy`` holds the
    centered concentrations in the principal basis, ``u'Y`` over those
    ``rank`` directions.  Jackknife folds do not decompose their own
    spectra: :func:`downdated_folds` downdates this decomposition of the
    whole set.
    """

    w_mean: np.ndarray
    y_mean: np.ndarray
    u: np.ndarray
    s: np.ndarray
    vt: np.ndarray
    rank: int
    uy: np.ndarray

    def model(self, method: str, principal_coef: np.ndarray,
              rotation: np.ndarray | None = None) -> MultivariateModel:
        """Model whose coefficients are ``principal_coef`` (one row per
        leading principal direction) mapped back to wavelengths; a
        component model's ``rotation`` takes principal coordinates to its
        scores."""
        coef = self.vt[:principal_coef.shape[0]].T @ principal_coef
        components = explained = scores = None
        if rotation is not None:
            components = rotation.shape[1]
            var = self.s[:self.rank] ** 2
            explained = float(np.sum(var[:components]) / np.sum(var))
            scores = (self.u[:, :self.rank] * self.s[:self.rank]) @ rotation
        return MultivariateModel(
            method=method,
            intercept=self.y_mean - self.w_mean @ coef,
            coefficients=coef,
            components=components,
            variance_fraction=explained,
            scores=scores,
        )


@dataclass(frozen=True)
class Fold:
    """The calibration set without one sample, in the principal coordinates
    of a downdated decomposition.

    ``s`` holds the fold's ``rank`` singular values in decreasing order and
    ``uy`` its centered concentrations on their directions, as in
    :class:`Decomposition`; ``held_out`` is the left-out spectrum centered
    on the fold's mean, in the same coordinates.
    """

    s: np.ndarray
    uy: np.ndarray
    y_mean: np.ndarray
    held_out: np.ndarray

    @property
    def rank(self) -> int:
        return self.s.size

    def predict(self, principal_coef: np.ndarray) -> np.ndarray:
        """The held-out sample's prediction by coefficients on the fold's
        leading principal directions."""
        return self.y_mean + self.held_out[:principal_coef.shape[0]] @ principal_coef


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


def downdated_folds(w: np.ndarray, y: np.ndarray) -> Iterator[tuple[int, Fold]]:
    """The data without each sample in turn, from one SVD of all of it;
    ``w`` and ``y`` are 2-D float arrays with one row per sample, and at
    least three rows.

    With ``Xc = U S V'`` the centered spectra of ``n`` samples, dropping
    sample ``i`` and recentering leaves the cross-product ``Xc'Xc - c x_i
    x_i'``, ``c = n / (n - 1)``; in the principal basis that is ``S^2 - c z
    z'`` with ``z = S u_i``.  Its eigenvalues are the fold's squared
    singular values and its eigenvectors ``Q`` rotate the basis onto the
    fold's, where the fold's ``X'Y`` is ``Q'(S U'Y - c z y_i')`` and its
    held-out spectrum is ``c Q'z``.  A fold of a set whose spectra span
    all ``n - 1`` centered directions loses one: its smallest eigenvalue
    is zero in exact arithmetic, and that pair is dropped.  Any other
    eigenvalue below ``sqrt(eps) s_0^2`` cannot be told from zero or is
    too inaccurate for MLR, so that fold's rank and rotation come from
    the SVD of its centered rows in principal coordinates, ``(U_-i + u_i /
    (n - 1)) S``, as a refit of the fold would find them.  Folds are made
    one at a time, so only one is alive while its baselines run.
    """
    dec = decompose(w, y)
    n, num_wavelengths = w.shape
    constant = _constant_fold(w)
    r = dec.rank
    lost = r - min(r, n - 2)
    c = n / (n - 1)
    s = dec.s[:r]
    u = dec.u[:, :r]
    s_sq = s * s
    floor = np.sqrt(np.finfo(float).eps) * s_sq[0]
    xy = s[:, None] * dec.uy
    yc = y - dec.y_mean
    for i in range(n):
        if i == constant:
            raise DegenerateSpectraError("spectra are constant across samples")
        z = s * u[i]
        cross = np.multiply.outer(-c * z, z)
        cross.flat[::r + 1] += s_sq
        lam, q = np.linalg.eigh(cross)  # ascending
        if lam[lost] > floor:
            rotation = q[:, lost:][:, ::-1].T
            root = np.sqrt(lam[lost:][::-1])
            uy = rotation @ (xy - c * np.multiply.outer(z, yc[i])) / root[:, None]
        else:
            # Read off the fold's own rows, as lstsq would: its
            # cross-product would square the fold's condition number.
            rows = (np.delete(u, i, axis=0) + u[i] / (n - 1)) * s
            left, root, rotation = np.linalg.svd(rows, full_matrices=False)
            rank = int(np.sum(root > root[0] * max(n - 1, num_wavelengths)
                              * np.finfo(float).eps))
            root, rotation = root[:rank], rotation[:rank]
            uy = left[:, :rank].T @ (np.delete(yc, i, axis=0) + yc[i] / (n - 1))
        yield i, Fold(s=root, uy=uy, y_mean=dec.y_mean - yc[i] / (n - 1),
                      held_out=c * (rotation @ z))


def _constant_fold(w: np.ndarray) -> int | None:
    """The sample (of at least three) without which the other spectra are
    all equal, if the spectra are not; at most one sample can be it."""
    unlike_first = np.flatnonzero(np.any(w != w[0], axis=1))
    if unlike_first.size == 1:
        return int(unlike_first[0])
    if unlike_first.size == len(w) - 1 and np.all(w[2:] == w[1]):
        return 0
    return None


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


def _component_count(pc: Decomposition | Fold, components: int | None,
                     variance_fraction: float | None) -> int:
    check_component_choice(components, variance_fraction)
    if components is not None:
        if components > pc.rank:
            raise InvalidComponentsError(
                f"component count {components} outside [1, rank={pc.rank}]"
            )
        return components
    var = pc.s[:pc.rank] ** 2
    cumulative = np.cumsum(var) / var.sum()
    return int(np.searchsorted(cumulative, variance_fraction - 1e-12) + 1)


def mlr_coefficients(pc: Decomposition | Fold) -> np.ndarray:
    """Minimum-norm least squares: regression on every principal direction."""
    return pc.uy / pc.s[:pc.rank, None]


def pcr_coefficients(pc: Decomposition | Fold, components: int | None = None,
                     variance_fraction: float | None = None
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Regression on the top ``p`` principal directions of the spectra: the
    coefficients and the rotation from principal coordinates to scores,
    the first ``p`` of them."""
    p = _component_count(pc, components, variance_fraction)
    return pc.uy[:p] / pc.s[:p, None], np.eye(pc.rank, p)


def pls_coefficients(pc: Decomposition | Fold, components: int | None = None,
                     variance_fraction: float | None = None
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Kernel PLS2 (Dayal & MacGregor 1997) in the principal-axis basis:
    the coefficients and the rotation from principal to PLS scores.

    With ``X = U_r S V_r'`` the cross products are ``X'X = diag(s^2)`` and
    ``X'Y = S U_r'Y`` there.  Each weight ``w`` is the leading left
    singular vector of the deflated ``X'Y`` (the NIPALS fixed point),
    ``r = w - R P'w`` its rotation onto the undeflated spectra, and only
    ``X'Y`` is deflated.  Scores are ``X R``.  The variance-fraction
    selector counts components exactly as PCR does, so the two methods
    stay comparable when run side by side.
    """
    p = _component_count(pc, components, variance_fraction)
    rank = pc.rank
    s = pc.s[:rank]
    s_sq = s * s
    xy = s[:, None] * pc.uy
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
    return rotation @ y_loadings.T, rotation


def fit_mlr(w: np.ndarray, y: np.ndarray) -> MultivariateModel:
    """Multiple linear regression, minimum-norm when rank deficient."""
    dec = decompose(w, y)
    return dec.model("MLR", mlr_coefficients(dec))


def fit_pcr(w: np.ndarray, y: np.ndarray, components: int | None = None,
            variance_fraction: float | None = None) -> MultivariateModel:
    """Principal components regression on the top directions of the spectra."""
    dec = decompose(w, y)
    return dec.model("PCR", *pcr_coefficients(dec, components, variance_fraction))


def fit_pls(w: np.ndarray, y: np.ndarray, components: int | None = None,
            variance_fraction: float | None = None) -> MultivariateModel:
    """Kernel PLS2 on the centered spectra; see :func:`pls_coefficients`."""
    dec = decompose(w, y)
    return dec.model("PLS", *pls_coefficients(dec, components, variance_fraction))


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
