"""Estimators for the aggregated model: OLS, penalized LS with GCV, GLS.

All solvers work on the Gram form of the stacked system.  Because the
design is a Kronecker product of a small concentration block with the
basis design, the normal equations split into per-eigenvector blocks
``d_j C + lam R`` of basis dimension.  ``_FactoredSystem`` factors the
basis pair once per design (the Demmler-Reinsch basis, in which the basis
Gram ``C`` and the penalty ``R`` are both diagonal), so each block is
diagonal for every ``lam`` and every fold.  Its ``solve`` costs two small
matrix products after an eigendecomposition of the concentration Gram;
its ``gcv`` (the one GCV formula) reads the RSS and the smoother trace
off that spectrum, so scoring a ``lam`` forms no coefficient matrix.  OLS
(``R = 0``), penalized fits, GCV scores, lambda selection and
leave-one-out refits (Gram downdates) all go through it.

GLS fits and their leave-one-out refits share one whitened assembly,
``_WhitenedSystem``, which applies each sample's inverse Cholesky factor
by the innovations (Kalman) recursion of its noise process, with no
T-by-T matrix.  Explicit matrix inversion is never used: the dense
solves are Cholesky factorizations and symmetric eigendecompositions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np
import scipy.linalg as sla
from scipy.optimize import nnls

from .basis import KnotVector, PenaltyMatrix, cached_design_matrix
from .errors import (
    CovarianceConditioningError,
    DegenerateCovarianceError,
    DegenerateGcvError,
    InvalidParameterError,
    ShapeError,
    SingularDesignError,
)
from .model import (
    AggregatedDesign,
    CalibrationModel,
    ConcentrationMatrix,
    SpectraSet,
    closure_total,
)

DEFAULT_PHI_GRID = np.logspace(-4, 1, 50)
DEFAULT_LAMBDA_GRID = np.logspace(-4, 8, 25)
_SINGULAR_BASIS = ("basis block is singular; the grid cannot resolve this many "
                   "basis functions (try a penalty or fewer knots)")


@dataclass(frozen=True)
class FitDiagnostics:
    """Summary numbers recorded with every fit."""

    rss: float
    hat_trace: float
    constraint_max_abs: float
    gcv: float | None = None


@dataclass(frozen=True)
class CovarianceModel:
    """Per-analyte exponential-decay noise covariance parameters.

    Sample ``i``'s covariance ``sum_k y_ik^2 sigma2_k exp(-phi_k |t - t'|)``
    is that of ``m`` independent exponential (Ornstein-Uhlenbeck)
    processes, an ``m``-state Markov process along the grid; GLS whitens
    with its recursion (``_whiten``), never with the dense matrix.
    """

    sigma2: np.ndarray
    phi: np.ndarray
    clipped: bool = False

    def __post_init__(self) -> None:
        sigma2 = np.asarray(self.sigma2, dtype=float).ravel()
        phi = np.asarray(self.phi, dtype=float).ravel()
        if sigma2.shape != phi.shape:
            raise ShapeError("sigma2 and phi must have one entry per analyte")
        if np.any(sigma2 <= 0) or np.any(phi <= 0):
            raise InvalidParameterError("covariance parameters must be positive")
        sigma2.flags.writeable = False
        phi.flags.writeable = False
        object.__setattr__(self, "sigma2", sigma2)
        object.__setattr__(self, "phi", phi)

    @property
    def num_analytes(self) -> int:
        return self.sigma2.size

    def sample_covariance(self, grid: np.ndarray, y_row: np.ndarray) -> np.ndarray:
        """Noise covariance for one sample with concentrations ``y_row``."""
        grid = np.asarray(grid, dtype=float)
        y_row = np.asarray(y_row, dtype=float).ravel()
        if y_row.size != self.num_analytes:
            raise ShapeError("concentration row length does not match analytes")
        dist = np.abs(grid[:, None] - grid[None, :])
        cov = np.zeros_like(dist)
        for s2, ph, y in zip(self.sigma2, self.phi, y_row):
            cov += (y * y) * s2 * np.exp(-ph * dist)
        return cov


def _demmler_reinsch(b: np.ndarray, r: np.ndarray | None
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Simultaneous diagonalization of ``C = B'B`` and the penalty ``R``.

    Returns ``(U, mu, rho)`` with ``U'(C + R)U = I``, ``U'CU = diag(mu)``
    (ascending) and ``U'RU = diag(rho)``; ``R = None`` stands for zero.
    ``C + R = L L'`` is Cholesky-factored and ``L^-1 C L^-T``
    eigendecomposed; ``C`` is released first, so at most four K-by-K arrays
    are live at once.  ``rho`` comes from ``U'RU`` itself, which keeps small
    penalty eigenvalues accurate where ``1 - mu`` would cancel.  Both lie in
    [0, 1]; values at rounding level (1e-12) are exact zeros, directions
    that ``C`` or ``R`` does not see.  ``C + R`` is positive definite even
    when ``C`` is singular (more basis functions than grid sites), so only
    an unresolvable pair fails here.
    """
    c = b.T @ b
    try:
        chol = sla.cholesky(c if r is None else c + r, lower=True,
                            check_finite=False)
    except np.linalg.LinAlgError:
        raise SingularDesignError(_SINGULAR_BASIS) from None
    half = sla.solve_triangular(chol, c, lower=True, check_finite=False)
    del c
    sym = sla.solve_triangular(chol, half.T, lower=True, check_finite=False)
    del half
    mu, v = sla.eigh(sym, overwrite_a=True, check_finite=False, driver="evd")
    del sym
    u = sla.solve_triangular(chol, v, lower=True, trans="T", overwrite_b=True,
                             check_finite=False)
    rho = np.zeros_like(mu) if r is None else np.einsum("ki,ki->i", u, r @ u)
    mu[mu <= 1e-12] = 0.0
    rho[rho <= 1e-12] = 0.0
    return u, mu, rho


class _FactoredSystem:
    """Gram-side view of an aggregated design in the Demmler-Reinsch basis.

    Holds the basis factorization of :func:`_demmler_reinsch`, the small
    concentration Gram ``M`` and the right-hand-side matrix ``F`` (one row
    per coefficient block).  Fold downdates replace ``M`` and ``F`` only;
    the basis factorization never changes.
    """

    def __init__(self, design: AggregatedDesign, penalty: np.ndarray | None = None):
        # Only the design's arrays are kept: the design caches this system
        # (see _factored), and a reference back would make a cycle.
        self.b = design.b
        self.w = design.spectra.absorbance
        self.penalty = penalty
        self.u, self.mu, self.rho = _demmler_reinsch(design.b, penalty)
        self.conc_aug = design.conc_aug
        self.M = design.conc_aug.T @ design.conc_aug
        self.bw = design.b.T @ self.w.T                      # (K, I): B'W_i columns
        self.F = (design.conc_aug[:-1].T @ self.w) @ design.b  # (m+1, K)
        self.num_rows = design.num_rows
        self._full = None
        self._proj_rss = None

    def downdated(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        a = self.conc_aug[i]
        m = self.M - np.outer(a, a)
        f = self.F - np.outer(a, self.bw[:, i])
        return m, f

    def _eigh(self, m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        evals, q = np.linalg.eigh(m)
        if evals[0] <= 1e-12 * max(evals[-1], 1.0):
            raise SingularDesignError(
                "concentration block is rank deficient after augmentation"
            )
        return evals, q

    def _check_lambda(self, lam: float) -> None:
        if lam <= 0 and self.mu[0] == 0.0:
            raise SingularDesignError(_SINGULAR_BASIS)

    def _spectrum(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(d, Q, H = Q'FU)`` of the full system, computed on first use."""
        if self._full is None:
            evals, q = self._eigh(self.M)
            self._full = evals, q, (q.T @ self.F) @ self.u
        return self._full

    def solve(self, lam: float = 0.0, m: np.ndarray | None = None,
              f: np.ndarray | None = None) -> np.ndarray:
        """Coefficients minimizing the (penalized) stacked objective.

        With ``M = Q diag(d) Q'`` the block of eigenvector ``j`` is
        ``d_j diag(mu) + lam diag(rho)`` in the basis ``U``, so the
        coefficients are ``Q ((Q'F U) / (d_j mu_k + lam rho_k)) U'``.  For
        ``lam > 0`` every denominator is at least ``min(d_j, lam)``,
        since ``mu_k + rho_k = 1``; at ``lam = 0`` a zero ``mu_k`` (a basis
        the grid cannot resolve) raises.  ``m`` and ``f`` replace ``M`` and
        ``F`` for a fold.
        """
        if m is None:
            evals, q, h = self._spectrum()
        else:
            evals, q = self._eigh(m)
            h = (q.T @ f) @ self.u
        self._check_lambda(lam)
        denom = np.outer(evals, self.mu) + lam * self.rho
        return (q @ (h / denom)) @ self.u.T

    def _projection_rss(self) -> float:
        """Direct (data plus constraint) RSS of the fit ``H / (d_j mu_k)``
        on the entries with ``d_j mu_k > 0``, taken once."""
        if self._proj_rss is None:
            evals, q, h = self._spectrum()
            scaled = np.outer(evals, self.mu)
            theta = np.divide(h, scaled, out=np.zeros_like(h), where=scaled > 0)
            coef = (q @ theta) @ self.u.T
            data = _data_rss(self.w, self.conc_aug[:-1], coef, self.b)
            constraint_curve = (self.conc_aug[-1] @ coef) @ self.b.T
            self._proj_rss = data + float(np.sum(constraint_curve ** 2))
        return self._proj_rss

    def gcv(self, lam: float) -> tuple[float, float, float | None]:
        """(RSS, hat trace, GCV score) at ``lam`` from the spectrum alone.

        With ``dmu = d_j mu_k``, the fit at ``lam`` shrinks entry ``H_jk``
        of ``H = Q'FU`` by ``dmu / (dmu + lam rho_k)`` relative to the
        projection, so its RSS is the projection's plus
        ``sum H^2 (lam rho)^2 / (dmu (dmu + lam rho)^2)`` over the entries
        with ``dmu > 0`` (``H`` vanishes where ``dmu = 0``).  The hat trace
        is ``sum dmu / (dmu + lam rho)``.  No coefficient matrix is formed.
        The score ``n RSS / (n - trace)^2`` is None once the trace reaches n.
        """
        evals, _, h = self._spectrum()
        self._check_lambda(lam)
        scaled = np.outer(evals, self.mu)
        shrink = lam * self.rho
        denom = scaled + shrink
        trace = float(np.sum(scaled / denom))
        seen = scaled > 0
        excess = (h * (shrink / denom))[seen] ** 2 / scaled[seen]
        rss = self._projection_rss() + float(np.sum(excess))
        n = self.num_rows
        return rss, trace, (n * rss / (n - trace) ** 2 if trace < n else None)


def _factored(design: AggregatedDesign, penalty: np.ndarray | None) -> _FactoredSystem:
    """The design's factored system for ``penalty``, built once per pair.

    The design keeps the latest system, so a GCV search followed by the
    fit or the leave-one-out folds at the chosen lambda factors once.
    Penalty entries are read-only, so the same array is the same penalty.
    """
    system = design.__dict__.get("_factored")
    if system is None or system.penalty is not penalty:
        system = _FactoredSystem(design, penalty)
        object.__setattr__(design, "_factored", system)
    return system


def _data_rss(w: np.ndarray, rows: np.ndarray, coef: np.ndarray,
              b: np.ndarray) -> float:
    return float(np.sum((w - (rows @ coef) @ b.T) ** 2))


def _diagnostics(coef: np.ndarray, b: np.ndarray, rss: float, trace: float,
                 gcv: float | None = None) -> FitDiagnostics:
    constraint_curve = coef[1:].sum(axis=0) @ b.T
    return FitDiagnostics(
        rss=rss,
        hat_trace=trace,
        constraint_max_abs=float(np.max(np.abs(constraint_curve))),
        gcv=gcv,
    )


def fit_ols(design: AggregatedDesign, diagnostics: bool = True) -> CalibrationModel:
    """Ordinary least squares on the augmented system (correlation ignored)."""
    if np.linalg.matrix_rank(design.b) < design.num_basis:
        raise SingularDesignError(
            "basis block of the design is rank deficient: the wavelength grid "
            "cannot support this many basis functions"
        )
    system = _factored(design, None)
    coef = system.solve()
    diag = None
    if diagnostics:
        diag = _diagnostics(coef, design.b, *system.gcv(0.0))
    return CalibrationModel(
        basis=design.basis,
        coefficients=coef,
        method="OLS-K",
        lam=0.0,
        analytes=design.concentrations.analyte_names(),
        diagnostics=diag,
        closed_total=closure_total(design.concentrations.values),
    )


def fit_penalized(design: AggregatedDesign, penalty: PenaltyMatrix, lam: float,
                  diagnostics: bool = True, method: str = "OLS-SS") -> CalibrationModel:
    """Penalized least squares with curvature penalty on every curve.

    All coefficient blocks, the baseline included, are penalized alike.
    ``lam = 0`` reduces to :func:`fit_ols` when the design has full rank.
    """
    if lam < 0:
        raise InvalidParameterError(f"smoothing parameter must be >= 0, got {lam}")
    r = penalty.entries
    if r.shape != (design.num_basis, design.num_basis):
        raise ShapeError("penalty dimension does not match basis dimension")
    system = _factored(design, r)
    coef = system.solve(lam=lam)
    diag = None
    if diagnostics:
        diag = _diagnostics(coef, design.b, *system.gcv(lam))
    return CalibrationModel(
        basis=design.basis,
        coefficients=coef,
        method=method,
        lam=float(lam),
        analytes=design.concentrations.analyte_names(),
        diagnostics=diag,
        closed_total=closure_total(design.concentrations.values),
    )


def gcv_score(design: AggregatedDesign, penalty: PenaltyMatrix, lam: float) -> float:
    """Generalized cross-validation score ``n RSS / (n - tr H)^2``."""
    if lam < 0:
        raise InvalidParameterError(f"smoothing parameter must be >= 0, got {lam}")
    system = _factored(design, penalty.entries)
    _, trace, score = system.gcv(lam)
    if score is None:
        raise DegenerateGcvError(
            f"smoother trace {trace:.3f} reaches the number of rows "
            f"{system.num_rows}"
        )
    return float(score)


def select_lambda(design: AggregatedDesign, penalty: PenaltyMatrix,
                  lam_grid: np.ndarray | None = None) -> float:
    """Grid minimizer of the GCV score; ties go to the smoother fit."""
    grid = DEFAULT_LAMBDA_GRID if lam_grid is None else np.asarray(lam_grid, float)
    if grid.size == 0:
        raise InvalidParameterError("lambda grid is empty")
    if np.any(grid <= 0):
        raise InvalidParameterError("lambda grid entries must be positive")
    grid = np.sort(grid)
    system = _factored(design, penalty.entries)
    best_lam, best_score = None, np.inf
    for lam in grid:
        _, _, score = system.gcv(float(lam))
        if score is not None and score <= best_score:
            best_lam, best_score = float(lam), score
    if best_lam is None:
        raise DegenerateGcvError("no grid point produced a valid GCV score")
    return best_lam


def loo_coefficients(design: AggregatedDesign, penalty: PenaltyMatrix | None = None,
                     lam: float = 0.0) -> Iterator[tuple[int, np.ndarray]]:
    """Leave-one-out coefficient refits via Gram downdates.

    Yields ``(sample_index, coefficients)`` exactly matching a refit on the
    dataset with that sample removed.
    """
    system = _factored(design, None if penalty is None else penalty.entries)
    for i in range(design.num_samples):
        m, f = system.downdated(i)
        yield i, system.solve(lam=lam, m=m, f=f)


def _uniform_lags(grid: np.ndarray) -> np.ndarray | None:
    """Rounded distance of each site offset when the grid is uniform.

    Entry ``k`` is ``round(t[k] - t[0], 9)``, returned only when it
    increases with ``k`` and every ``round(t[n+k] - t[n], 9)`` equals it;
    otherwise None.  Offsets are checked 64 at a time, so no T-by-T
    array is formed.
    """
    block = 64
    t = grid.size
    lags = np.round(grid - grid[0], 9)
    if np.any(np.diff(lags) <= 0):
        return None
    # shifted[k, n] = t[n+k]; entries with n + k >= T wrap and are ignored.
    shifted = np.lib.stride_tricks.sliding_window_view(
        np.concatenate([grid, grid]), t)
    sites = np.arange(t)
    for start in range(1, t, block):
        ks = np.arange(start, min(start + block, t))
        gaps = np.round(shifted[ks] - grid, 9)
        if not np.all((gaps == lags[ks, None]) | (sites >= t - ks[:, None])):
            return None
    return lags


def empirical_covariogram(residuals: np.ndarray, grid: np.ndarray
                          ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-sample average residual products at each distinct site distance.

    Returns ``(lags, covs, counts)`` where ``covs[i, k]`` averages
    ``e_i(t_n) e_i(t_n')`` over the ``counts[k]`` ordered pairs with
    ``|t_n - t_n'| == lags[k]`` (distances rounded to 9 decimals).  On a
    uniform grid offset ``k`` is lag ``k``: its sum is the lagged product
    ``sum_n e(t_n) e(t_(n+k))``, doubled for ``k > 0``, over ``T`` pairs
    at ``k = 0`` and ``2 (T - k)`` otherwise.  Any other grid sorts the
    ``T^2`` rounded distances.
    """
    residuals = np.atleast_2d(np.asarray(residuals, dtype=float))
    grid = np.asarray(grid, dtype=float)
    if residuals.shape[1] != grid.size:
        raise ShapeError("residual columns must match the grid length")
    lags = _uniform_lags(grid)
    if lags is not None:
        t = grid.size
        counts = np.concatenate([[t], 2.0 * np.arange(t - 1, 0, -1)])
        sums = np.stack([np.correlate(r, r, "full")[t - 1:] for r in residuals])
        sums[:, 1:] *= 2.0
        return lags, sums / counts, counts
    dist = np.abs(grid[:, None] - grid[None, :])
    rounded = np.round(dist, 9)
    lags, inverse = np.unique(rounded.ravel(), return_inverse=True)
    counts = np.bincount(inverse, minlength=lags.size).astype(float)
    sums = np.zeros((residuals.shape[0], lags.size))
    for i, r in enumerate(residuals):
        sums[i] = np.bincount(inverse, weights=np.outer(r, r).ravel(),
                              minlength=lags.size)
    return lags, sums / counts, counts


def fit_covariance(residuals: np.ndarray, concentrations, grid: np.ndarray,
                   phi_grid: np.ndarray | None = None, refine: bool = True,
                   max_lag_fraction: float = 0.5) -> CovarianceModel:
    """Least squares fit of the exponential covariance to lag covariances.

    Sample ``i``'s covariogram at lag ``l`` is modelled as
    ``sum_k y_ik^2 sigma2_k exp(-phi_k l)``.  Lags beyond
    ``max_lag_fraction`` of the span are dropped and the rest weighted by
    the square root of their pair count: long-lag covariogram values
    average few pairs and would otherwise dominate the fit with noise.

    The decay rates are searched on a log grid (one shared value first,
    then one cyclic per-analyte refinement sweep; a candidate replaces the
    best only when strictly better).  At every candidate the variance
    scales solve a nonnegative least-squares problem.  Its stacked design
    has one block of rows per sample, ``y_i^2`` times the weighted decays,
    so with the thin QR ``Y^2 = Q R0`` (taken once) the problem reduces to
    ``min(I, m)`` blocks, ``R0`` rows times the decays, against ``Q'``
    times the weighted covariogram.  The residual norm of the full problem
    is ``sqrt(rnorm^2 + c)``, where ``c`` is the squared target norm that
    ``Q`` does not see.
    """
    residuals = np.atleast_2d(np.asarray(residuals, dtype=float))
    if residuals.shape[0] < 2:
        raise InvalidParameterError("covariance fitting needs at least two samples")
    if not np.any(residuals):
        raise DegenerateCovarianceError("residual curves are identically zero")
    y = concentrations.values if isinstance(concentrations, ConcentrationMatrix) \
        else np.asarray(concentrations, dtype=float)
    if y.shape[0] != residuals.shape[0]:
        raise ShapeError("concentration rows must match residual rows")
    m = y.shape[1]
    grid_phi = DEFAULT_PHI_GRID if phi_grid is None else np.asarray(phi_grid, float)
    if np.any(grid_phi <= 0):
        raise InvalidParameterError("phi grid entries must be positive")
    lags, covs, counts = empirical_covariogram(residuals, grid)
    keep = lags <= max_lag_fraction * lags[-1]
    lags, covs, counts = lags[keep], covs[:, keep], counts[keep]
    weights = np.sqrt(counts)
    target = covs * weights                         # (I, L)
    q, r0 = np.linalg.qr(y ** 2)
    reduced_target = (q.T @ target).ravel()
    unseen = max(float(np.sum(target ** 2) - reduced_target @ reduced_target),
                 0.0)
    decays = np.exp(-np.outer(grid_phi, lags)) * weights        # (phis, L)

    def objective(picks: np.ndarray) -> tuple[float, np.ndarray]:
        # Row (j, l), column k of the reduced design: r0[j, k] decays[picks[k], l].
        design = (r0[:, None, :] * decays[picks].T[None, :, :]).reshape(-1, m)
        sigma2, rnorm = nnls(design, reduced_target)
        return float(np.sqrt(rnorm ** 2 + unseen)), sigma2

    best_sse = np.inf
    best_picks = None
    best_sigma2 = None
    for p in range(grid_phi.size):
        sse, sigma2 = objective(np.full(m, p))
        if sse < best_sse:
            best_sse, best_picks, best_sigma2 = sse, np.full(m, p), sigma2
    if refine and m > 1:
        for ell in range(m):
            for p in range(grid_phi.size):
                candidate = best_picks.copy()
                candidate[ell] = p
                sse, sigma2 = objective(candidate)
                if sse < best_sse:
                    best_sse, best_picks, best_sigma2 = sse, candidate, sigma2
    clipped = bool(np.any(best_sigma2 < 1e-12))
    sigma2 = np.maximum(best_sigma2, 1e-12)
    return CovarianceModel(sigma2=sigma2, phi=grid_phi[best_picks], clipped=clipped)


def _innovation_gains(variances: np.ndarray, rates: np.ndarray, noise: float
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Kalman gains and innovation variances of each sample's noise process.

    State ``k`` of sample ``i`` has stationary variance ``c = variances[i,
    k]`` and decays by ``a = exp(-rates[n, k])`` into site ``n`` (rate
    ``inf`` at the first site: the stationary law).  The noise is the sum
    of the states plus white noise of variance ``noise``.  At each site the
    state covariance ``P`` (m, m, I) is predicted, ``P <- a a' o P +
    diag(c (1 - a^2))``, then updated: ``S = 1'P1 + noise``, ``g = P1 / S``,
    ``P <- P - g (P1)'``.  Returns ``g`` (T, m, I), ``S`` (T, I) and, per
    sample, whether every ``S`` is finite and positive.
    """
    num, m = variances.shape
    decay = np.exp(-rates)
    steps = (decay[:, :, None] * decay[:, None, :])[..., None]      # (T, m, m, 1)
    fresh = -np.expm1(-2.0 * rates)[:, :, None] * variances.T       # (T, m, I)
    gains = np.empty(fresh.shape)
    scales = np.empty((decay.shape[0], num))
    # Samples run along the last axis, so the sums over states add whole rows.
    state = np.zeros((m, m, num))
    diagonal = state.reshape(m * m, num)[::m + 1]
    with np.errstate(divide="ignore", invalid="ignore"):
        for n in range(decay.shape[0]):
            state *= steps[n]
            diagonal += fresh[n]
            p1 = state.sum(axis=1)
            s = p1.sum(axis=0) + noise
            g = p1 / s
            state -= g[:, None, :] * p1[None, :, :]
            gains[n] = g
            scales[n] = s
    ok = np.all(np.isfinite(scales) & (scales > 0), axis=0)
    return gains, scales, ok


def _whiten(cols: np.ndarray, grid: np.ndarray, y: np.ndarray,
            cov: CovarianceModel) -> None:
    """Replace ``cols[:, i]`` (T, I, J) by ``L_i^-1 cols[:, i]``, in place.

    ``L_i`` is the Cholesky factor of sample ``i``'s noise covariance on
    the increasing ``grid``.  The filter of :func:`_innovation_gains` run
    over a column gives its innovations; scaled by ``1/sqrt(S)`` they are
    ``L_i^-1`` times the column (the innovations are the Cholesky
    factorization in grid order), at ``O(T m^2)`` per column.  A sample
    whose ``S`` is not positive somewhere (a blank sample's covariance is
    zero) is filtered again against its covariance plus ``1e-8
    mean(sigma2)`` on the diagonal; if that fails too,
    ``CovarianceConditioningError``.
    """
    variances = (y * y) * cov.sigma2
    rates = np.vstack([np.full(cov.num_analytes, np.inf),
                       np.outer(np.diff(grid), cov.phi)])
    gains, scales, ok = _innovation_gains(variances, rates, 0.0)
    if not np.all(ok):
        retry = ~ok
        jitter = 1e-8 * float(np.mean(cov.sigma2))
        gains[:, :, retry], scales[:, retry], ok = _innovation_gains(
            variances[retry], rates, jitter)
        if not np.all(ok):
            raise CovarianceConditioningError(
                "per-sample covariance block is not positive definite even "
                "after diagonal jitter"
            )
    decay = np.exp(-rates)[:, :, None, None]
    gains = gains[..., None]
    roots = np.sqrt(scales)[..., None]
    state = np.zeros((cov.num_analytes,) + cols.shape[1:])        # (m, I, J)
    for n in range(cols.shape[0]):
        state *= decay[n]
        innovation = cols[n] - state.sum(axis=0)
        state += gains[n] * innovation
        np.divide(innovation, roots[n], out=cols[n])


class _WhitenedSystem:
    """Whitened GLS normal equations, kept per sample and in total.

    Each sample's basis columns and spectrum are whitened by
    :func:`_whiten`.  Holds each sample's whitened K-by-K Gram ``G_i`` and
    K-vector ``h_i``, the totals ``sum_i (r_i r_i') kron G_i`` and
    ``sum_i r_i kron h_i`` (``r_i = (1, y_i)``) and, with ``augment``, the
    sum-to-zero constraint Gram (identity noise weight) added to the total.
    Fold downdates subtract one sample's term, the GLS counterpart of
    :meth:`_FactoredSystem.downdated`.
    """

    def __init__(self, spectra: SpectraSet, concentrations: ConcentrationMatrix,
                 kv: KnotVector, cov: CovarianceModel, augment: bool,
                 constraint_weight: float):
        if concentrations.num_analytes != cov.num_analytes:
            raise ShapeError("covariance model analyte count does not match Y")
        b = cached_design_matrix(kv, spectra.grid)
        y = concentrations.values
        k = kv.num_basis
        cols = np.empty((spectra.num_wavelengths, y.shape[0], k + 1))
        cols[:, :, :k] = b[:, None, :]
        cols[:, :, k] = spectra.absorbance.T
        _whiten(cols, spectra.grid, y, cov)
        cols = cols.transpose(1, 2, 0)                        # (I, K+1, T)
        full = cols @ cols.transpose(0, 2, 1)                 # (I, K+1, K+1)
        self.grams = full[:, :k, :k]
        self.rhs_parts = full[:, :k, k]
        rows = np.column_stack([np.ones(y.shape[0]), y])
        size = rows.shape[1] * k
        self.gram = np.einsum("ia,ib,ikl->akbl", rows, rows, self.grams,
                              optimize=True).reshape(size, size)
        self.rhs = (rows.T @ self.rhs_parts).ravel()
        if augment:
            e = np.zeros(concentrations.num_analytes + 1)
            e[1:] = np.sqrt(constraint_weight)
            self.gram = self.gram + np.kron(np.outer(e, e), b.T @ b)
        self.b = b
        self.rows = rows
        self.num_basis = k

    def downdated(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        r = self.rows[i]
        return (self.gram - np.kron(np.outer(r, r), self.grams[i]),
                self.rhs - np.kron(r, self.rhs_parts[i]))

    def solve(self, gram: np.ndarray | None = None,
              rhs: np.ndarray | None = None) -> np.ndarray:
        gram = self.gram if gram is None else gram
        rhs = self.rhs if rhs is None else rhs
        # Singular when the smallest eigenvalue is at most 1e-12 max(largest,
        # 1).  From the Cholesky factor, 1/||G^-1||_1 estimates the smallest
        # and ||G||_1 the largest; a failed factorization is singular too.
        try:
            chol = sla.cho_factor(gram, lower=True, check_finite=False)
        except np.linalg.LinAlgError:
            chol = None
        norm = np.abs(gram).sum(axis=0).max()
        if (chol is None or sla.lapack.dpocon(chol[0], norm, uplo="L")[0] * norm
                <= 1e-12 * max(norm, 1.0)):
            raise SingularDesignError(
                "whitened system is singular; closed concentration rows need "
                "the augmented constraint block (augment=True)"
            )
        beta = sla.cho_solve(chol, rhs, check_finite=False)
        return beta.reshape(-1, self.num_basis)


def fit_gls(spectra: SpectraSet, concentrations: ConcentrationMatrix,
            kv: KnotVector, cov: CovarianceModel, augment: bool = False,
            constraint_weight: float = 1.0,
            diagnostics: bool = True) -> CalibrationModel:
    """Generalized least squares with per-sample covariance blocks.

    Follows the unaugmented estimator by default (no constraint rows).
    ``augment=True`` appends the sum-to-zero block with identity noise
    weight, which is required when the concentration rows are closed.
    """
    system = _WhitenedSystem(spectra, concentrations, kv, cov, augment,
                             constraint_weight)
    coef = system.solve()
    diag = None
    if diagnostics:
        rss = _data_rss(spectra.absorbance, system.rows, coef, system.b)
        diag = _diagnostics(coef, system.b, rss, float(coef.size))
    return CalibrationModel(
        basis=kv,
        coefficients=coef,
        method="GLS-K",
        lam=0.0,
        analytes=concentrations.analyte_names(),
        diagnostics=diag,
        closed_total=closure_total(concentrations.values),
    )


def gls_loo_coefficients(spectra: SpectraSet, concentrations: ConcentrationMatrix,
                         kv: KnotVector, cov: CovarianceModel, augment: bool = False,
                         constraint_weight: float = 1.0
                         ) -> Iterator[tuple[int, np.ndarray]]:
    """Leave-one-out GLS refits sharing the per-sample whitened blocks."""
    system = _WhitenedSystem(spectra, concentrations, kv, cov, augment,
                             constraint_weight)
    for i in range(concentrations.num_samples):
        yield i, system.solve(*system.downdated(i))
