"""Estimators for the aggregated model: OLS, penalized LS with GCV, GLS.

All solvers work on the Gram form of the stacked system.  Because the
design is a Kronecker product of a small concentration block with the
basis design, the normal equations split into per-eigenvector blocks
``d_j C + lam R`` of basis dimension.  ``_FactoredSystem`` factors the
basis pair once per design (the Demmler-Reinsch basis, in which the basis
Gram ``C`` and the penalty ``R`` are both diagonal), so each block is
diagonal for every ``lam`` and every fold.  Its ``solve`` costs two small
matrix products after an eigendecomposition of the concentration Gram,
and the smoother trace is a sum of ratios.  OLS (``R = 0``), penalized
fits, GCV scores, lambda selection and leave-one-out refits (Gram
downdates) all go through it, and ``_gcv`` holds the one GCV formula.
GLS fits and their leave-one-out refits share one whitened assembly,
``_WhitenedSystem``.  Explicit matrix inversion is never used, only
Cholesky factorizations and symmetric eigendecompositions.
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
    """Per-analyte exponential-decay noise covariance parameters."""

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

    def sample_covariances(self, grid: np.ndarray,
                           y: np.ndarray) -> Iterator[np.ndarray]:
        """:meth:`sample_covariance` of each row of ``y``, bit for bit.

        The decays are evaluated once per distinct site distance and each
        sample mixes them in the same operation order; its matrix is then
        gathered through one shared lag index.  No per-sample distance
        matrix or exponential is formed and no T-by-T decay matrix is held.
        """
        grid = np.asarray(grid, dtype=float)
        y = np.atleast_2d(np.asarray(y, dtype=float))
        if y.shape[1] != self.num_analytes:
            raise ShapeError("concentration row length does not match analytes")
        dist = np.abs(grid[:, None] - grid[None, :])
        lags = np.unique(dist)
        index = np.searchsorted(lags, dist)
        del dist
        decays = np.exp(-self.phi[:, None] * lags)       # (m, lags)
        for row in y:
            mixed = np.zeros_like(lags)
            for weight, decay in zip((row * row) * self.sigma2, decays):
                mixed += weight * decay
            yield mixed[index]


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

    def downdated(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        a = self.conc_aug[i]
        m = self.M - np.outer(a, a)
        f = self.F - np.outer(a, self.bw[:, i])
        return m, f

    def solve(self, lam: float = 0.0, m: np.ndarray | None = None,
              f: np.ndarray | None = None,
              trace: bool = False) -> tuple[np.ndarray, float | None]:
        """Coefficients minimizing the (penalized) stacked objective.

        With ``M = Q diag(d) Q'`` the block of eigenvector ``j`` is
        ``d_j diag(mu) + lam diag(rho)`` in the basis ``U``, so the
        coefficients are ``Q ((Q'F U) / (d_j mu_k + lam rho_k)) U'`` and,
        with ``trace``, the smoother trace is the sum of
        ``d_j mu_k / (d_j mu_k + lam rho_k)``; otherwise it is None.  For
        ``lam > 0`` every denominator is at least ``min(d_j, lam)``,
        since ``mu_k + rho_k = 1``; at ``lam = 0`` a zero ``mu_k`` (a basis
        the grid cannot resolve) raises.
        """
        m = self.M if m is None else m
        f = self.F if f is None else f
        evals, q = np.linalg.eigh(m)
        if evals[0] <= 1e-12 * max(evals[-1], 1.0):
            raise SingularDesignError(
                "concentration block is rank deficient after augmentation"
            )
        if lam <= 0 and self.mu[0] == 0.0:
            raise SingularDesignError(_SINGULAR_BASIS)
        scaled = np.outer(evals, self.mu)
        denom = scaled + lam * self.rho
        coef = (q @ (((q.T @ f) @ self.u) / denom)) @ self.u.T
        return coef, (float(np.sum(scaled / denom)) if trace else None)

    def residual_sums(self, coef: np.ndarray) -> float:
        """Data plus constraint residual sum of squares of a coefficient matrix."""
        data = _data_rss(self.w, self.conc_aug[:-1], coef, self.b)
        constraint_curve = (self.conc_aug[-1] @ coef) @ self.b.T
        return data + float(np.sum(constraint_curve ** 2))


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


def _gcv(system: _FactoredSystem, coef: np.ndarray,
         trace: float) -> tuple[float, float, float | None]:
    """(RSS, hat trace, GCV score); the score is None once the trace reaches n."""
    rss = system.residual_sums(coef)
    n = system.num_rows
    return rss, trace, (n * rss / (n - trace) ** 2 if trace < n else None)


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
    coef, _ = system.solve()
    diag = None
    if diagnostics:
        diag = _diagnostics(coef, design.b,
                            *_gcv(system, coef, float(design.num_coefficients)))
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
    coef, trace = system.solve(lam=lam, trace=diagnostics)
    diag = None
    if diagnostics:
        diag = _diagnostics(coef, design.b, *_gcv(system, coef, trace))
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
    coef, trace = system.solve(lam=lam, trace=True)
    _, _, score = _gcv(system, coef, trace)
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
        coef, trace = system.solve(lam=float(lam), trace=True)
        _, _, score = _gcv(system, coef, trace)
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
        yield i, system.solve(lam=lam, m=m, f=f)[0]


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


def _whitening_factor(cov_matrix: np.ndarray, jitter_scale: float) -> np.ndarray:
    try:
        return sla.cholesky(cov_matrix, lower=True, check_finite=False)
    except np.linalg.LinAlgError:
        pass
    bumped = cov_matrix + (1e-8 * jitter_scale) * np.eye(cov_matrix.shape[0])
    try:
        return sla.cholesky(bumped, lower=True, check_finite=False)
    except np.linalg.LinAlgError:
        raise CovarianceConditioningError(
            "per-sample covariance block is not positive definite even after "
            "diagonal jitter"
        ) from None


class _WhitenedSystem:
    """Whitened GLS normal equations, kept per sample and in total.

    Holds each sample's Gram block and right-hand side, their sums and,
    with ``augment``, the sum-to-zero constraint Gram (identity noise
    weight) added to the total.  Fold downdates subtract one sample's
    pieces, the GLS counterpart of :meth:`_FactoredSystem.downdated`.
    """

    def __init__(self, spectra: SpectraSet, concentrations: ConcentrationMatrix,
                 kv: KnotVector, cov: CovarianceModel, augment: bool,
                 constraint_weight: float):
        if concentrations.num_analytes != cov.num_analytes:
            raise ShapeError("covariance model analyte count does not match Y")
        b = cached_design_matrix(kv, spectra.grid)
        y = concentrations.values
        w = spectra.absorbance
        jitter_scale = float(np.mean(cov.sigma2))
        rows = np.column_stack([np.ones(y.shape[0]), y])
        self.grams = []
        self.rhs_parts = []
        for i, sigma in enumerate(cov.sample_covariances(spectra.grid, y)):
            chol = _whitening_factor(sigma, jitter_scale)
            zb = sla.solve_triangular(chol, b, lower=True, check_finite=False)
            zw = sla.solve_triangular(chol, w[i], lower=True, check_finite=False)
            self.grams.append(np.kron(np.outer(rows[i], rows[i]), zb.T @ zb))
            self.rhs_parts.append(np.kron(rows[i], zb.T @ zw))
        self.gram = np.sum(self.grams, axis=0)
        self.rhs = np.sum(self.rhs_parts, axis=0)
        if augment:
            e = np.zeros(concentrations.num_analytes + 1)
            e[1:] = np.sqrt(constraint_weight)
            self.gram = self.gram + np.kron(np.outer(e, e), b.T @ b)
        self.b = b
        self.rows = rows
        self.num_basis = kv.num_basis

    def downdated(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        return self.gram - self.grams[i], self.rhs - self.rhs_parts[i]

    def solve(self, gram: np.ndarray | None = None,
              rhs: np.ndarray | None = None) -> np.ndarray:
        gram = self.gram if gram is None else gram
        rhs = self.rhs if rhs is None else rhs
        evals = np.linalg.eigvalsh(gram)
        if evals[0] <= 1e-12 * max(evals[-1], 1.0):
            raise SingularDesignError(
                "whitened system is singular; closed concentration rows need "
                "the augmented constraint block (augment=True)"
            )
        try:
            chol = sla.cho_factor(gram, lower=True, check_finite=False)
        except np.linalg.LinAlgError:
            raise SingularDesignError(
                "whitened system is not positive definite"
            ) from None
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
