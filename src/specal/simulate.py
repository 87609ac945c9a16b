"""Synthetic aggregated spectra and the comparison-study harnesses.

Concentrations come from a symmetric Dirichlet draw, noise from a
Gaussian process with exponentially decaying covariance, and the true
curves are bump mixtures projected into a cubic spline space (so a
correctly sized basis can recover them exactly in the noiseless limit).

Randomness is derived from integer stream paths ``(seed, stream, ...)``:
the same seed reproduces every study bit-for-bit regardless of worker
count, concentrations stay fixed across noise replicates, and the first
twenty samples of a hundred-sample set equal the twenty-sample set.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np
from scipy.linalg.lapack import dtbtrs

from . import _blas
from .basis import KnotVector, design_matrix, make_knots
from .calibrate import CovarianceModel
from .errors import InvalidParameterError, ShapeError, SpecalError
from .methods import STUDY_METHODS, FitSpec, make_strategy
from .model import ConcentrationMatrix, SpectraSet
from .predict import jackknife_spreads

WEAK_PHI = 0.5
STRONG_PHI = 0.002
SCENARIO_PHI = {"weak": WEAK_PHI, "strong": STRONG_PHI}

_CONC_STREAM = 0
_NOISE_STREAM = 1
_PRED_STREAM = 2

# Prediction design for the bias/variance experiment: four closed samples.
PREDICTION_DESIGN = np.array([
    [0.4, 0.1, 0.5],
    [0.2, 0.3, 0.5],
    [0.1, 0.4, 0.5],
    [0.5, 0.4, 0.1],
])


def _stream(seed: int, *path: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), *[int(p) for p in path]])


# True curves: one Gaussian bump per analyte over a flat baseline,
# projected onto a cubic spline space of ``CURVE_NUM_BASIS`` functions.
CURVE_CENTERS = (450.0, 550.0, 650.0)
CURVE_WIDTHS = (45.0, 55.0, 50.0)
CURVE_HEIGHTS = (16.0, 20.0, 18.0)
BASELINE_LEVEL = 2.0
CURVE_NUM_BASIS = 14
NUM_ANALYTES = len(CURVE_CENTERS)


def true_curves(domain: tuple[float, float]) -> tuple[KnotVector, np.ndarray]:
    """Spline representation (knots, coefficient matrix) of the true curves.

    The analyte coefficient rows are recentred so the analyte curves sum
    to zero identically, matching the representative the constrained fit
    converges to for closed samples.
    """
    kv = make_knots(domain, CURVE_NUM_BASIS)
    dense = np.linspace(domain[0], domain[1], 25 * CURVE_NUM_BASIS)
    b = design_matrix(kv, dense).dense()
    coef = np.zeros((NUM_ANALYTES + 1, CURVE_NUM_BASIS))
    coef[0] = BASELINE_LEVEL  # partition of unity: exact constant
    for ell, (c, w, h) in enumerate(
        zip(CURVE_CENTERS, CURVE_WIDTHS, CURVE_HEIGHTS), start=1
    ):
        bump = h * np.exp(-0.5 * ((dense - c) / w) ** 2)
        coef[ell], *_ = np.linalg.lstsq(b, bump, rcond=None)
    coef[1:] -= coef[1:].mean(axis=0, keepdims=True)
    return kv, coef


@dataclass(frozen=True)
class SimConfig:
    """One simulation scenario (grid, sizes, noise law, seed)."""

    seed: int = 1
    num_samples: int = 20
    grid_start: float = 350.0
    grid_end: float = 750.0
    grid_step: float = 5.0
    alpha: float = 1.0
    sigma2: float = 4.0
    phi: float = WEAK_PHI

    def __post_init__(self) -> None:
        if self.grid_step <= 0 or self.grid_end <= self.grid_start:
            raise InvalidParameterError("grid specification is not increasing")
        if not all(0 < v < np.inf for v in (self.alpha, self.sigma2, self.phi)):
            raise InvalidParameterError(
                "alpha, sigma2 and phi must be finite and positive")
        if self.num_samples < NUM_ANALYTES + 1:
            raise InvalidParameterError(
                "need more samples than analytes for calibration"
            )

    @property
    def num_analytes(self) -> int:
        return NUM_ANALYTES

    @property
    def grid(self) -> np.ndarray:
        n = int(round((self.grid_end - self.grid_start) / self.grid_step)) + 1
        return self.grid_start + self.grid_step * np.arange(n)


@dataclass(frozen=True)
class SimTruth:
    """Exact generating quantities kept for scoring."""

    basis: KnotVector
    curve_values: np.ndarray
    config: SimConfig


def sample_dirichlet(rng: np.random.Generator, num_samples: int,
                     alpha: float, num_analytes: int) -> np.ndarray:
    """Rows on the simplex via normalized Gamma draws."""
    if alpha <= 0:
        raise InvalidParameterError("Dirichlet concentration must be positive")
    gammas = rng.gamma(alpha, size=(num_samples, num_analytes))
    return gammas / gammas.sum(axis=1, keepdims=True)


def gp_cholesky(grid: np.ndarray, sigma2: float, phi: float) -> np.ndarray:
    """Lower Cholesky factor ``L`` of ``sigma2 exp(-phi |t - t'|)`` on the
    increasing ``grid``, held as the (2, T) lower band of ``L^-1`` in LAPACK
    storage: with the AR(1) decays ``a`` of ``CovarianceModel.steps``
    it is bidiagonal, ``d_n = 1 / sqrt(sigma2 (1 - a_n^2))`` on the diagonal
    and ``-a_(j+1) d_(j+1)`` in subdiagonal entry ``j``."""
    decay, kept = CovarianceModel(sigma2=[sigma2], phi=[phi]).steps(grid)
    band = np.zeros((2, len(decay)))
    band[0] = 1.0 / np.sqrt(sigma2 * kept[:, 0])
    band[1, :-1] = -decay[1:, 0] * band[0, 1:]
    return band


def _noise(cfg: SimConfig, rows: int, *path: int) -> np.ndarray:
    """``rows`` noise curves on ``cfg.grid``; row ``j`` is the GP Cholesky
    factor times the normal draws of stream ``(seed, *path, j)``, all rows
    coloured by one triangular band solve with the factor's inverse."""
    band = gp_cholesky(cfg.grid, cfg.sigma2, cfg.phi)
    draws = np.vstack([_stream(cfg.seed, *path, j).standard_normal(band.shape[1])
                       for j in range(rows)])
    # dtbtrs, not solve_banded (whose gbsv pivots); the diagonal is finite
    # and nonzero for a SimConfig, so the singularity flag is never set.
    return dtbtrs(band, draws.T, uplo="L", overwrite_b=1)[0].T


def generate_dataset(cfg: SimConfig, noise_stream: int = 0,
                     conc_stream: int = 0
                     ) -> tuple[SpectraSet, ConcentrationMatrix, SimTruth]:
    """Calibration spectra, their concentrations and the truth record.

    Concentrations depend only on ``(seed, conc_stream, sample index)``,
    noise on ``(seed, noise_stream, sample index)``; growing the sample
    count therefore extends the dataset without changing existing rows.
    """
    grid = cfg.grid
    kv, coef = true_curves((cfg.grid_start, cfg.grid_end))
    curve_values = coef @ design_matrix(kv, grid).dense().T
    m = cfg.num_analytes
    y = np.vstack([
        sample_dirichlet(_stream(cfg.seed, _CONC_STREAM, conc_stream, i),
                         1, cfg.alpha, m)
        for i in range(cfg.num_samples)
    ])
    noise = _noise(cfg, cfg.num_samples, _NOISE_STREAM, noise_stream)
    absorbance = curve_values[0][None, :] + y @ curve_values[1:] + noise
    spectra = SpectraSet(grid=grid, absorbance=absorbance)
    truth = SimTruth(basis=kv, curve_values=curve_values, config=cfg)
    return spectra, ConcentrationMatrix(values=y), truth


def prediction_spectra(truth: SimTruth, y_star: np.ndarray, *path: int) -> SpectraSet:
    """Fresh prediction curves for the given concentration rows."""
    cfg = truth.config
    y_star = np.atleast_2d(np.asarray(y_star, dtype=float))
    noise = _noise(cfg, y_star.shape[0], _PRED_STREAM, *path)
    absorbance = (
        truth.curve_values[0][None, :] + y_star @ truth.curve_values[1:] + noise
    )
    return SpectraSet(grid=cfg.grid, absorbance=absorbance)


def _ordered_map(func, arg_tuples: list[tuple], jobs: int) -> list:
    """``[func(*args) for args in arg_tuples]``, on ``jobs`` worker processes
    when ``jobs > 1``; results keep the input order either way.  Workers
    run BLAS on one thread under any start method, as the studies' own
    process does, so the results do not depend on ``jobs``."""
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs,
                                 initializer=_blas.pin_one_thread) as pool:
            futures = [pool.submit(func, *args) for args in arg_tuples]
            return [f.result() for f in futures]
    return [func(*args) for args in arg_tuples]


def check_study(methods: Iterable[str] | Mapping[str, FitSpec], jobs: int,
                **counts: int) -> dict[str, FitSpec]:
    """The study's methods by name, once ``jobs`` and every repeat count in
    ``counts`` are at least 1 and every method name is known."""
    for name, value in {"jobs": jobs, **counts}.items():
        if value < 1:
            raise InvalidParameterError(f"{name} must be at least 1, got {value}")
    if isinstance(methods, Mapping):
        return dict(methods)
    resolved = {}
    for name in methods:
        if name not in STUDY_METHODS:
            raise InvalidParameterError(
                f"unknown study method '{name}'; choose from "
                f"{sorted(STUDY_METHODS)}"
            )
        resolved[name] = STUDY_METHODS[name]
    return resolved


@dataclass(frozen=True)
class JackknifeStudyResult:
    """Per-method jackknife spreads across noise replicates."""

    methods: tuple[str, ...]
    spreads: dict[str, np.ndarray]
    failures: dict[str, int]
    replicates: int
    config: SimConfig

    def summary(self) -> dict[str, dict[str, np.ndarray | float]]:
        out = {}
        for name in self.methods:
            values = self.spreads[name]
            if values.size == 0:
                out[name] = {"median": np.array([]), "iqr": np.array([]),
                             "overall_median": float("nan"),
                             "overall_iqr": float("nan")}
                continue
            q25, q50, q75 = np.percentile(values, [25, 50, 75], axis=0)
            pooled = values.ravel()
            p25, p50, p75 = np.percentile(pooled, [25, 50, 75])
            out[name] = {
                "median": q50,
                "iqr": q75 - q25,
                "overall_median": float(p50),
                "overall_iqr": float(p75 - p25),
            }
        return out

    def rows(self) -> list[tuple]:
        rows = []
        summary = self.summary()
        m = self.config.num_analytes
        for name in self.methods:
            stats = summary[name]
            for comp in range(m):
                rows.append((name, str(comp + 1),
                             float(stats["median"][comp]),
                             float(stats["iqr"][comp])))
            rows.append((name, "*", stats["overall_median"],
                         stats["overall_iqr"]))
        return rows


def _jackknife_replicate(cfg: SimConfig, methods: dict[str, FitSpec],
                         replicate: int) -> dict[str, np.ndarray | None]:
    spectra, conc, _ = generate_dataset(cfg, noise_stream=replicate)
    spreads = jackknife_spreads(spectra, conc, list(methods.values()))
    return {name: (None if isinstance(spread, SpecalError) else spread)
            for name, spread in zip(methods, spreads)}


@_blas.one_thread()
def run_jackknife_study(cfg: SimConfig, methods: Iterable[str] | Mapping[str, FitSpec],
                        replicates: int, jobs: int = 1) -> JackknifeStudyResult:
    """Repeat the jackknife over fresh-noise replicates; summarize spreads.

    Concentrations are drawn once from the seed and shared by every
    replicate.  Method failures are counted and excluded, never dropped
    silently.
    """
    resolved = check_study(methods, jobs, replicates=replicates)
    results = _ordered_map(
        _jackknife_replicate,
        [(cfg, resolved, rep) for rep in range(replicates)], jobs,
    )
    spreads: dict[str, np.ndarray] = {}
    failures: dict[str, int] = {}
    for name in resolved:
        collected = [r[name] for r in results if r[name] is not None]
        failures[name] = sum(1 for r in results if r[name] is None)
        spreads[name] = (
            np.vstack(collected) if collected
            else np.empty((0, cfg.num_analytes))
        )
    return JackknifeStudyResult(
        methods=tuple(resolved),
        spreads=spreads,
        failures=failures,
        replicates=replicates,
        config=cfg,
    )


@dataclass(frozen=True)
class BiasVarianceResult:
    """Prediction-set squared bias and variability accumulators."""

    methods: tuple[str, ...]
    squared_bias: dict[str, np.ndarray]
    variability: dict[str, np.ndarray]
    failures: dict[str, int]
    learning_sets: int
    prediction_reps: int
    config: SimConfig

    def rows(self) -> list[tuple]:
        rows = []
        m = self.config.num_analytes
        for name in self.methods:
            b2, v = self.squared_bias[name], self.variability[name]
            for comp in range(m):
                rows.append((name, str(comp + 1), float(b2[comp]), float(v[comp])))
            rows.append((name, "*", float(b2.sum()), float(v.sum())))
        return rows


def _bias_variance_set(cfg: SimConfig, methods: dict[str, FitSpec],
                       y_star: np.ndarray, reps: int, g: int
                       ) -> dict[str, np.ndarray | None]:
    spectra, conc, truth = generate_dataset(cfg, noise_stream=g, conc_stream=g)
    fitted = {}
    for name, spec in methods.items():
        strategy = make_strategy(spec)
        try:
            fitted[name] = (strategy, strategy.fit(spectra, conc))
        except SpecalError:
            fitted[name] = None
    preds: dict[str, np.ndarray | None] = {
        name: (np.zeros((reps, y_star.shape[0], y_star.shape[1]))
               if fitted[name] is not None else None)
        for name in methods
    }
    for h in range(reps):
        new_spectra = prediction_spectra(truth, y_star, g, h)
        for name in methods:
            if fitted[name] is None or preds[name] is None:
                continue
            strategy, model = fitted[name]
            try:
                preds[name][h] = strategy.predict_fitted(model, new_spectra)
            except SpecalError:
                preds[name] = None
    return preds


@_blas.one_thread()
def run_bias_variance_study(cfg: SimConfig,
                            methods: Iterable[str] | Mapping[str, FitSpec],
                            learning_sets: int = 40, prediction_reps: int = 5,
                            jobs: int = 1) -> BiasVarianceResult:
    """Independent learning sets, repeated prediction draws per set.

    For each learning set the per-set mean prediction over the noise
    replicates anchors both accumulators: variability sums squared
    deviations of predictions from that mean, squared bias sums squared
    deviations of the mean from the true concentrations.  Sums run over
    learning sets, replicates and the rows of ``PREDICTION_DESIGN``, one
    total per analyte.
    """
    resolved = check_study(methods, jobs, learning_sets=learning_sets,
                           prediction_reps=prediction_reps)
    y_star = PREDICTION_DESIGN
    if y_star.shape[1] != cfg.num_analytes:
        raise ShapeError("prediction design columns must match analyte count")
    all_preds = _ordered_map(
        _bias_variance_set,
        [(cfg, resolved, y_star, prediction_reps, g)
         for g in range(learning_sets)], jobs,
    )
    m = cfg.num_analytes
    squared_bias = {name: np.zeros(m) for name in resolved}
    variability = {name: np.zeros(m) for name in resolved}
    failures = {name: 0 for name in resolved}
    for per_set in all_preds:
        for name in resolved:
            preds = per_set[name]
            if preds is None:
                failures[name] += 1
                continue
            mean_pred = preds.mean(axis=0)                     # (rows, m)
            variability[name] += ((preds - mean_pred[None]) ** 2).sum(axis=(0, 1))
            squared_bias[name] += prediction_reps * (
                (y_star - mean_pred) ** 2
            ).sum(axis=0)
    return BiasVarianceResult(
        methods=tuple(resolved),
        squared_bias=squared_bias,
        variability=variability,
        failures=failures,
        learning_sets=learning_sets,
        prediction_reps=prediction_reps,
        config=cfg,
    )
