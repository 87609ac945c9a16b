"""Reference computations and output checks made apart from specal.

The checks read the program's CSV and JSON outputs with the standard
library and recompute what they must hold with numpy and scipy alone: the
basis comes from ``scipy.interpolate.BSpline``, the curvature penalty from
Gauss quadrature of its second derivatives, the smoothing-spline systems
from a simultaneous diagonalisation of the basis Gram and the penalty (not
the per-block Choleskys specal uses), and every leave-one-out spread from
a refit on the remaining samples.  Each check returns a list of failure
messages; an empty list is a pass.
"""

from __future__ import annotations

import csv
import json

import numpy as np
import scipy.linalg as sla
from scipy.interpolate import BSpline

# The documented defaults of the program under test.
GCV_LAMBDA_GRID = np.logspace(-4, 8, 25)
INTERVAL_C = 1.96
CONSTRAINT_WEIGHT = 1.0

# Tolerances, chosen from the rounding a correct output can carry.
NORMAL_EQUATION_TOL = 1e-9     # componentwise backward error
GCV_TIE_RTOL = 1e-8            # a GCV score this close to the minimum ties
SPREAD_RTOL = 1e-6             # leave-one-out spreads, refit vs program
PREDICTION_RTOL = 1e-8         # per-spectrum solves, refit vs program
SEP_RTOL = 1e-12               # RMS of the same residuals
# RMS distance of each GLS-K curve from its generating curve, in absorbance
# units.  The analyte curves have RMS sizes near 6; at I=40 the distance
# stays below 0.5 over seeds 1-12.  An exact check needs the fitted noise
# covariance, which the model file does not store.
GLS_CURVE_RMS_TOL = 1.0
# SEP over J fresh spectra against the I-sample jackknife spread.
SEP_SPREAD_BAND = (0.5, 2.0)


# -- files ------------------------------------------------------------------

def read_rows(path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as handle:
        return [row for row in csv.reader(handle) if row]


def read_spectra(path) -> tuple[list[str], np.ndarray, np.ndarray]:
    """Wide spectra CSV -> (sample ids, grid, (I, T) absorbance)."""
    rows = read_rows(path)
    values = np.array(rows[1:], dtype=float)
    return rows[0][1:], values[:, 0], values[:, 1:].T.copy()


def read_table(path) -> tuple[list[str], list[str], list[list[str]]]:
    """Id-keyed CSV -> (ids, value column names, raw value cells)."""
    rows = read_rows(path)
    return [row[0] for row in rows[1:]], rows[0][1:], [row[1:] for row in rows[1:]]


def read_values(path) -> tuple[list[str], np.ndarray]:
    """Id-keyed numeric columns as an array."""
    ids, _, cells = read_table(path)
    return ids, np.array(cells, dtype=float)


def read_json(path) -> dict:
    with open(path) as handle:
        return json.load(handle)


def read_spread(path) -> tuple[list[str], np.ndarray]:
    ids, _, cells = read_table(path)
    return ids, np.array([row[0] for row in cells], dtype=float)


def read_predictions(path, analytes) -> dict[str, np.ndarray]:
    """Estimates, interval bounds and residual norms of a predictions CSV."""
    ids, header, cells = read_table(path)
    column = {name: k for k, name in enumerate(header)}

    def pick(names):
        return np.array([[row[column[n]] for n in names] for row in cells], dtype=float)

    return {
        "ids": ids,
        "y_hat": pick(analytes),
        "lo": pick([f"{a}_lo" for a in analytes]),
        "hi": pick([f"{a}_hi" for a in analytes]),
        "residual_norm": pick(["residual_norm"])[:, 0],
    }


# -- basis and functional model --------------------------------------------

def basis_matrix(knots, order: int, x) -> np.ndarray:
    return BSpline.design_matrix(np.asarray(x, float), np.asarray(knots, float),
                                 order - 1).toarray()


def penalty_matrix(knots, order: int) -> np.ndarray:
    """Integrated products of basis second derivatives (cubic splines).

    Second derivatives are piecewise linear, so two Gauss-Legendre nodes
    per knot span integrate every product exactly.
    """
    knots = np.asarray(knots, float)
    k = order - 1
    breaks = np.unique(knots[k:len(knots) - k])
    half = 0.5 * np.diff(breaks)
    mid = 0.5 * (breaks[1:] + breaks[:-1])
    nodes, weights = np.polynomial.legendre.leggauss(2)
    x = (mid[:, None] + half[:, None] * nodes[None, :]).ravel()
    w = (half[:, None] * weights[None, :]).ravel()
    num_basis = len(knots) - order
    d2 = BSpline(knots, np.eye(num_basis), k)(x, nu=2)
    return (d2 * w[:, None]).T @ d2


def clamped_knots(start: float, end: float, num_basis: int, order: int = 4) -> np.ndarray:
    """End knots of multiplicity ``order``, the rest evenly inside."""
    interior = np.linspace(start, end, num_basis - order + 2)[1:-1]
    return np.concatenate([np.full(order, start), interior, np.full(order, end)])


def model_curves(model: dict, grid) -> np.ndarray:
    """(m+1, T) baseline and analyte curves of a functional model file."""
    b = basis_matrix(model["knots"], model["order"], grid)
    return np.asarray(model["coefficients"], float) @ b.T


def augmented_rows(y: np.ndarray, weight: float = CONSTRAINT_WEIGHT) -> np.ndarray:
    """Rows (1, y_i) of every sample plus the soft sum-to-zero row."""
    rows = np.zeros((y.shape[0] + 1, y.shape[1] + 1))
    rows[:-1, 0] = 1.0
    rows[:-1, 1:] = y
    rows[-1, 1:] = np.sqrt(weight)
    return rows


class SmoothingSystem:
    """Normal equations of the penalized aggregated fit, diagonalised once.

    With U from the generalized problem C u = mu (C + R) u, the basis Gram
    C and the penalty R are both diagonal in U, so the Kronecker system
    (M (x) C + lam I (x) R) vec(Theta') = vec(F') falls apart into one
    (m+1)-by-(m+1) system per basis direction, for any M and lam.
    """

    def __init__(self, knots, order: int, grid, w: np.ndarray, y: np.ndarray):
        self.grid = np.asarray(grid, float)
        self.w = w
        self.y = y
        self.b = basis_matrix(knots, order, self.grid)
        self.c = self.b.T @ self.b
        self.r = penalty_matrix(knots, order)
        _, self.u = sla.eigh(self.c, self.c + self.r)
        self.mu = np.einsum("ki,kl,li->i", self.u, self.c, self.u)
        self.rho = np.einsum("ki,kl,li->i", self.u, self.r, self.u)
        self.wb = w @ self.b                                  # (I, K)

    def blocks(self, m_gram: np.ndarray, lam: float) -> np.ndarray:
        """(K, m+1, m+1) systems mu_k M + lam rho_k I, one per direction."""
        return (self.mu[:, None, None] * m_gram[None]
                + lam * self.rho[:, None, None] * np.eye(m_gram.shape[0])[None])

    def coefficients(self, lam: float, keep=None) -> np.ndarray:
        """(m+1, K) coefficients fitted on the samples in ``keep``."""
        keep = np.arange(self.y.shape[0]) if keep is None else keep
        rows = augmented_rows(self.y[keep])
        g = rows[:-1].T @ self.wb[keep] @ self.u               # (m+1, K)
        phi = np.linalg.solve(self.blocks(rows.T @ rows, lam),
                              g.T[:, :, None])[:, :, 0]         # (K, m+1)
        return (self.u @ phi).T

    def gcv_score(self, lam: float) -> float:
        """n RSS / (n - tr H)^2 over data and constraint rows."""
        rows = augmented_rows(self.y)
        m_gram = rows.T @ rows
        trace = float(np.trace(np.linalg.solve(
            self.blocks(m_gram, lam), self.mu[:, None, None] * m_gram[None]),
            axis1=1, axis2=2).sum())
        theta = self.coefficients(lam)
        fitted = rows @ theta @ self.b.T
        targets = np.vstack([self.w, np.zeros(self.grid.size)])
        rss = float(np.sum((targets - fitted) ** 2))
        n = targets.size
        return n * rss / (n - trace) ** 2

    def dense_normal_equations(self, lam: float) -> tuple[np.ndarray, np.ndarray]:
        """The full (m+1)K Gram and right-hand side, coefficient-row major."""
        rows = augmented_rows(self.y)
        gram = np.kron(rows.T @ rows, self.c) + lam * np.kron(
            np.eye(rows.shape[1]), self.r)
        rhs = (rows[:-1].T @ self.wb).ravel()
        return gram, rhs


def predict_functional(curves: np.ndarray, w: np.ndarray,
                       total: float | None) -> np.ndarray:
    """Per-spectrum least squares on the analyte curves.

    With ``total`` given, the estimates are constrained to sum to it (the
    closure for closed calibration samples), solved through the KKT system.
    """
    baseline, a = curves[0], curves[1:].T
    resid = (w - baseline[None, :]).T
    m = a.shape[1]
    if total is None:
        return np.linalg.lstsq(a, resid, rcond=None)[0].T
    kkt = np.zeros((m + 1, m + 1))
    kkt[:m, :m] = a.T @ a
    kkt[:m, m] = kkt[m, :m] = 1.0
    rhs = np.vstack([a.T @ resid, np.full((1, w.shape[0]), float(total))])
    return np.linalg.solve(kkt, rhs)[:m].T


def closure_total(y: np.ndarray) -> float | None:
    """Component sum pinned at prediction: 1 for closed (fraction) rows."""
    return 1.0 if np.allclose(y.sum(axis=1), 1.0, atol=1e-9) else None


def spread(errors: np.ndarray) -> np.ndarray:
    return np.sqrt(np.mean(errors ** 2, axis=0))


def loo_spread_smoothing(system: SmoothingSystem, lam: float) -> np.ndarray:
    """Leave-one-out spread of OLS-SS at fixed lam, refitting every fold."""
    n = system.y.shape[0]
    total = closure_total(system.y)
    errors = np.empty_like(system.y)
    for i in range(n):
        theta = system.coefficients(lam, np.arange(n) != i)
        curves = theta @ system.b.T
        errors[i] = system.y[i] - predict_functional(curves, system.w[i:i + 1], total)[0]
    return spread(errors)


def loo_spread_ols_k(knots, order: int, grid, w: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Leave-one-out spread of unpenalized OLS on a fixed basis."""
    b = basis_matrix(knots, order, grid)
    c = b.T @ b
    n = y.shape[0]
    total = closure_total(y)
    errors = np.empty_like(y)
    for i in range(n):
        keep = np.arange(n) != i
        rows = augmented_rows(y[keep])
        f = rows[:-1].T @ (w[keep] @ b)
        theta = np.linalg.solve(rows.T @ rows, np.linalg.solve(c, f.T).T)
        errors[i] = y[i] - predict_functional(theta @ b.T, w[i:i + 1], total)[0]
    return spread(errors)


def loo_spread_multivariate(w: np.ndarray, y: np.ndarray,
                            components: int | None) -> np.ndarray:
    """Leave-one-out spread of MLR (``components=None``) or PCR.

    MLR uses a QR solve of the centred spectra, which equals the program's
    minimum-norm solution when there are more samples than wavelengths; PCR
    uses the leading singular directions.  Both refit on the remaining
    samples in every fold.
    """
    n = y.shape[0]
    if components is None and n - 1 <= w.shape[1]:
        raise ValueError("the QR solve needs more samples than wavelengths")
    errors = np.empty_like(y)
    for i in range(n):
        keep = np.arange(n) != i
        w_mean, y_mean = w[keep].mean(axis=0), y[keep].mean(axis=0)
        wc, yc = w[keep] - w_mean, y[keep] - y_mean
        if components is None:
            q, r = np.linalg.qr(wc)
            coef = sla.solve_triangular(r, q.T @ yc)
        else:
            u, s, vt = np.linalg.svd(wc, full_matrices=False)
            p = components
            coef = vt[:p].T @ ((u[:, :p].T @ yc) / s[:p, None])
        errors[i] = y[i] - (y_mean + (w[i] - w_mean) @ coef)
    return spread(errors)


def rms_error(truth: np.ndarray, predictions: np.ndarray) -> tuple[np.ndarray, float]:
    """SEP: per-component and pooled root mean squares, n - 1 denominators."""
    resid = truth - predictions
    j, m = resid.shape
    return (np.sqrt(np.sum(resid ** 2, axis=0) / (j - 1)),
            float(np.sqrt(np.sum(resid ** 2) / (m * j - 1))))


# -- checks -----------------------------------------------------------------

def close_enough(label: str, got, want, rtol: float, atol: float = 0.0) -> list[str]:
    got, want = np.asarray(got, float), np.asarray(want, float)
    if got.shape != want.shape:
        return [f"{label}: shape {got.shape} != {want.shape}"]
    bad = ~np.isclose(got, want, rtol=rtol, atol=atol)
    if np.any(bad):
        k = int(np.argmax(bad.ravel()))
        return [f"{label}: {int(bad.sum())} entries differ, e.g. "
                f"{got.ravel()[k]!r} != {want.ravel()[k]!r}"]
    return []


def check_normal_equations(model: dict, system: SmoothingSystem) -> list[str]:
    """Coefficients satisfy the penalized normal equations, formed densely."""
    gram, rhs = system.dense_normal_equations(float(model["lambda"]))
    theta = np.asarray(model["coefficients"], float).ravel()
    resid = gram @ theta - rhs
    scale = np.abs(gram) @ np.abs(theta) + np.abs(rhs)
    error = float(np.max(np.abs(resid) / scale))
    if not error <= NORMAL_EQUATION_TOL:
        return [f"normal equations at lambda={model['lambda']}: backward error "
                f"{error:.3g} > {NORMAL_EQUATION_TOL:g}"]
    return []


def check_gcv_choice(model: dict, system: SmoothingSystem,
                     grid=GCV_LAMBDA_GRID) -> list[str]:
    """The stored lambda minimises the GCV score over the default grid."""
    lam = float(model["lambda"])
    if not np.any(np.isclose(grid, lam, rtol=1e-12)):
        return [f"GCV lambda {lam!r} is not on the default grid"]
    scores = np.array([system.gcv_score(float(g)) for g in grid])
    chosen = system.gcv_score(lam)
    best = float(scores.min())
    if chosen > best * (1.0 + GCV_TIE_RTOL):
        return [f"GCV lambda {lam!r} scores {chosen!r}; grid minimum {best!r} "
                f"at lambda={grid[int(np.argmin(scores))]!r}"]
    return []


def check_loo_smoothing(spread_file: np.ndarray, model: dict,
                        system: SmoothingSystem) -> list[str]:
    """The OLS-SS spread file equals a naive leave-one-out at the model lambda."""
    want = loo_spread_smoothing(system, float(model["lambda"]))
    return close_enough("OLS-SS jackknife spread vs naive refit", spread_file, want,
                  SPREAD_RTOL)


def check_curves_near_truth(model: dict, grid, truth_curves: np.ndarray) -> list[str]:
    """Each fitted curve stays within an RMS tolerance of its generating curve."""
    rms = np.sqrt(np.mean((model_curves(model, grid) - truth_curves) ** 2, axis=1))
    if not np.all(rms <= GLS_CURVE_RMS_TOL):
        return [f"{model['method']} curves lie RMS {np.round(rms, 4).tolist()} from "
                f"the generating curves; tolerance {GLS_CURVE_RMS_TOL:g}"]
    return []


def check_positive_spread(label: str, names, values, analytes) -> list[str]:
    """A spread file names every analyte once with a finite positive value."""
    errors = []
    if list(names) != list(analytes):
        errors.append(f"{label}: analytes {list(names)} != {list(analytes)}")
    if not np.all(np.isfinite(values) & (np.asarray(values) > 0)):
        errors.append(f"{label}: spreads {list(values)} not all finite and positive")
    return errors


def check_functional_predictions(pred: dict, model: dict, grid, w: np.ndarray,
                                 s: np.ndarray, cal_y: np.ndarray) -> list[str]:
    """Estimates, intervals and residual norms of a functional model.

    Whether the closure applies is decided from the calibration
    concentrations ``cal_y``, not from the model file; the file's
    ``closed_calibration`` flag must agree with them.
    """
    label = f"{model['method']} predictions"
    curves = model_curves(model, grid)
    total = closure_total(cal_y)
    errors = []
    if bool(model["closed_calibration"]) != (total is not None):
        errors.append(f"{label}: closed_calibration={model['closed_calibration']!r} but "
                      f"the calibration rows are {'' if total else 'not '}closed")
    errors += close_enough(f"{label} vs per-spectrum solve", pred["y_hat"],
                    predict_functional(curves, w, total), PREDICTION_RTOL,
                    atol=PREDICTION_RTOL)
    fitted = curves[0][None, :] + pred["y_hat"] @ curves[1:]
    errors += close_enough(f"{label} residual_norm", pred["residual_norm"],
                     np.linalg.norm(w - fitted, axis=1), PREDICTION_RTOL)
    return errors + check_intervals(label, pred, s)


def check_multivariate_predictions(pred: dict, model: dict, w: np.ndarray,
                                   s: np.ndarray) -> list[str]:
    """Estimates equal intercept + W coef, with exact intervals."""
    label = f"{model['method']} predictions"
    want = (np.asarray(model["intercept"], float)[None, :]
            + w @ np.asarray(model["coefficients"], float))
    errors = close_enough(f"{label} vs intercept + W coef", pred["y_hat"], want,
                    PREDICTION_RTOL, atol=PREDICTION_RTOL)
    return errors + check_intervals(label, pred, s)


def check_intervals(label: str, pred: dict, s: np.ndarray) -> list[str]:
    """Interval bounds are exactly y_hat -+ 1.96 s, bit for bit."""
    half = INTERVAL_C * np.asarray(s, float)[None, :]
    errors = []
    if not np.array_equal(pred["lo"], pred["y_hat"] - half):
        errors.append(f"{label}: lower bounds are not y_hat - {INTERVAL_C} s")
    if not np.array_equal(pred["hi"], pred["y_hat"] + half):
        errors.append(f"{label}: upper bounds are not y_hat + {INTERVAL_C} s")
    return errors


def check_sep(label: str, sep_rows: dict[str, float], analytes, truth: np.ndarray,
              y_hat: np.ndarray, s: np.ndarray) -> list[str]:
    """SEP equals the RMS of the residuals and lies in a band of the spread."""
    per_component, overall = rms_error(truth, y_hat)
    got = [sep_rows.get(a, np.nan) for a in analytes]
    errors = close_enough(f"{label} SEP per component", got, per_component, SEP_RTOL)
    errors += close_enough(f"{label} SEP overall", sep_rows.get("overall", np.nan),
                     overall, SEP_RTOL)
    ratio = np.asarray(got, float) / np.asarray(s, float)
    lo, hi = SEP_SPREAD_BAND
    if not np.all((ratio >= lo) & (ratio <= hi)):
        errors.append(f"{label}: SEP / jackknife spread {np.round(ratio, 3).tolist()} "
                      f"outside [{lo}, {hi}]")
    return errors


def check_row_totals(label: str, y_hat: np.ndarray, total: float) -> list[str]:
    """Every predicted row sums to the calibration total."""
    return close_enough(f"{label} row sums", y_hat.sum(axis=1),
                  np.full(y_hat.shape[0], total), 1e-9)


def check_no_failures(failures: dict[str, int]) -> list[str]:
    failed = {name: n for name, n in failures.items() if n}
    return [f"study methods failed: {failed}"] if failed else []


def check_study_spread(name: str, spreads: np.ndarray, naive: np.ndarray) -> list[str]:
    """The first replicate's study spread equals a naive leave-one-out."""
    if spreads.shape[0] == 0:
        return [f"{name}: no study spreads to compare"]
    return close_enough(f"{name} replicate-0 spread vs naive leave-one-out",
                        spreads[0], naive, SPREAD_RTOL)
