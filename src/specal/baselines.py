"""Classical multivariate calibration baselines: MLR, PCR, kernel PLS2.

All three regress mean-centered concentrations on mean-centered spectra
treated as unordered wavelength variables.  With more wavelengths than
samples the MLR solution is the minimum-norm one, so PCR and PLS with a
full set of components reproduce its training predictions.

Each rule reads its coefficients off principal coordinates, where a
least-squares system is its spectra cross-product and ``X'Y``
(:class:`Systems`), and runs on a stack of such systems at once.  A full
fit is one system, the diagonal ``S^2`` of the thin SVD of its data
(:class:`Decomposition`), and maps its coefficients back to wavelengths.
A jackknife takes one SVD of the whole calibration set and downdates
each fold in its principal coordinates, a block of folds at a time
(:func:`downdated_folds`): dropping a sample and recentering changes the
cross-product by one rank-one term, ``S^2 - c z z'``, and its held-out
sample is predicted there with no wavelength-length array.  No fold is
eigendecomposed.  MLR inverts the rank-one change in closed form
(Sherman-Morrison, or Meyer's pseudoinverse when the fold loses a
direction), PLS applies it to a vector as ``S^2 r - c z (z'r)``, and PCR
and the variance-fraction counts take only the leading eigenpairs, from
the roots of the secular equation (Bunch, Nielsen & Sorensen 1978,
Numer. Math. 31:31-48).  MLR divides by every eigenvalue, so a fold is
downdated only while its smallest kept eigenvalue is above ``sqrt(eps)
s_0^2``, which keeps MLR within about ``sqrt(eps)`` relative of a refit
from scratch; an inertia count tells which folds are, without their
eigenvalues.  A fold below that (one that may have lost a direction, or
keeps one badly conditioned), is taken instead from a thin SVD of its
rows in principal coordinates, with the rank cutoff of
``numpy.linalg.lstsq``: a system with no rank-one term, as a full fit
is.  So is a fold, for the rules that read its leading roots, when those
would need deflation (Gu & Eisenstat 1994, SIAM J. Matrix Anal. Appl.
15:1266-1276).

PLS2 is the kernel algorithm of Dayal & MacGregor (1997, J. Chemometrics
11:73-85), run in the principal-axis basis; it reaches the fixed point of
NIPALS without iterating.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Iterator

import numpy as np

from .calibrate import _folds_per_block
from .errors import (
    ConvergenceError,
    DegenerateSpectraError,
    GridMismatchError,
    InvalidParameterError,
    InvalidComponentsError,
    ShapeError,
    failing,
)

_EPS = np.finfo(float).eps
# Secular-equation iterations before a root is taken as it stands; the
# rational step settles in a handful, bisection alone in about 60.
_SECULAR_STEPS = 64


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
class Systems:
    """Least-squares systems in the principal coordinates of one SVD, one
    per row of a stack: the single system of a full fit, or the folds of a
    jackknife block.

    System ``i`` has the spectra cross-product ``A_i = diag(s^2) - c z_i
    z_i'`` and ``X'Y = S uy_i``; without ``z`` it is ``diag(s^2)`` itself,
    as for a full fit or a fold decomposed from its own rows.  Every
    ``A_i`` loses ``lost`` (0 or 1) of the ``s.size`` directions, so
    ``rank`` counts the rest.  A fold also has its fold number, its mean
    concentrations and its held-out spectrum centered on its mean, in the
    same coordinates; ``window`` (per system) bounds the leading
    eigenpairs its rules read (:attr:`eigen`).  A rule that fails for a
    system raises its error with ``system`` set to the first failing row.
    """

    s: np.ndarray
    uy: np.ndarray
    z: np.ndarray | None = None
    c: float = 0.0
    lost: int = 0
    folds: np.ndarray | None = None
    y_mean: np.ndarray | None = None
    held_out: np.ndarray | None = None
    window: np.ndarray | None = None

    @property
    def rank(self) -> int:
        return self.s.size - self.lost

    @property
    def trace(self) -> np.ndarray:
        """``trace(A_i)``, the spectra's total variance, per system."""
        total = np.sum(self.s * self.s)
        if self.z is None:
            return np.full(len(self.uy), total)
        return total - self.c * np.sum(self.z * self.z, axis=1)

    def cross(self, r: np.ndarray) -> np.ndarray:
        """``A_i r_i`` for the rows ``r_i`` of ``r``."""
        product = self.s * self.s * r
        if self.z is not None:
            product -= self.c * self.z * (self.z[:, None, :] @ r[:, :, None])[:, 0]
        return product

    @cached_property
    def eigen(self) -> tuple[np.ndarray, np.ndarray]:
        """The ``window.max()`` largest eigenvalues of each ``A_i`` (n,
        window) and their unit eigenvectors (n, r, window), from the
        secular equation (:func:`_secular_roots`); pairs past a system's
        own window are not solved."""
        count = int(self.window.max())
        lam, diff = _secular_roots(self.s * self.s, self.z, self.c, count,
                                   self.window)
        with np.errstate(divide="ignore", invalid="ignore"):  # unsolved pairs
            vectors = self.z[:, None, :] / diff
            vectors /= np.sqrt(np.sum(vectors * vectors, axis=-1))[..., None]
        return lam, np.swapaxes(vectors, 1, 2)

    def predict(self, coefficients: np.ndarray) -> np.ndarray:
        """Each fold's held-out prediction by its coefficients (n, rows, m)
        on its leading principal directions."""
        rows = coefficients.shape[1]
        return self.y_mean + (self.held_out[:, None, :rows] @ coefficients)[:, 0]

    def take(self, rows: np.ndarray) -> Systems:
        """The folds ``rows`` of the stack."""
        return replace(self, uy=self.uy[rows], z=self.z[rows], folds=self.folds[rows],
                       y_mean=self.y_mean[rows], held_out=self.held_out[rows],
                       window=self.window[rows])


@dataclass(frozen=True)
class FoldBlock:
    """Consecutive jackknife folds ``start .. start + size - 1``.

    ``stack`` holds the folds the downdate serves (none when it is None).
    ``own`` holds, each from its own rows, the folds it does not serve and
    every fold whose leading roots would need deflation for some rule;
    ``deflated[j]`` marks the stacked folds that rule ``j`` of the pass
    takes from ``own``.  So each rule sees every fold as it would if it
    ran alone.
    """

    start: int
    size: int
    stack: Systems | None
    own: dict[int, Systems]
    deflated: np.ndarray

    def parts(self, rule: int) -> list[Systems]:
        """The systems of the block's folds for rule ``rule``."""
        if self.stack is None:
            return list(self.own.values())
        served = ~self.deflated[rule]
        stack = self.stack if served.all() else self.stack.take(served)
        parts = [own for i, own in self.own.items() if i not in stack.folds]
        return parts + [stack] if len(stack.folds) else parts


@dataclass(frozen=True)
class Decomposition:
    """Calibration means and the thin SVD ``u diag(s) vt`` of the centered
    spectra, for a full fit.

    ``rank`` counts the singular values above ``s[0] max(shape) eps``, the
    cutoff of ``numpy.linalg.lstsq(rcond=None)``, up to ``n - 1``, the most
    ``n`` centered rows span.  ``uy`` holds the centered concentrations in
    the principal basis, ``u'Y`` over those ``rank`` directions.  Jackknife
    folds do not decompose their own spectra: :func:`downdated_folds`
    downdates this decomposition of the whole set.
    """

    w_mean: np.ndarray
    y_mean: np.ndarray
    u: np.ndarray
    s: np.ndarray
    vt: np.ndarray
    rank: int
    uy: np.ndarray

    @property
    def system(self) -> Systems:
        """The fit as a stack of one system with no rank-one term."""
        return Systems(s=self.s[:self.rank], uy=self.uy[None])

    def model(self, method: str, fitted: tuple[np.ndarray, ...]) -> MultivariateModel:
        """Model from a rule's output on :attr:`system`: coefficients on the
        leading principal directions mapped back to wavelengths, and for a
        component model the rotation from principal coordinates to its
        scores."""
        principal_coef, *rotation = (part[0] for part in fitted)
        coef = self.vt[:principal_coef.shape[0]].T @ principal_coef
        components = explained = scores = None
        if rotation:
            rotation, = rotation
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
    rank = min(int(np.sum(s > s[0] * max(wc.shape) * _EPS)), len(wc) - 1)
    return Decomposition(w_mean=w_mean, y_mean=y_mean, u=u, s=s, vt=vt,
                         rank=rank, uy=u[:, :rank].T @ (y - y_mean))


def downdated_folds(w: np.ndarray, y: np.ndarray, choices
                    ) -> Iterator[tuple[int, FoldBlock]]:
    """The data without each sample in turn, from one SVD of all of it, in
    blocks ``(start, block)`` of consecutive folds (:class:`FoldBlock`);
    ``w`` and ``y`` are 2-D float arrays with one row per sample, and at
    least three rows.  ``choices`` holds the ``method``, ``components``
    and ``variance_fraction`` of every rule the folds will serve.

    With ``Xc = U S V'`` the centered spectra of ``n`` samples, dropping
    sample ``i`` and recentering leaves the cross-product ``Xc'Xc - c x_i
    x_i'``, ``c = n / (n - 1)``; in the principal basis that is ``S^2 - c
    z z'`` with ``z = S u_i``, its ``X'Y`` is ``S U'Y - c z y_i'`` and its
    held-out spectrum ``c z``.  A block's folds are one stack of such
    systems (:class:`Systems`), sized by the byte budget of the functional
    folds (:func:`calibrate._folds_per_block`).  A fold of a set whose
    spectra span all ``n - 1`` centered directions loses one.  Any other
    eigenvalue at or below ``sqrt(eps) s_0^2`` cannot be told from zero or
    is too inaccurate for MLR; an inertia count finds such a fold without
    its eigenvalues (:func:`_inertia_ok`).  That fold is decomposed
    instead from its centered rows in principal coordinates, ``(U_-i + u_i
    / (n - 1)) S``, as a refit would find it, and so is a fold for each
    rule whose leading eigenpairs it would need deflated
    (:func:`_needs_deflation`).
    """
    dec = decompose(w, y)
    n, num_wavelengths = w.shape
    constant = _constant_fold(w)
    r = dec.rank
    lost = r - min(r, n - 2)
    c = n / (n - 1)
    s = dec.s[:r]
    u = dec.u[:, :r]
    d = s * s
    yc = y - dec.y_mean
    trace = np.sum(d) - c * np.einsum("ik,ik,k->i", u, u, d)
    reads = np.array([_roots_read(d, trace, r - lost, choice) for choice in choices])
    windows = reads.max(axis=0)
    # Words per fold: the stacked eigenvectors, secular terms and PLS
    # rotations of up to ``width`` columns, and the X'Y and coefficients.
    width = max([1, int(windows.max())] + [choice.components or 0 for choice in choices])
    step = _folds_per_block(8 * r * (6 * width + 4 * y.shape[1] + 8))
    stop = n if constant is None else constant
    for start in range(0, stop, step):
        block = np.arange(start, min(start + step, stop))
        z = s * u[block]
        weight = c * z * z
        served = _inertia_ok(d, weight, lost)
        deflated = np.array([_needs_deflation(d, weight, read[block]) for read in reads])
        own = block[~served | deflated.any(axis=0)]
        keep = block[served]
        stack = Systems(
            s=s, uy=dec.uy - c * u[keep, :, None] * yc[keep, None, :], z=z[served],
            c=c, lost=lost, folds=keep, y_mean=dec.y_mean - yc[keep] / (n - 1),
            held_out=c * z[served], window=windows[keep]) if keep.size else None
        yield start, FoldBlock(
            start=start, size=block.size, stack=stack, deflated=deflated[:, served],
            own={int(i): _own_rows(u, s, yc, dec.y_mean, i, num_wavelengths)
                 for i in own})
    if constant is not None:
        raise DegenerateSpectraError("spectra are constant across samples")


def _own_rows(u: np.ndarray, s: np.ndarray, yc: np.ndarray, y_mean: np.ndarray,
              i: int, num_wavelengths: int) -> Systems:
    """Fold ``i`` from the thin SVD of its centered rows in principal
    coordinates, with the rank cutoff of lstsq, as a system of its own:
    its cross-product would square the fold's condition number."""
    n = len(u)
    rows = (np.delete(u, i, axis=0) + u[i] / (n - 1)) * s
    left, root, rotation = np.linalg.svd(rows, full_matrices=False)
    rank = int(np.sum(root > root[0] * max(n - 1, num_wavelengths) * _EPS))
    uy = left[:, :rank].T @ (np.delete(yc, i, axis=0) + yc[i] / (n - 1))
    return Systems(s=root[:rank], uy=uy[None], folds=np.array([i]),
                   y_mean=(y_mean - yc[i] / (n - 1))[None],
                   held_out=(n / (n - 1) * (rotation[:rank] @ (s * u[i])))[None])


def _inertia_ok(d: np.ndarray, weight: np.ndarray, lost: int) -> np.ndarray:
    """Whether each system ``diag(d) - c z_i z_i'``, given ``weight = c
    z_i^2`` per row, has at most ``lost`` eigenvalues at or below the floor
    ``sqrt(eps) d_0``.  By Sylvester's law of inertia that count is the
    number of ``d_k`` at or below the floor, plus one where the secular
    function ``1 - sum_k weight_k / (d_k - x)`` is negative there."""
    floor = np.sqrt(_EPS) * d[0]
    with np.errstate(divide="ignore"):
        secular = 1 - np.sum(weight / (d - floor), axis=1)
    return np.sum(d <= floor) + (secular < 0) <= lost


def _needs_deflation(d: np.ndarray, weight: np.ndarray, window: np.ndarray
                     ) -> np.ndarray:
    """Whether a system's leading ``window`` roots touch a pole the
    secular equation cannot separate: a ``weight = c z_k^2`` or a gap
    ``d_k - d_{k+1}`` of at most ``8 eps d_0`` (the deflation tolerance of
    LAPACK's ``dlaed2``) among poles ``0 .. window``."""
    tol = 8 * _EPS * d[0]
    k = np.arange(d.size)
    touched = (k <= window[:, None]) & (window[:, None] > 0)
    close = np.append(d[:-1] - d[1:] <= tol, False)
    return np.any(touched & (weight <= tol), axis=1) | np.any(
        touched & (k < window[:, None]) & close, axis=1)


def _roots_read(d: np.ndarray, trace: np.ndarray, rank: int, choice) -> np.ndarray:
    """How many leading eigenvalues each fold's rule reads: its component
    count for PCR, and for a variance fraction a bound from interlacing,
    one above it for rounding.  The top ``j`` roots hold at least ``d_1 +
    .. + d_j`` (``lambda_k >= d_{k+1}``) and at least the trace less ``d_j
    + d_{j+1} + ..`` (``lambda_k <= d_k``)."""
    if choice.variance_fraction is not None:
        share = (choice.variance_fraction - 1e-12) * trace
        head = np.cumsum(d)
        bound = np.minimum(np.searchsorted(head[1:] - d[0], share),
                           np.searchsorted(head, head[-1] - trace + share)) + 2
        return np.minimum(bound, rank)
    if choice.method == "pcr":
        return np.full(len(trace), min(choice.components, rank))
    return np.zeros(len(trace), dtype=int)


def _secular_roots(d: np.ndarray, z: np.ndarray, c: float, count: int,
                   window: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The ``count`` largest eigenvalues of each ``diag(d) - c z_i z_i'``
    (``d`` decreasing) and the differences ``d_k - lambda_j``: (n, count)
    and (n, count, r).  Roots past a row's ``window`` are left unsolved.

    Root ``j`` solves ``c sum_k z_k^2 / (d_k - lambda) = 1`` between the
    poles ``d_{j+1}`` and ``d_j`` (for the last, between ``d_{r-1}`` and
    the Weyl bound ``d_{r-1} - c |z|^2``).  It is found as an offset from
    the nearer pole, which the sign of the secular function halfway tells,
    so that ``d_k - lambda`` keeps its relative accuracy next to that pole,
    by the two-pole rational step of Bunch, Nielsen & Sorensen (1978)
    safeguarded by bisection.  Each root stops on its own once its step,
    or its bracket, is a few ulps wide, so a root does not depend on the
    others solved beside it.
    """
    n, r = z.shape
    weight = c * z * z
    j = np.arange(count)
    has_lower = j + 1 < r
    lower_pole = np.minimum(j + 1, r - 1)
    gap = np.where(has_lower, d[j] - d[lower_pole], np.sum(weight, axis=1)[:, None])
    above = j[:, None] >= np.arange(r)          # the poles d_k, k <= j, above root j
    with np.errstate(divide="ignore", invalid="ignore"):
        halfway = 1 - np.sum(weight[:, None, :] / (d - (d[j] - gap / 2)[..., None]),
                             axis=-1)
        upper = (halfway >= 0) | ~has_lower
        pole = np.where(upper, j, lower_pole)
        delta = d - d[pole][..., None]
        lo = np.where(upper, np.where(has_lower, -gap / 2, -gap), 0.0)
        hi = np.where(upper, 0.0, gap / 2)
        to_upper = np.where(upper, 0.0, gap)     # d_j - d_pole
        to_lower = np.where(upper, -gap, 0.0)    # d_{j+1} - d_pole
        t = (lo + hi) / 2
        done = j >= window[:, None]
        for _ in range(_SECULAR_STEPS):
            diff = delta - t[..., None]
            terms = weight[:, None, :] / diff
            slopes = terms / diff
            f = 1 - np.sum(terms, axis=-1)
            slope_up = np.sum(slopes, axis=-1, where=above)
            slope_lo = np.sum(slopes, axis=-1, where=~above)
            lo = np.where(f > 0, t, lo)
            hi = np.where(f < 0, t, hi)
            # Model each side's sum by one pole plus a constant matching its
            # value and slope at t; the step eta solves the model.
            p, q = to_upper - t, to_lower - t
            a0 = f + slope_up * p + slope_lo * q
            b = f * (p + q) + p * q * (slope_up + slope_lo)
            near = b + np.copysign(np.sqrt(np.maximum(b * b - 4 * a0 * p * q * f, 0)), b)
            eta = 2 * p * q * f / near
            eta = np.where((q < eta) & (eta < p), eta, near / (2 * a0))
            eta = np.where(has_lower, eta, p * f / (f + slope_up * p))
            tol = 4 * _EPS * np.abs(t)
            done |= (np.abs(eta) <= tol) | (hi - lo <= tol)
            step = t + eta
            step = np.where((lo < step) & (step < hi), step, (lo + hi) / 2)
            t = np.where(done, t, step)
            if done.all():
                break
    return d[pole] + t, delta - t[..., None]


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


def _component_counts(pc: Systems, components: int | None,
                      variance_fraction: float | None) -> np.ndarray:
    """Each system's component count: the fixed count, or the fewest
    leading eigenvalues holding ``variance_fraction`` of its variance."""
    check_component_choice(components, variance_fraction)
    if components is not None:
        if components > pc.rank:
            raise failing(0, InvalidComponentsError(
                f"component count {components} outside [1, rank={pc.rank}]"
            ))
        return np.full(len(pc.uy), components)
    if pc.z is None:
        var = pc.s ** 2
        cumulative = np.cumsum(var) / var.sum()
        return np.full(len(pc.uy), np.searchsorted(cumulative, variance_fraction - 1e-12) + 1)
    cumulative = np.cumsum(pc.eigen[0], axis=1) / pc.trace[:, None]
    reached = ((cumulative >= variance_fraction - 1e-12)
               | (np.arange(cumulative.shape[1]) >= pc.window[:, None] - 1))
    return np.argmax(reached, axis=1) + 1


def _by_count(counts: np.ndarray, product, out: np.ndarray) -> np.ndarray:
    """``out[i] = product(rows, p)`` over the systems ``rows`` sharing a
    count ``p``: each system's products then take the same BLAS calls
    whatever stack it is in."""
    for p in np.unique(counts):
        rows = np.flatnonzero(counts == p)
        out[rows] = product(rows, int(p))
    return out


def mlr_coefficients(pc: Systems) -> tuple[np.ndarray]:
    """Minimum-norm least squares, ``A^+ X'Y``: regression on every
    principal direction.

    With a rank-one term ``A = D - c z z'`` (``D = S^2``) the inverse is
    Sherman-Morrison's, ``D^-1 + c v v' / (1 - c |u|^2)`` with ``v = D^-1 z
    = u / s``; a system that loses a direction has ``c |u|^2 = 1`` and
    ``A^+ = P D^-1 P``, ``P`` the projector off ``v`` (Meyer 1973, SIAM J.
    Appl. Math. 24:315-323).
    """
    s = pc.s[:, None]
    if pc.z is None:
        return (pc.uy / s,)
    v = pc.z / (pc.s * pc.s)
    u = pc.z / pc.s
    ug = u[:, None, :] @ pc.uy                   # (n, 1, m): v'X'Y
    if pc.lost == 0:
        leverage = (u[:, None, :] @ u[:, :, None])[:, 0]
        return ((pc.uy + u[:, :, None] * (pc.c * ug / (1 - pc.c * leverage)[:, None])) / s,)
    norm_sq = (v[:, None, :] @ v[:, :, None])[:, 0]
    coef = (pc.uy - (v / pc.s)[:, :, None] * (ug / norm_sq[:, None])) / s
    return (coef - v[:, :, None] * ((v[:, None, :] @ coef) / norm_sq[:, None]),)


def pcr_coefficients(pc: Systems, components: int | None = None,
                     variance_fraction: float | None = None
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Regression on the top ``p`` eigenvectors of each cross-product: the
    coefficients and the rotation from principal coordinates to scores,
    whose first ``p`` columns are that system's.  Without a rank-one term
    those are the top ``p`` principal directions themselves."""
    counts = _component_counts(pc, components, variance_fraction)
    if pc.z is None:
        p = int(counts[0])
        return pc.uy[:, :p] / pc.s[:p, None], np.eye(pc.rank, p)[None]
    lam, vectors = pc.eigen
    xy = pc.s[:, None] * pc.uy

    def product(rows, p):
        q = vectors[rows, :, :p]
        return q @ ((np.swapaxes(q, 1, 2) @ xy[rows]) / lam[rows, :p, None])

    coef = _by_count(counts, product, np.empty_like(pc.uy))
    return coef, vectors[:, :, :counts.max()]


def pls_coefficients(pc: Systems, components: int | None = None,
                     variance_fraction: float | None = None
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Kernel PLS2 (Dayal & MacGregor 1997) in the principal-axis basis,
    stacked over the systems: the coefficients and the rotation from
    principal to PLS scores, whose first ``p`` columns are that system's.

    The cross products are ``X'X = A`` and ``X'Y = S uy`` there, ``A``
    applied to a vector as ``s^2 r - c z (z'r)``.  Each weight ``w`` is the
    leading left singular vector of the deflated ``X'Y`` (the NIPALS fixed
    point), ``r = w - R P'w`` its rotation onto the undeflated spectra, and
    only ``X'Y`` is deflated.  Scores are ``X R``.  The variance-fraction
    selector counts components exactly as PCR does, so the two methods
    stay comparable when run side by side.  A system whose weight vanishes
    within its count fails; systems past their count run on, unread.
    """
    counts = _component_counts(pc, components, variance_fraction)
    num = int(counts.max())
    n, rank, m = pc.uy.shape
    xy = pc.s[:, None] * pc.uy
    rotation = np.zeros((n, rank, num))
    loadings = np.zeros((n, rank, num))
    y_loadings = np.zeros((n, m, num))
    x_norm_sq = pc.trace  # squared norm of the deflated spectra
    vanished = np.full(n, num)
    with np.errstate(divide="ignore", invalid="ignore"):
        for a in range(num):
            idle = (counts <= a) | (vanished < a)
            if idle.any():
                xy[idle] = 1.0
            flat = xy.reshape(n, 1, rank * m)
            cross_scale = np.sqrt(flat @ np.swapaxes(flat, 1, 2))[:, 0, 0]
            small = cross_scale < 1e-14 * np.maximum(np.sqrt(np.maximum(x_norm_sq, 0.0)), 1.0)
            vanished = np.where(small & ~idle & (vanished == num), a, vanished)
            if m == 1:
                w_vec = xy[:, :, 0] / cross_scale[:, None]
            else:
                w_vec = np.linalg.svd(xy, full_matrices=False)[0][:, :, 0]
            r_vec = w_vec - (rotation[:, :, :a] @ (
                np.swapaxes(loadings[:, :, :a], 1, 2) @ w_vec[:, :, None]))[:, :, 0]
            xx_r = pc.cross(r_vec)
            t_norm_sq = (r_vec[:, None, :] @ xx_r[:, :, None])[:, 0, 0]
            p_vec = xx_r / t_norm_sq[:, None]
            c_vec = (np.swapaxes(xy, 1, 2) @ r_vec[:, :, None])[:, :, 0] / t_norm_sq[:, None]
            xy = xy - t_norm_sq[:, None, None] * (p_vec[:, :, None] * c_vec[:, None, :])
            x_norm_sq = x_norm_sq - t_norm_sq * (p_vec[:, None, :] @ p_vec[:, :, None])[:, 0, 0]
            rotation[:, :, a] = r_vec
            loadings[:, :, a] = p_vec
            y_loadings[:, :, a] = c_vec
    failed = vanished < num
    if failed.any():
        first = int(np.argmax(failed))
        raise failing(first, ConvergenceError(
            f"PLS weight vector vanished on component {vanished[first] + 1}"))

    def product(rows, p):
        return rotation[rows, :, :p] @ np.swapaxes(y_loadings[rows, :, :p], 1, 2)

    return _by_count(counts, product, np.empty((n, rank, m))), rotation


def fit_mlr(w: np.ndarray, y: np.ndarray) -> MultivariateModel:
    """Multiple linear regression, minimum-norm when rank deficient."""
    dec = decompose(w, y)
    return dec.model("MLR", mlr_coefficients(dec.system))


def fit_pcr(w: np.ndarray, y: np.ndarray, components: int | None = None,
            variance_fraction: float | None = None) -> MultivariateModel:
    """Principal components regression on the top directions of the spectra."""
    dec = decompose(w, y)
    return dec.model("PCR", pcr_coefficients(dec.system, components, variance_fraction))


def fit_pls(w: np.ndarray, y: np.ndarray, components: int | None = None,
            variance_fraction: float | None = None) -> MultivariateModel:
    """Kernel PLS2 on the centered spectra; see :func:`pls_coefficients`."""
    dec = decompose(w, y)
    return dec.model("PLS", pls_coefficients(dec.system, components, variance_fraction))


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
