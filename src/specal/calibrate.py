"""Estimators for the aggregated model: OLS, penalized LS with GCV, GLS.

All solvers work on the Gram form of the stacked system.  Because the
design is a Kronecker product of a small concentration block with the
basis design, the normal equations split, in the eigenvectors of the
concentration Gram ``M = Q diag(d) Q'``, into blocks ``d_j C + lam R`` of
basis dimension K.  The basis design ``B`` arrives as its band
(:class:`BasisDesign`, four values per grid site), the basis Gram
``C = B'B`` and the curvature penalty ``R`` are banded (half-bandwidth
``p = 3`` for cubic splines), ``R`` arrives as its band
(:class:`PenaltyMatrix`), and ``_FactoredSystem`` keeps only bands and
solves each block with a banded Cholesky
factorization in ``O(K p^2)``: ``m + 1`` of them per lambda, after an
eigendecomposition of the ``(m+1)``-square ``M``.  GCV takes the hat
trace from the band of each
block's inverse (the Takahashi recursion of ``_selected_inverse``) and
sums the RSS from residual curves, so scoring the whole lambda grid costs
``O(L (m+1) K p^2)`` and forms no K-by-K array.  At ``lam = 0`` every
block is a multiple of ``C``, whose single Cholesky factorization is also
the check that the grid resolves the basis.  OLS (``R = 0``), penalized
fits, GCV scores, lambda selection and leave-one-out refits (Gram
downdates) all go through it.

Leave-one-out folds run in blocks (:func:`_leave_one_out`), as many folds
as fit in ``_FOLD_BLOCK_BYTES``, each solved by its fit's routine.  A
block downdates every fold's ``M`` and ``F`` (or, for GLS, its whitened
Gram) at once; one stacked eigendecomposition and one band factorization
and solve serve all its OLS folds, and a GLS fold takes the fit's Cholesky
solve and singularity check.  A block stops at its first failing fold.

GLS fits and their leave-one-out refits share one whitened assembly,
``_WhitenedSystem``, built from the same aggregated design (its basis
design, concentration rows and constraint row), which fills each block
of sites' basis rows from the band and applies each
sample's inverse Cholesky factor by the innovations (Kalman) recursion of
its noise process, with no T-by-T matrix, in one pass along the grid that
keeps only each sample's whitened Gram.  No dense inverse is formed: the
solves are Cholesky factorizations and symmetric eigendecompositions, and
GCV uses only the band of each block's inverse.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np
import scipy.linalg as sla
from scipy.optimize import nnls

from .basis import BasisDesign, PenaltyMatrix
from .errors import (
    CovarianceConditioningError,
    DegenerateCovarianceError,
    DegenerateGcvError,
    InvalidParameterError,
    ShapeError,
    SingularDesignError,
    failing,
)
from .model import AggregatedDesign, CalibrationModel, ConcentrationMatrix

PHI_GRID = np.logspace(-4, 1, 50)
DEFAULT_LAMBDA_GRID = np.logspace(-4, 8, 25)
_SINGULAR_BASIS = ("basis block is singular; the grid cannot resolve this many "
                   "basis functions (try a penalty or fewer knots)")
_RANK_DEFICIENT = "concentration block is rank deficient after augmentation"
_SINGULAR_WHITENED = ("whitened system is singular: the concentration rows are "
                      "rank deficient, or the grid cannot resolve the basis")
# Bytes the fold arrays of one leave-one-out block may take, at each
# system's ``fold_bytes`` per fold (:func:`_fold_bytes`): with three
# analytes, 17 OLS-K and 6 GLS-K folds at K = 14, T = 81, and 2 OLS-SS
# folds at T = 401.  Stacking every fold at once would raise a
# jackknife's memory peak with the sample count.
_FOLD_BLOCK_BYTES = 1 << 18


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
    with its recursion (``_whitened_blocks``), never with the dense matrix.
    """

    sigma2: np.ndarray
    phi: np.ndarray
    clipped: bool = False

    def __post_init__(self) -> None:
        sigma2 = np.asarray(self.sigma2, dtype=float).ravel()
        phi = np.asarray(self.phi, dtype=float).ravel()
        if sigma2.shape != phi.shape:
            raise ShapeError("sigma2 and phi must have one entry per analyte")
        if not (np.all((sigma2 > 0) & (sigma2 < np.inf))
                and np.all((phi > 0) & (phi < np.inf))):
            raise InvalidParameterError(
                "covariance parameters must be finite and positive")
        sigma2.flags.writeable = False
        phi.flags.writeable = False
        object.__setattr__(self, "sigma2", sigma2)
        object.__setattr__(self, "phi", phi)

    @property
    def num_analytes(self) -> int:
        return self.sigma2.size

    def steps(self, grid: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Each analyte's AR(1) step into site ``n`` of the increasing
        ``grid``, the step GLS whitens and the simulator colours with: the
        decays ``a_n = exp(-phi (t_n - t_(n-1)))``, 0 at the first site, and
        ``1 - a_n^2`` through ``expm1``, both (T, m)."""
        rates = np.outer(np.diff(grid, prepend=-np.inf), self.phi)
        return np.exp(-rates), -np.expm1(-2.0 * rates)


def _bands(b: BasisDesign, band: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
    """Lower bands of ``C = B'B`` and of the penalty ``R``, in LAPACK storage.

    Row ``i`` of each ``(K, p + 1)`` array holds entries ``(i + q, i)`` for
    ``q = 0 .. p`` (zero past the last row), with ``p`` the half-bandwidth
    of the pair, at least 1.  ``C[i, j]`` is nonzero only when some grid
    site sees both functions, so ``p`` for ``C`` is the widest span of
    nonzero columns at one site (:attr:`BasisDesign.width`: 3 for a cubic
    basis, 2 when every site is a knot), and ``C``'s band is summed from
    the design's band; ``C`` is never formed.  ``band`` is the penalty's
    band (:class:`PenaltyMatrix`), padded with zero columns to the pair's
    width; None stands for zero.
    """
    width = b.width
    if band is not None:
        width = max(width, band.shape[1] - 1)
    gram = b.gram_band(width)
    penalty = np.zeros_like(gram)
    if band is not None:
        penalty[:, :band.shape[1]] = band
    return gram, penalty


def _symmetric(band: np.ndarray) -> np.ndarray:
    """The symmetric matrix whose lower band, in :func:`_bands`' storage,
    is ``band``."""
    k = band.shape[0]
    out = np.zeros((k, k))
    for q in range(band.shape[1]):
        rows = np.arange(k - q)
        out[rows + q, rows] = out[rows, rows + q] = band[:k - q, q]
    return out


def _rank_deficient(evals: np.ndarray) -> np.ndarray:
    """Whether each concentration Gram, by its ascending eigenvalues
    ``evals`` (..., m+1), is singular: its smallest eigenvalue is at most
    ``1e-12`` of its largest (or of 1)."""
    return evals[..., 0] <= 1e-12 * np.maximum(evals[..., -1], 1.0)


def _fold_bytes(solve_size: int, curves_size: int) -> int:
    """Bytes one fold of a block takes: ``solve_size`` doubles in its solve
    (coefficients and band factors, or a whitened Gram, factored one fold
    at a time), and five times its curves' ``curves_size`` for its held-out
    prediction, which gathers ``order`` basis values per curve and site."""
    return 8 * (solve_size + 5 * curves_size)


def _folds_per_block(fold_bytes: int) -> int:
    """Folds per leave-one-out block: as many as fit in
    ``_FOLD_BLOCK_BYTES`` at ``fold_bytes`` each, and at least one."""
    return max(1, _FOLD_BLOCK_BYTES // fold_bytes)


def _leave_one_out(num_folds: int, fold_bytes: int, fold_solve
                   ) -> Iterator[tuple[int, np.ndarray]]:
    """Blocks ``(start, coefficients)`` of a leave-one-out pass, in fold order.

    ``fold_solve(folds)`` gives the coefficients (n, m+1, K) of the range
    ``folds`` up to the first that fails, and that fold's error (None if
    none fails); a fold whose coefficients are not finite fails too.  The
    pass yields the folds before the first failure and then raises its
    error, so the folds yielded so far count up to the failing fold.
    """
    size = _folds_per_block(fold_bytes)
    for start in range(0, num_folds, size):
        coef, error = fold_solve(range(start, min(start + size, num_folds)))
        finite = np.isfinite(coef).all(axis=(1, 2))
        if not finite.all():
            count = int(finite.argmin())
            coef, error = coef[:count], ShapeError(
                "coefficients contain non-finite values")
        if len(coef):
            yield start, coef
        if error is not None:
            raise error


def _selected_inverse(factors: np.ndarray) -> np.ndarray:
    """The band of each ``A_s^-1``, from the band Cholesky factor of ``A_s``.

    ``factors`` (S, K, p + 1) holds the lower factors ``A_s = L L'`` in the
    storage of :func:`_bands`; each row ``i`` is overwritten with ``Z_i,i+q``
    (``Z = A^-1``, zero past the last column) and the array returned.  The
    band follows from ``L' Z = L^-1`` (Takahashi, Fagan and Chin 1973),
    whose right side is lower triangular with diagonal ``1 / L_ii``: for
    ``i <= j <= i + p``, ``Z_ij = (delta_ij / L_ii - sum_(k=i+1..i+p) L_ki
    Z_kj) / L_ii``.  Run from ``i = K - 1`` down, row ``i`` needs only the
    ``p`` rows after it, which have replaced their factor rows by then:
    ``O(K p^2)`` work per system, vectorised across them, and each
    system's band depends on no other.
    """
    _, k, width = factors.shape
    # Row i holds 1 / L_ii^2 and -L_(i+q),i / L_ii until it is replaced;
    # column by column, so that no temporary copy is made.
    pivots = factors[:, :, 0]
    for q in range(1, width):
        np.divide(factors[:, :, q], pivots, out=factors[:, :, q])
        np.negative(factors[:, :, q], out=factors[:, :, q])
    np.square(pivots, out=pivots)
    np.reciprocal(pivots, out=pivots)
    # Z on rows and columns i+1 .. i+p is band entry |a - b| of row
    # i + min(a, b); rows past the end only meet zero factor entries.
    offsets = np.arange(1, width)
    cols = np.abs(offsets[:, None] - offsets)
    rows = np.minimum(np.arange(k)[:, None, None]
                      + np.minimum(offsets[:, None], offsets), k - 1)
    for i in range(k - 1, -1, -1):
        ell = factors[:, i, 1:, None].copy()
        np.matmul(factors[:, rows[i], cols], ell, out=factors[:, i, 1:, None])
        factors[:, i, :1] += np.matmul(factors[:, i, None, 1:], ell)[:, 0]
    return factors


class _FactoredSystem:
    """Gram-side view of an aggregated design, solved block by banded block.

    Holds the bands of ``C`` and ``R`` (:func:`_bands`), the design ``B``
    as its band, the small concentration Gram ``M`` and the right-hand-side
    matrix ``F = P B`` (one row per coefficient block), formed from the
    band.  With ``M = Q diag(d) Q'`` and ``H = Q'F``, the
    coefficients are ``Q Theta``, where row ``j`` of ``Theta`` solves
    ``(d_j C + lam R) theta = h_j``, one LAPACK band factorization and
    solve (``dpbtrf``/``dpbtrs``) of ``O(K p^2)``.  A fit at ``lam > 0``
    costs the eigendecomposition of an ``(m+1)``-square matrix and
    ``m + 1`` such factorizations; GCV over ``L`` lambdas and a block of
    ``n`` folds factor all their ``L (m+1)`` or ``n (m+1)`` blocks as one
    stacked array.  At ``lam = 0`` each block is ``d_j C``, so one
    Cholesky factorization of ``C``, taken on first use and kept
    (:meth:`_gram_cholesky`), serves the fit and every fold; it is the one
    place a basis the grid cannot resolve raises.  Fold downdates replace
    ``M`` and ``F`` only (:meth:`fold_solve`); the bands never change.
    """

    def __init__(self, design: AggregatedDesign, penalty: np.ndarray | None = None):
        # Only the design's arrays are kept: the design caches this system
        # (see _factored), and a reference back would make a cycle.
        self.b = design.b
        self.w = design.spectra.absorbance
        self.penalty = penalty
        self.gram_band, self.penalty_band = _bands(design.b, penalty)
        self.conc_aug = design.conc_aug
        self.M = design.conc_aug.T @ design.conc_aug
        self.P = design.conc_aug[:-1].T @ self.w             # (m+1, T)
        self.F = design.b.left_multiply(self.P)              # (m+1, K)
        self.num_rows = design.num_rows
        self.fold_bytes = _fold_bytes(self.F.size * (self.gram_band.shape[1] + 1),
                                      self.P.size)
        self._full = None
        self._full_rss = None
        self._gram_factor = None
        self._scores = {}

    def _spectrum(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(d, Q, H = Q'F)`` of the full system, computed on first use."""
        if self._full is None:
            evals, q = np.linalg.eigh(self.M)
            if _rank_deficient(evals):
                raise SingularDesignError(_RANK_DEFICIENT)
            self._full = evals, q, q.T @ self.F
        return self._full

    def fold_solve(self, folds: range, lam: float
                   ) -> tuple[np.ndarray, SingularDesignError | None]:
        """Coefficients (n, m+1, K) of the leave-one-out ``folds`` up to the
        first that fails, and that fold's error (None if none fails).

        Fold ``i`` has ``M_i = M - a_i a_i'`` and ``F_i = F - a_i (w_i B)``,
        ``a_i`` its augmented concentration row: one banded product gives
        every ``w_i B`` of the block, one stacked ``eigh`` every ``M_i``, and
        one band solve (:meth:`_blocks`) every fold's blocks.
        """
        rows = slice(folds.start, folds.stop)
        a = self.conc_aug[rows]
        evals, q = np.linalg.eigh(self.M - a[:, :, None] * a[:, None, :])
        f = self.F - a[:, :, None] * self.b.left_multiply(self.w[rows])[:, None, :]
        failed = _rank_deficient(evals)
        count = int(failed.argmax()) if failed.any() else len(a)
        error = SingularDesignError(_RANK_DEFICIENT) if count < len(a) else None
        h = np.swapaxes(q[:count], 1, 2) @ f[:count]
        while count:
            try:
                return q[:count] @ self._blocks(evals[:count], h[:count], lam), error
            except SingularDesignError as exc:
                # The folds before the first failing block's (none when C's
                # factor fails, at lam = 0) solve as they would alone.
                count, error = getattr(exc, "system", 0) // evals.shape[1], exc
        return np.empty((0,) + self.F.shape), error

    def _factor(self, evals: np.ndarray, lams: np.ndarray) -> np.ndarray:
        """Banded Cholesky factors of ``d_j C + lam R``, (L, m+1, K, p+1).

        Each block's band ends in zeros, so the stack is the band of one
        block-diagonal matrix: one LAPACK call factors it in place, the
        transposed stack being the Fortran-ordered band LAPACK expects, and
        each block comes out as it would alone.  A failure names the first
        block that is not positive definite (``error.system``).
        """
        factors = np.empty((lams.size, evals.size) + self.gram_band.shape)
        np.multiply(lams[:, None, None, None], self.penalty_band, out=factors)
        factors += evals[:, None, None] * self.gram_band
        band = factors.reshape(-1, self.gram_band.shape[1]).T
        info = sla.lapack.dpbtrf(band, lower=1, overwrite_ab=1)[1]
        if info:
            raise failing((info - 1) // self.gram_band.shape[0],
                          SingularDesignError(_SINGULAR_BASIS))
        return factors

    def _gram_cholesky(self) -> np.ndarray:
        """Band Cholesky factor of ``C``, computed on first use.

        ``C`` is singular, and the grid cannot resolve the basis, when the
        factorization fails or a squared pivot is at most ``1e-12`` of its
        diagonal entry: that basis function is, to rounding, a combination
        of the ones before it on the grid.
        """
        if self._gram_factor is None:
            factor = self.gram_band.copy()
            failed = sla.lapack.dpbtrf(factor.T, lower=1, overwrite_ab=1)[1]
            if failed or np.any(factor[:, 0] ** 2 <= 1e-12 * self.gram_band[:, 0]):
                raise SingularDesignError(_SINGULAR_BASIS)
            self._gram_factor = factor
        return self._gram_factor

    def _blocks(self, evals: np.ndarray, h: np.ndarray, lam: float,
                factors: np.ndarray | None = None) -> np.ndarray:
        """``Theta``: entry ``j`` (of one system's ``(m+1,)`` or a block of
        folds' ``(n, m+1)`` eigenvalues) solves ``(d_j C + lam R) theta =
        h_j``; ``factors`` are the blocks' band Cholesky factors when known.
        One ``dpbtrs`` serves every block: at ``lam = 0`` on ``C``'s factor
        with one right-hand side per block, otherwise on the stacked band."""
        if lam == 0.0 or self.penalty is None:
            rhs = h.reshape(-1, h.shape[-1])
            theta = sla.lapack.dpbtrs(self._gram_cholesky().T, rhs.T, lower=1)[0]
            return theta.T.reshape(h.shape) / evals[..., None]
        if factors is None:
            factors = self._factor(evals.ravel(), np.array([lam]))[0]
        band = factors.reshape(-1, factors.shape[-1]).T
        return sla.lapack.dpbtrs(band, h.ravel(), lower=1)[0].reshape(h.shape)

    def solve(self, lam: float = 0.0) -> np.ndarray:
        """Coefficients ``Q Theta`` minimizing the (penalized) stacked
        objective."""
        evals, q, h = self._spectrum()
        return q @ self._blocks(evals, h, lam)

    def gcv(self, lams) -> list[tuple[float, float, float | None]]:
        """``(RSS, hat trace, GCV score)`` at each of ``lams`` (one 0, or all
        positive).  The score ``n RSS / (n - trace)^2`` is None once the
        trace is within ``1e-10 n`` of ``n``, where rounding in the trace
        would decide it.  Results are kept per lambda, so the fit at a
        lambda the grid has scored reuses the grid's numbers.
        """
        lams = np.atleast_1d(np.asarray(lams, dtype=float)).tolist()
        new = [lam for lam in dict.fromkeys(lams) if lam not in self._scores]
        if new:
            self._scores.update(zip(new, self._score(np.array(new))))
        return [self._scores[lam] for lam in lams]

    def _score(self, lams: np.ndarray) -> list[tuple[float, float, float | None]]:
        """:meth:`gcv` at each of ``lams``, computed.

        The hat trace is ``sum_j d_j <(d_j C + lam R)^-1, C>``, read off the
        band of each block's inverse (:func:`_selected_inverse`), and
        exactly ``(m+1) K`` at ``lam = 0``.  For the RSS, ``A Q`` (``A`` the
        augmented concentration rows) is ``U diag(sqrt d)`` with orthonormal
        ``U``, so the residual splits into the part of the data no
        coefficient reaches, ``(I - UU') W``, taken once, plus row ``j`` of
        ``U'W - diag(sqrt d) Theta B'``, a curve per block; both are summed
        as squares, with no cancellation.  Each ``lam`` is computed
        independently of the others, so a grid and a single value give the
        same bits.
        """
        evals, q, h = self._spectrum()
        if self._full_rss is None:
            proj = (q.T @ self.P) / np.sqrt(evals)[:, None]   # U'W
            resid = self.conc_aug @ (q @ (proj / np.sqrt(evals)[:, None]))
            resid[:-1] -= self.w
            self._full_rss = proj, float(np.sum(resid ** 2))
            del resid
        proj, unreached = self._full_rss
        if lams.size == 1 and lams[0] == 0.0:
            factors, traces = None, np.array([float(evals.size * self.b.num_basis)])
        else:
            factors = self._factor(evals, lams)
        rss = []
        for index, lam in enumerate(lams):
            theta = self._blocks(evals, h, lam,
                                 None if factors is None else factors[index])
            rest = proj - np.sqrt(evals)[:, None] * self.b.evaluate(theta)
            rss.append(unreached + float(np.sum(rest ** 2)))
        if factors is not None:
            # <Z, C> over the band: each off-diagonal entry stands for two.
            weights = self.gram_band.copy()
            weights[:, 1:] *= 2.0
            inverse = _selected_inverse(factors.reshape((-1,) + weights.shape))
            inverse *= weights
            traces = (inverse.sum(axis=(1, 2)).reshape(lams.size, -1)
                      * evals).sum(axis=-1)
        n = self.num_rows
        out = []
        for value, trace in zip(rss, traces.tolist()):
            valid = n - trace > 1e-10 * n
            out.append((value, trace, n * value / (n - trace) ** 2 if valid else None))
        return out


def _factored(design: AggregatedDesign, band: np.ndarray | None,
              lams: float | np.ndarray = 0.0) -> _FactoredSystem:
    """The design's factored system for the penalty ``band``, built once
    per pair, after the solver's one check: ``lams``, the lambda to use
    (finite, >= 0) or a grid array (finite, > 0), and the band's row count.

    The design keeps the latest system, so a GCV search followed by the
    fit or the leave-one-out folds at the chosen lambda takes the bands
    (and, at ``lam = 0``, the Cholesky factor of ``C``) once.  A
    PenaltyMatrix band is a read-only copy: the same array, the same penalty.
    """
    lams = np.asarray(lams, dtype=float)
    if lams.ndim == 0 and not 0.0 <= lams < np.inf:
        raise InvalidParameterError(
            f"smoothing parameter must be finite and >= 0, got {lams}")
    if lams.ndim > 0 and not np.all((lams > 0.0) & (lams < np.inf)):
        raise InvalidParameterError("lambda grid entries must be finite and positive")
    if band is not None and band.shape[0] != design.num_basis:
        raise ShapeError("penalty dimension does not match basis dimension")
    system = design.__dict__.get("_factored")
    if system is None or system.penalty is not band:
        system = _FactoredSystem(design, band)
        object.__setattr__(design, "_factored", system)
    return system


def _diagnostics(coef: np.ndarray, b: BasisDesign, rss: float, trace: float,
                 gcv: float | None = None) -> FitDiagnostics:
    constraint_curve = b.evaluate(coef[1:].sum(axis=0))
    return FitDiagnostics(
        rss=rss,
        hat_trace=trace,
        constraint_max_abs=float(np.max(np.abs(constraint_curve))),
        gcv=gcv,
    )


def _model(design: AggregatedDesign, coef: np.ndarray, method: str, lam: float,
           diagnostics: FitDiagnostics | None) -> CalibrationModel:
    """The fitted model, labelled with the design's analytes and closure."""
    return CalibrationModel(
        basis=design.basis, coefficients=coef, method=method, lam=float(lam),
        analytes=design.concentrations.analyte_names(), diagnostics=diagnostics,
        closed_total=design.closed_total,
    )


def _factored_fit(design: AggregatedDesign, band: np.ndarray | None, lam: float,
                  method: str, diagnostics: bool) -> CalibrationModel:
    """The fit at ``lam`` with penalty ``band`` (None: none), and its GCV
    numbers as diagnostics."""
    system = _factored(design, band, lam)
    coef = system.solve(lam=lam)
    diag = _diagnostics(coef, design.b, *system.gcv(lam)[0]) if diagnostics else None
    return _model(design, coef, method, lam, diag)


def fit_ols(design: AggregatedDesign, diagnostics: bool = True) -> CalibrationModel:
    """Ordinary least squares on the augmented system (correlation ignored)."""
    return _factored_fit(design, None, 0.0, "OLS-K", diagnostics)


def fit_penalized(design: AggregatedDesign, penalty: PenaltyMatrix, lam: float,
                  diagnostics: bool = True) -> CalibrationModel:
    """Penalized least squares with curvature penalty on every curve.

    All coefficient blocks, the baseline included, are penalized alike.
    ``lam = 0`` reduces to :func:`fit_ols` when the design has full rank.
    """
    return _factored_fit(design, penalty.band, lam, "OLS-SS", diagnostics)


def gcv_score(design: AggregatedDesign, penalty: PenaltyMatrix, lam: float) -> float:
    """Generalized cross-validation score ``n RSS / (n - tr H)^2``."""
    system = _factored(design, penalty.band, lam)
    _, trace, score = system.gcv(lam)[0]
    if score is None:
        raise DegenerateGcvError(
            f"smoother trace {trace:.3f} reaches the number of rows "
            f"{system.num_rows}"
        )
    return float(score)


def select_lambda(design: AggregatedDesign, penalty: PenaltyMatrix,
                  lam_grid: np.ndarray | None = None) -> float:
    """Grid minimizer of the GCV score; ties go to the smoother fit."""
    # A scalar is a one-entry grid.
    grid = DEFAULT_LAMBDA_GRID if lam_grid is None else np.atleast_1d(
        np.asarray(lam_grid, float))
    if grid.size == 0:
        raise InvalidParameterError("lambda grid is empty")
    grid = np.sort(grid)
    system = _factored(design, penalty.band, grid)
    best_lam, best_score = None, np.inf
    for lam, (_, _, score) in zip(grid, system.gcv(grid)):
        if score is not None and score <= best_score:
            best_lam, best_score = float(lam), score
    if best_lam is None:
        raise DegenerateGcvError("no grid point produced a valid GCV score")
    return best_lam


def loo_coefficients(design: AggregatedDesign, penalty: PenaltyMatrix | None = None,
                     lam: float = 0.0) -> Iterator[tuple[int, np.ndarray]]:
    """Leave-one-out coefficient refits via Gram downdates, in blocks.

    Yields ``(start, coefficients)``: the (n, m+1, K) coefficients of folds
    ``start .. start + n - 1``, each matching a refit on the dataset with
    that sample removed (:func:`_leave_one_out`).  A fold whose refit
    fails ends the pass with its error once the folds before it are out.
    """
    system = _factored(design, None if penalty is None else penalty.band, lam)
    yield from _leave_one_out(design.num_samples, system.fold_bytes,
                              lambda folds: system.fold_solve(folds, lam))


def empirical_covariogram(residuals: np.ndarray, grid: np.ndarray
                          ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-sample average residual products, binned by site distance.

    Pair ``(n, n')`` falls in bin ``rint(|t_n - t_n'| / h)``, ``h`` the median
    spacing (Cressie 1993, section 2.4).  Bins past ``rint(span / h) // 2``,
    half the span's, are dropped: the half-span cut of :func:`fit_covariance`.
    Returns each occupied bin's mean pair distance, each sample's average
    product over its pairs and its ordered-pair count.  Grid offsets ``k``
    are walked in blocks: one whose pairs ``(n, n+k)`` share a bin, as all do
    on a uniform grid, adds its ``np.correlate`` lagged sum; any other splits
    its products over their bins with one ``bincount``.
    """
    residuals = np.atleast_2d(np.asarray(residuals, dtype=float))
    grid = np.asarray(grid, dtype=float)
    if residuals.shape[1] != grid.size:
        raise ShapeError("residual columns must match the grid length")
    gaps = np.sort(np.diff(grid))
    if not np.all(gaps > 0):
        raise ShapeError("grid must be strictly increasing")
    num, t = residuals.shape
    h = 0.5 * (gaps[(t - 2) // 2] + gaps[(t - 1) // 2]) if t > 1 else 1.0  # median
    last = np.rint((grid[-1] - grid[0]) / h) // 2
    padded = np.concatenate([grid, np.full(t, np.nan)])  # sites[k, n]: t[n+k] or nan
    sites = np.lib.stride_tricks.as_strided(padded, (t, t), 2 * padded.strides)
    block = max(1, (1 << 15) // t)              # offsets a block: 256 KiB arrays
    whole, split, found = [], [], []
    for start in range(0, t, block):
        dist = sites[start:start + block] - grid
        low = np.rint(np.fmin.reduce(dist, axis=1) / h)
        shared = (low == np.rint(np.fmax.reduce(dist, axis=1) / h)) & (low <= last)
        whole.append((start + np.flatnonzero(shared), low[shared],
                      dist.sum(axis=1, where=np.isfinite(dist))[shared]))
        if (parted := (low <= last) & ~shared).any():
            split.extend(start + np.flatnonzero(parted))
            bins = np.rint(dist[parted] / h)
            found.append(np.unique(bins[bins <= last]))
        if low[-1] > last:              # distances grow with the offset
            break
    offsets, lows, spreads = map(np.concatenate, zip(*whole))
    labels = np.unique(np.concatenate([lows, *found]))
    if labels.size < 2:
        raise InvalidParameterError("no nonzero lag bin within half the grid's span")
    rows = labels.size * np.arange(num + 2)[:, None]

    def binned(bins, weight, *values):  # weighted rows: pairs, distance, products
        return np.bincount((rows + np.searchsorted(labels, bins)).ravel(),
                           (weight * np.vstack(values)).ravel(),
                           rows.size * labels.size).reshape(num + 2, -1)

    lagged = np.array([np.correlate(r, r, "full")[t - 1:] for r in residuals])
    stats = binned(lows, np.where(offsets == 0, 1.0, 2.0), t - offsets, spreads,
                   lagged[:, offsets])
    for k in split:
        bins = np.rint((grid[k:] - grid[:t - k]) / h)
        n = np.flatnonzero(bins <= last)
        stats += binned(bins[n], 2.0, np.ones(n.size), grid[n + k] - grid[n],
                        residuals[:, n] * residuals[:, n + k])
    return stats[1] / stats[0], stats[2:] / stats[0], stats[0]


def fit_covariance(residuals: np.ndarray, concentrations,
                   grid: np.ndarray) -> CovarianceModel:
    """Least squares fit of the exponential covariance to lag covariances.

    Sample ``i``'s covariogram at lag ``l`` is modelled as
    ``sum_k y_ik^2 sigma2_k exp(-phi_k l)``.  The covariogram stops at half
    the span (:func:`empirical_covariogram` makes that cut) and its lags are
    weighted by the square root of their pair count: long-lag values average
    few pairs and would otherwise dominate the fit with noise.

    The decay rates are searched on ``PHI_GRID``, 50 log-spaced values
    from 1e-4 to 10 (one shared value first, then one cyclic per-analyte
    refinement sweep; a candidate replaces the best only when strictly
    better).  At every candidate the
    variance scales solve a nonnegative least-squares problem.  Its stacked
    design has one block of rows per sample, ``y_i^2`` times the weighted
    decays, so with the thin QR ``Y^2 = Q R0`` (taken once) the problem
    reduces to ``min(I, m)`` blocks, ``R0`` rows times the decays, against
    ``Q'`` times the weighted covariogram.  The residual norm of the full
    problem is ``sqrt(rnorm^2 + c)``, where ``c`` is the squared target norm
    that ``Q`` does not see.
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
    lags, covs, counts = empirical_covariogram(residuals, grid)
    weights = np.sqrt(counts)
    target = covs * weights                         # (I, L)
    q, r0 = np.linalg.qr(y ** 2)
    reduced_target = (q.T @ target).ravel()
    unseen = max(float(np.sum(target ** 2) - reduced_target @ reduced_target),
                 0.0)
    decays = np.exp(-np.outer(PHI_GRID, lags)) * weights        # (phis, L)

    def objective(picks: np.ndarray) -> tuple[float, np.ndarray]:
        # Row (j, l), column k of the reduced design: r0[j, k] decays[picks[k], l].
        design = (r0[:, None, :] * decays[picks].T[None, :, :]).reshape(-1, m)
        sigma2, rnorm = nnls(design, reduced_target)
        return float(np.sqrt(rnorm ** 2 + unseen)), sigma2

    best_sse = np.inf
    best_picks = None
    best_sigma2 = None
    for p in range(PHI_GRID.size):
        sse, sigma2 = objective(np.full(m, p))
        if sse < best_sse:
            best_sse, best_picks, best_sigma2 = sse, np.full(m, p), sigma2
    if m > 1:
        for ell in range(m):
            for p in range(PHI_GRID.size):
                candidate = best_picks.copy()
                candidate[ell] = p
                sse, sigma2 = objective(candidate)
                if sse < best_sse:
                    best_sse, best_picks, best_sigma2 = sse, candidate, sigma2
    clipped = bool(np.any(best_sigma2 < 1e-12))
    sigma2 = np.maximum(best_sigma2, 1e-12)
    return CovarianceModel(sigma2=sigma2, phi=PHI_GRID[best_picks], clipped=clipped)


# Sites per block of the whitening pass, whatever the grid length.  A
# longer block makes fewer Gram products but holds 8 I J bytes more a site.
_BLOCK_SITES = 8


def _whitened_blocks(columns, grid: np.ndarray, y: np.ndarray,
                     cov: CovarianceModel, noise: float = 0.0,
                     basis: BasisDesign | None = None
                     ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """``L_i^-1`` times sample ``i``'s columns, a block of sites at a time.

    ``L_i`` is the Cholesky factor of sample ``i``'s noise covariance plus
    ``noise`` on the diagonal, on the increasing ``grid``; its columns are
    the ``basis`` design's, shared by every sample and filled a block of
    rows at a time from its band (none when None), then the
    ``(T, I or 1, J_p)`` arrays ``columns`` side by side (1: shared).
    State ``k`` has variance ``c = y_ik^2 sigma2_k`` and decays by its
    :meth:`CovarianceModel.steps` ``a`` into site ``n``.  Per site, the state
    covariance ``P`` (m, m, I) goes ``P <- a a' o P + diag(c (1 - a^2))``,
    ``S = 1'P1 + noise``, ``g = P1 / S``, ``P <- P - g (P1)'``, and each
    column's filter states move by ``g`` times its innovation, which over
    ``sqrt(S)`` is the whitened column: the Cholesky factorization in grid
    order, at ``O(T m^2)`` per column.  Yields the whitened columns (n, I,
    J) of up to ``_BLOCK_SITES`` sites, a view the next block overwrites,
    and per sample whether every ``S`` among them is finite and positive.
    """
    num, m = y.shape
    variances = ((y * y) * cov.sigma2).T                         # (m, I)
    # The grid's own constants, (T, m) and (T, m, m): no sample axis.
    decay, kept = cov.steps(grid)
    steps = (decay[:, :, None] * decay[:, None, :])[..., None]      # (T, m, m, 1)
    decay = decay[:, :, None, None]
    lead = 0 if basis is None else basis.num_basis
    buffer = np.empty((_BLOCK_SITES, num, lead + sum(c.shape[2] for c in columns)))
    scale_buffer = np.empty((_BLOCK_SITES, num))
    # Samples run along the last axis of P, so the sums over states add
    # whole rows; the filters hold the (m, I, J) predicted states.
    state = np.zeros((m, m, num))
    diagonal = state.reshape(m * m, num)[::m + 1]
    filters = np.zeros((m,) + buffer.shape[1:])
    for start in range(0, len(kept), _BLOCK_SITES):
        stop = min(start + _BLOCK_SITES, len(kept))
        block, scales = buffer[:stop - start], scale_buffer[:stop - start]
        if basis is not None:
            block[:, :, :lead] = basis.rows(start, stop)[:, None, :]
        np.concatenate([np.broadcast_to(c[start:stop], block.shape[:2] + c.shape[2:])
                        for c in columns], axis=2, out=block[:, :, lead:])
        fresh = kept[start:stop, :, None] * variances               # (n, m, I)
        with np.errstate(divide="ignore", invalid="ignore"):
            for n, site in enumerate(range(start, stop)):
                state *= steps[site]
                diagonal += fresh[n]
                p1 = state.sum(axis=1)
                s = p1.sum(axis=0, out=scales[n])
                if noise:
                    s += noise
                g = p1 / s
                state -= g[:, None, :] * p1[None, :, :]
                filters *= decay[site]
                np.subtract(block[n], filters.sum(axis=0), out=block[n])
                filters += g[:, :, None] * block[n]
            block /= np.sqrt(scales)[:, :, None]
            ok = np.all(np.isfinite(scales) & (scales > 0), axis=0)
        yield block, ok


def _whitened_grams(columns, grid: np.ndarray, y: np.ndarray,
                    cov: CovarianceModel, noise: float | None = None,
                    basis: BasisDesign | None = None) -> np.ndarray:
    """Each sample's Gram (I, J, J) of its :func:`_whitened_blocks` columns.

    The samples whose ``S`` fails (a blank sample's covariance is zero) are
    whitened again, by themselves, with ``noise = 1e-8 mean(sigma2)``, and
    their Grams replaced; if that fails too, ``CovarianceConditioningError``.
    """
    lead = 0 if basis is None else basis.num_basis
    grams = np.zeros((len(y),) + (lead + sum(c.shape[2] for c in columns),) * 2)
    product = np.empty_like(grams)
    ok = np.ones(len(y), dtype=bool)
    # A failed sample's columns are not finite; its Grams are replaced.
    with np.errstate(invalid="ignore", over="ignore"):
        for block, fine in _whitened_blocks(columns, grid, y, cov, noise or 0.0,
                                            basis):
            ok &= fine
            np.matmul(block.transpose(1, 2, 0), block.transpose(1, 0, 2), out=product)
            grams += product
    if not np.all(ok):
        if noise is not None:
            raise CovarianceConditioningError(
                "per-sample covariance block is not positive definite even "
                "after diagonal jitter"
            )
        own = [c if c.shape[1] == 1 else c[:, ~ok] for c in columns]
        grams[~ok] = _whitened_grams(own, grid, y[~ok], cov,
                                     1e-8 * float(np.mean(cov.sigma2)), basis)
    return grams


class _WhitenedSystem:
    """Whitened GLS normal equations of a design, kept per sample and in total.

    :func:`_whitened_grams` whitens each sample's basis columns, filled
    from the design's band, and its spectrum; only their Grams are kept:
    each sample's K-by-K ``G_i`` and K-vector ``h_i``, the totals
    ``sum_i (r_i r_i') kron G_i`` and ``sum_i r_i kron h_i`` (``r_i = (1,
    y_i)``, the design's concentration rows) and, for closed rows, the Gram
    of the design's constraint row (``C = B'B`` from its band, scaled to
    the trace of the data's) added to the total.  A fold subtracts its
    sample's term (:meth:`fold_solve`).
    """

    def __init__(self, design: AggregatedDesign, cov: CovarianceModel):
        if design.concentrations.num_analytes != cov.num_analytes:
            raise ShapeError("covariance model analyte count does not match Y")
        b, spectra = design.b, design.spectra
        rows = design.conc_aug[:-1]
        k = design.num_basis
        full = _whitened_grams((spectra.absorbance.T[:, :, None],), spectra.grid,
                               design.concentrations.values, cov,
                               basis=b)                      # (I, K+1, K+1)
        self.grams = full[:, :k, :k]
        self.rhs_parts = full[:, :k, k]
        size = rows.shape[1] * k
        self.gram = np.einsum("ia,ib,ikl->akbl", rows, rows, self.grams,
                              optimize=True).reshape(size, size)
        self.rhs = (rows.T @ self.rhs_parts).ravel()
        if design.closed_total is not None:
            e = design.conc_aug[-1]
            constraint = np.kron(np.outer(e, e), _symmetric(b.gram_band(b.width)))
            # Weighted to the whitened Gram, which scales as the inverse
            # square of the absorbance unit, so that the unit leaves the
            # rounding alone; any weight gives the same exact solution.
            self.gram = self.gram + (np.trace(self.gram)
                                     / np.trace(constraint)) * constraint
        self.b = b
        self.rows = rows
        self.num_basis = k
        self.fold_bytes = _fold_bytes(size * size, rows.shape[1] * b.num_sites)

    def solve(self, gram: np.ndarray | None = None,
              rhs: np.ndarray | None = None) -> np.ndarray:
        """Coefficients (m+1, K) of ``gram beta = rhs`` (by default the full
        system) by Cholesky, ``gram`` left as it is.  It is singular when
        that fails or its smallest eigenvalue, taken as ``1 / ||G^-1||_1``
        (``dpocon``), is at most ``1e-12 max(||G||_1, 1)``."""
        gram = self.gram if gram is None else gram
        rhs = self.rhs if rhs is None else rhs
        factor, info = sla.lapack.dpotrf(gram, lower=1, clean=0)
        norm = np.abs(gram).sum(axis=0).max()
        if info or (sla.lapack.dpocon(factor, norm, uplo="L")[0] * norm
                    <= 1e-12 * max(norm, 1.0)):
            raise SingularDesignError(_SINGULAR_WHITENED)
        beta = sla.lapack.dpotrs(factor, rhs, lower=1)[0]
        return beta.reshape(-1, self.num_basis)

    def fold_solve(self, folds: range
                   ) -> tuple[np.ndarray, SingularDesignError | None]:
        """Coefficients (n, m+1, K) of the leave-one-out ``folds`` up to the
        first that fails, and that fold's error (None if none fails).

        Fold ``i``'s Gram is ``gram - (r_i r_i') kron G_i``, built for the
        block at once; each fold is then solved by :meth:`solve`.
        """
        rows = slice(folds.start, folds.stop)
        r, n, size = self.rows[rows], len(folds), self.gram.shape[0]
        grams = ((r[:, :, None] * r[:, None, :])[:, :, None, :, None]
                 * self.grams[rows, None, :, None, :]).reshape(n, size, size)
        np.subtract(self.gram, grams, out=grams)
        rhs = self.rhs - (r[:, :, None] * self.rhs_parts[rows, None, :]).reshape(n, size)
        coef = np.empty((n, self.rows.shape[1], self.num_basis))
        for j in range(n):
            try:
                coef[j] = self.solve(grams[j], rhs[j])
            except SingularDesignError as exc:
                return coef[:j], exc
        return coef, None


def fit_gls(design: AggregatedDesign, cov: CovarianceModel,
            diagnostics: bool = True) -> CalibrationModel:
    """Generalized least squares with per-sample covariance blocks.

    The sum-to-zero block, with identity noise weight, is appended exactly
    when the design's rows are closed (``design.closed_total``); open rows
    get the plain estimator.
    """
    system = _WhitenedSystem(design, cov)
    coef = system.solve()
    diag = None
    if diagnostics:
        fitted = system.rows @ system.b.evaluate(coef)
        rss = float(np.sum((design.spectra.absorbance - fitted) ** 2))
        diag = _diagnostics(coef, system.b, rss, float(coef.size))
    return _model(design, coef, "GLS-K", 0.0, diag)


def gls_loo_coefficients(design: AggregatedDesign, cov: CovarianceModel
                         ) -> Iterator[tuple[int, np.ndarray]]:
    """Leave-one-out GLS refits sharing the per-sample whitened blocks.

    Yields ``(start, coefficients)`` blocks as :func:`loo_coefficients`
    does, each fold downdated from the one whitened system.
    """
    system = _WhitenedSystem(design, cov)
    yield from _leave_one_out(design.num_samples, system.fold_bytes,
                              system.fold_solve)
