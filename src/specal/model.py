"""Aggregated absorbance model: data containers and design assembly.

A measured spectrum is modelled as a baseline curve plus a concentration-
weighted sum of per-analyte curves, every curve expanded in a shared
B-spline basis.  The least-squares system stacks all samples (sample-major,
wavelength-minor) and appends one block of zero-response rows that, for
closed concentration rows only, softly push the analyte curves to sum to
zero at every grid site.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .basis import BasisDesign, KnotVector, cached_design_matrix
from .errors import CollinearConcentrationsError, ShapeError


def closure_total(values) -> float | None:
    """The total every concentration row sums to (closed samples), or None.

    The total is the median row sum rounded to 5 significant digits: 1 for
    fractions, 100 for percent, also when the reference values were rounded
    before they were written.  Rows are closed when every sum lies within
    rtol 1e-5 (plus atol 1e-9 of the total) of it, the tolerance a row sum
    of 1 has always been held to.  Rows without analytes are never closed.
    """
    values = np.asarray(values, dtype=float)
    if values.shape[1] == 0:
        return None
    sums = values.sum(axis=1)
    total = float(f"{np.median(sums):.5g}")
    if not np.allclose(sums, total, rtol=1e-5, atol=1e-9 * abs(total)):
        return None
    return total


def _frozen_array(values, dtype=float, ndim=None, name="array") -> np.ndarray:
    """``values`` as a read-only array the caller cannot change.

    A read-only array that owns its data (such as the absorbance
    ``io.load_spectra`` fills) is adopted as is: its maker has handed it
    over, and no view makes it writable.  A writable array, or a view
    whose base may be writable, is copied.
    """
    arr = np.asarray(values, dtype=dtype)
    if ndim is not None and arr.ndim != ndim:
        raise ShapeError(f"{name} must be {ndim}-dimensional, got shape {arr.shape}")
    if arr.flags.writeable or arr.base is not None:
        arr = arr.copy()
        arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class SpectraSet:
    """Wavelength grid plus one absorbance curve per sample."""

    grid: np.ndarray
    absorbance: np.ndarray
    sample_ids: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        grid = _frozen_array(self.grid, ndim=1, name="grid")
        absorbance = _frozen_array(self.absorbance, ndim=2, name="absorbance")
        if grid.size < 2:
            raise ShapeError("grid needs at least two wavelengths")
        if np.any(np.diff(grid) <= 0):
            raise ShapeError("grid must be strictly increasing")
        if absorbance.shape[0] < 1 or absorbance.shape[1] != grid.size:
            raise ShapeError(
                f"absorbance shape {absorbance.shape} does not match grid "
                f"length {grid.size}"
            )
        if not np.all(np.isfinite(absorbance)):
            raise ShapeError("absorbance contains non-finite values")
        if self.sample_ids is not None and len(self.sample_ids) != absorbance.shape[0]:
            raise ShapeError("sample_ids length does not match sample count")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "absorbance", absorbance)

    @property
    def num_samples(self) -> int:
        return self.absorbance.shape[0]

    @property
    def num_wavelengths(self) -> int:
        return self.grid.size


@dataclass(frozen=True)
class ConcentrationMatrix:
    """Known analyte concentrations for the calibration samples."""

    values: np.ndarray
    analytes: tuple[str, ...] | None = None
    sample_ids: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        values = _frozen_array(self.values, ndim=2, name="concentrations")
        if not np.all(np.isfinite(values)):
            raise ShapeError("concentrations contain non-finite values")
        if np.any(values < 0):
            # Negative reference concentrations are physically suspect but
            # occur in practice (unit quirks): warn the caller of __init__.
            warnings.warn("negative concentration values present", stacklevel=3)
        if self.analytes is not None and len(self.analytes) != values.shape[1]:
            raise ShapeError("analyte label count does not match column count")
        if self.sample_ids is not None and len(self.sample_ids) != values.shape[0]:
            raise ShapeError("sample_ids length does not match row count")
        object.__setattr__(self, "values", values)

    @property
    def num_samples(self) -> int:
        return self.values.shape[0]

    @property
    def num_analytes(self) -> int:
        return self.values.shape[1]

    def analyte_names(self) -> tuple[str, ...]:
        if self.analytes is not None:
            return self.analytes
        return tuple(f"analyte_{j + 1}" for j in range(self.num_analytes))


@dataclass(frozen=True)
class CalibrationModel:
    """Fitted coefficient matrix: row 0 is the baseline, rows 1..m analytes.

    ``closed_total`` records the total every calibration concentration row
    summed to (None for open rows); predictions from such a model need the
    matching sum closure because the fitted analyte curves sum to (near)
    zero.
    """

    basis: KnotVector
    coefficients: np.ndarray
    method: str
    lam: float = 0.0
    analytes: tuple[str, ...] = ()
    diagnostics: "FitDiagnostics | None" = None
    closed_total: float | None = None

    def __post_init__(self) -> None:
        coef = _frozen_array(self.coefficients, ndim=2, name="coefficients")
        if not np.all(np.isfinite(coef)):
            raise ShapeError("coefficients contain non-finite values")
        if coef.shape[1] != self.basis.num_basis:
            raise ShapeError(
                f"coefficient columns ({coef.shape[1]}) do not match basis "
                f"dimension ({self.basis.num_basis})"
            )
        if not 0 <= self.lam < np.inf:
            raise ShapeError("smoothing parameter must be finite and nonnegative")
        object.__setattr__(self, "coefficients", coef)
        if not self.analytes:
            object.__setattr__(
                self,
                "analytes",
                tuple(f"analyte_{j + 1}" for j in range(coef.shape[0] - 1)),
            )

    @property
    def num_analytes(self) -> int:
        return self.coefficients.shape[0] - 1

    @property
    def closed_calibration(self) -> bool:
        return self.closed_total is not None

    def curve_values(self, grid: np.ndarray) -> np.ndarray:
        """(m+1, T) matrix of baseline and analyte curves on ``grid``."""
        return cached_design_matrix(self.basis, grid).evaluate(self.coefficients)


@dataclass(frozen=True)
class AggregatedDesign:
    """Stacked least-squares system for all calibration samples.

    ``conc_aug`` holds the intercept-plus-concentration rows with the
    appended constraint row, so the full design is its Kronecker product
    with the basis design ``b``, held as its band (:class:`BasisDesign`).
    Neither that product nor a dense ``b`` is formed: fitting code works on
    the factored pair.  ``closed_total`` is the row total
    the constraint row was built for (None for open rows), the closure
    every fit of the design records.
    """

    b: BasisDesign
    conc_aug: np.ndarray
    spectra: SpectraSet
    concentrations: ConcentrationMatrix
    basis: KnotVector
    closed_total: float | None = None

    @property
    def num_samples(self) -> int:
        return self.spectra.num_samples

    @property
    def num_basis(self) -> int:
        return self.b.num_basis

    @property
    def num_rows(self) -> int:
        return (self.num_samples + 1) * self.spectra.num_wavelengths


def assemble_design(spectra: SpectraSet, concentrations: ConcentrationMatrix,
                    kv: KnotVector) -> AggregatedDesign:
    """Build the augmented system from spectra, concentrations and a basis.

    The constraint block enters only through the last augmented
    concentration row: ones on the analyte columns when the rows are closed
    (:func:`closure_total`), where the intercept-plus-Y rows are collinear
    and only that row pins the decomposition; zeros otherwise.
    Identifiability is checked on the augmented rows.
    """
    if spectra.num_samples != concentrations.num_samples:
        raise ShapeError(
            f"{spectra.num_samples} spectra but "
            f"{concentrations.num_samples} concentration rows"
        )
    y = concentrations.values
    m = concentrations.num_analytes
    b = cached_design_matrix(kv, spectra.grid)
    if np.linalg.matrix_rank(y) < m:
        raise CollinearConcentrationsError(
            f"analyte concentration columns are linearly dependent "
            f"(rank {np.linalg.matrix_rank(y)} < {m})"
        )
    total = closure_total(y)
    conc_aug = np.zeros((spectra.num_samples + 1, m + 1))
    conc_aug[:-1, 0] = 1.0
    conc_aug[:-1, 1:] = y
    conc_aug[-1, 1:] = float(total is not None)
    if np.linalg.matrix_rank(conc_aug) < m + 1:
        raise CollinearConcentrationsError(
            "concentration rows (with the constraint row) do not have full "
            f"rank {m + 1}"
        )
    conc_aug.flags.writeable = False
    return AggregatedDesign(
        b=b,
        conc_aug=conc_aug,
        spectra=spectra,
        concentrations=concentrations,
        basis=kv,
        closed_total=total,
    )

