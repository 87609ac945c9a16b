"""Dense reference forms that tests compare the factored solvers against.

The program never builds these: the stacked Kronecker system, a sample's
full wavelength-by-wavelength noise covariance and its Cholesky factor,
dense tables of basis values and derivatives, and leave-one-out fits
rebuilt from scratch
are what the banded, recursive and downdating paths exist to avoid.
``by_fold`` unpacks a leave-one-out pass's blocks for comparison with them.
"""

import numpy as np
import scipy.linalg as sla

from specal.basis import _inverse_widths, _nonzero_triangle, _padded, _span_indices
from specal.calibrate import CovarianceModel
from specal.errors import DomainError, ShapeError
from specal.model import ConcentrationMatrix, SpectraSet


def dense_system(design):
    """The stacked system ``(X+, w+)`` of an aggregated design.

    ``X+`` is the Kronecker product of the augmented concentration rows
    with the basis design; ``w+`` stacks the spectra sample-major,
    wavelength-minor, followed by one zero per grid site for the
    constraint block.
    """
    x_plus = np.kron(design.conc_aug, design.b.dense())
    w_plus = np.concatenate([design.spectra.absorbance.ravel(order="C"),
                             np.zeros(design.spectra.num_wavelengths)])
    return x_plus, w_plus


def dense_covariance(cov, grid, y_row):
    """Noise covariance of one sample with concentrations ``y_row``."""
    grid = np.asarray(grid, dtype=float)
    y_row = np.asarray(y_row, dtype=float).ravel()
    if y_row.size != cov.num_analytes:
        raise ShapeError("concentration row length does not match analytes")
    dist = np.abs(grid[:, None] - grid[None, :])
    out = np.zeros_like(dist)
    for s2, ph, y in zip(cov.sigma2, cov.phi, y_row):
        out += (y * y) * s2 * np.exp(-ph * dist)
    return out


def dense_factor(grid, sigma2, phi):
    """Dense lower Cholesky factor of ``sigma2 exp(-phi |t - t'|)`` on ``grid``."""
    cov = CovarianceModel(sigma2=[sigma2], phi=[phi])
    return sla.cholesky(dense_covariance(cov, grid, [1.0]), lower=True)


def basis_values(knots, order, x, deriv=0):
    """Dense (len(x), num_basis) table of basis (derivative) values.

    Each site's nonzero values are scattered into a padded dense table,
    then differenced ``deriv`` times by the knot-difference formula.
    """
    knots_p, pad = _padded(knots, order)
    span = _span_indices(knots_p, x)
    base_order = order - deriv
    triangle = _nonzero_triangle(knots_p, base_order, span, x)
    dense = np.zeros((x.size, knots_p.size - base_order))
    cols = span[:, None] - base_order + 1 + np.arange(base_order)[None, :]
    np.put_along_axis(dense, cols, triangle, axis=1)
    for q in range(base_order, order):
        scaled = dense * _inverse_widths(knots_p, q)[None, :]
        dense = q * (scaled[:, :-1] - scaled[:, 1:])
    return dense[:, pad:pad + (knots.size - order)]


def derivative_matrix(kv, grid, deriv=2):
    """(len(grid), K) table of basis derivative values of order ``deriv``."""
    grid = np.asarray(grid, dtype=float)
    a, b = kv.domain
    if grid.size == 0 or np.min(grid) < a or np.max(grid) > b:
        raise DomainError("derivative grid outside basis domain")
    return basis_values(kv.knots, kv.order, grid, deriv=deriv)


def naive_jackknife_fits(strategy, spectra, conc):
    """``(i, fit)`` for each sample ``i`` in index order: the strategy's
    fit rebuilt from scratch on the data without sample ``i``."""
    for i in range(spectra.num_samples):
        keep = np.arange(spectra.num_samples) != i
        yield i, strategy.fit(
            SpectraSet(grid=spectra.grid, absorbance=spectra.absorbance[keep]),
            ConcentrationMatrix(values=conc.values[keep], analytes=conc.analytes),
        )


def by_fold(blocks):
    """``{i: coefficients}`` from the ``(start, coefficients)`` blocks of a
    leave-one-out pass."""
    return {start + j: coef for start, block in blocks for j, coef in enumerate(block)}
