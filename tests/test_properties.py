"""Invariances of the functional estimators under relabelling and units.

Reordering the calibration samples changes nothing a functional fit
reports, and measuring the concentrations in other units (``y -> c y``,
with the closure total becoming ``c``) scales every prediction and every
jackknife spread by ``c``.  Measuring the absorbance in other units
(``W -> c W``) scales the fitted curves by ``c`` and leaves predictions
and spreads alone; so does adding one straight line to every spectrum,
which the baseline curve absorbs without curvature.  The CSV loaders
read a table to the same bits, or fail with the same message, whichever
of their two readers takes it.
"""

import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from specal import io
from specal.errors import ParseError
from specal.methods import FitSpec, make_strategy
from specal.model import ConcentrationMatrix, SpectraSet, assemble_design
from specal.predict import jackknife_sd
from specal.simulate import STRONG_PHI, SimConfig, generate_dataset

NUM_SAMPLES = 10
# Every basis-smoothing fit below uses the same coarse grid (T = 41).
CAL = generate_dataset(SimConfig(seed=31, num_samples=NUM_SAMPLES,
                                 grid_step=10.0, phi=STRONG_PHI))
NEW = generate_dataset(SimConfig(seed=32, num_samples=6, grid_step=10.0,
                                 phi=STRONG_PHI))[0]
SPECS = {
    "ols-k": FitSpec(method="ols-k", num_basis=10),
    "gls-k": FitSpec(method="gls-k", num_basis=10),
    "ols-ss": FitSpec(method="ols-ss", lam=10.0),
}
# The absorbance properties also choose lambda by GCV and cover a baseline.
SYMMETRY_SPECS = {**SPECS, "ols-ss": FitSpec(method="ols-ss"),
                  "pls": FitSpec(method="pls")}
# Two-decimal factors keep the closure total exact at 5 significant digits.
SCALES = st.integers(50, 20000).map(lambda n: n / 100)


def predictions_and_spreads(spec, spectra, conc, new=NEW):
    strategy = make_strategy(spec)
    fitted = strategy.fit(spectra, conc)
    return (fitted, strategy.predict_fitted(fitted, new),
            jackknife_sd(spectra, conc, spec))


def transformed(spectra, change):
    return SpectraSet(grid=spectra.grid, absorbance=change(spectra.absorbance))


def reordered(order):
    spectra, conc, _ = CAL
    return (SpectraSet(grid=spectra.grid, absorbance=spectra.absorbance[order]),
            ConcentrationMatrix(values=conc.values[order]))


@pytest.mark.parametrize("method", ["ols-k", "gls-k", "ols-ss"])
@settings(max_examples=20, deadline=None)
@given(order=st.permutations(range(NUM_SAMPLES)))
def test_row_order_does_not_matter(method, order):
    _, want_pred, want_spread = predictions_and_spreads(SPECS[method], *CAL[:2])
    _, pred, spread = predictions_and_spreads(SPECS[method],
                                              *reordered(list(order)))
    npt.assert_allclose(pred, want_pred, rtol=1e-8)
    npt.assert_allclose(spread, want_spread, rtol=1e-8)


@pytest.mark.parametrize("method", ["ols-k", "gls-k"])
@settings(max_examples=20, deadline=None)
@given(c=SCALES)
def test_concentration_units_scale_outputs(method, c):
    spectra, conc, _ = CAL
    scaled = ConcentrationMatrix(values=c * conc.values)
    fitted, want_pred, want_spread = predictions_and_spreads(SPECS[method],
                                                             spectra, conc)
    fitted_c, pred, spread = predictions_and_spreads(SPECS[method], spectra,
                                                     scaled)
    assert fitted.closed_total == 1.0
    assert fitted_c.closed_total == c
    npt.assert_allclose(pred, c * want_pred, rtol=1e-8)
    npt.assert_allclose(spread, c * want_spread, rtol=1e-8)


@settings(max_examples=20, deadline=None)
@given(c=SCALES)
def test_covariance_scales_inversely_with_units(c):
    # The noise model mixes y^2 sigma2, so y -> c y leaves the fitted
    # decay rates alone and divides the variance scales by c^2.
    spectra, conc, _ = CAL
    strategy = make_strategy(SPECS["gls-k"])
    kv = strategy._knots(spectra)
    cov = strategy._pilot_covariance(assemble_design(spectra, conc, kv))
    cov_c = strategy._pilot_covariance(assemble_design(
        spectra, ConcentrationMatrix(values=c * conc.values), kv))
    npt.assert_array_equal(cov_c.phi, cov.phi)
    npt.assert_allclose(cov_c.sigma2, cov.sigma2 / c ** 2, rtol=1e-8)


@pytest.mark.parametrize("method", list(SYMMETRY_SPECS))
@settings(max_examples=5, deadline=None, derandomize=True)
@given(c=st.sampled_from([1e-3, 0.01, 0.37, 10.0, 1e3]))
def test_absorbance_units_scale_only_the_curves(method, c):
    # GLS-K adds the constraint Gram with unit weight while its whitened
    # data Gram scales as 1 / c^2, so its rounding grows as c^2 (3.5e-8
    # relative at c = 1e3); the other methods hold to about 1e-14.
    rtol = 1e-6 if method == "gls-k" else 1e-8
    spectra, conc, _ = CAL
    fitted, want_pred, want_spread = predictions_and_spreads(
        SYMMETRY_SPECS[method], spectra, conc)
    fitted_c, pred, spread = predictions_and_spreads(
        SYMMETRY_SPECS[method], transformed(spectra, lambda w: c * w), conc,
        transformed(NEW, lambda w: c * w))
    npt.assert_allclose(pred, want_pred, rtol=rtol)
    npt.assert_allclose(spread, want_spread, rtol=rtol)
    if method != "pls":
        want = c * fitted.curve_values(spectra.grid)
        npt.assert_allclose(fitted_c.curve_values(spectra.grid), want, rtol=0,
                            atol=rtol * np.abs(want).max())


@pytest.mark.parametrize("method", list(SYMMETRY_SPECS))
@settings(max_examples=4, deadline=None, derandomize=True)
@given(offset=st.integers(-50, 50), slope=st.integers(-50, 50))
def test_added_line_leaves_predictions(method, offset, slope):
    spectra, conc, _ = CAL
    grid = spectra.grid
    line = 0.1 * (offset + slope * (grid - grid[0]) / (grid[-1] - grid[0]))
    _, want_pred, want_spread = predictions_and_spreads(
        SYMMETRY_SPECS[method], spectra, conc)
    _, pred, spread = predictions_and_spreads(
        SYMMETRY_SPECS[method], transformed(spectra, lambda w: w + line), conc,
        transformed(NEW, lambda w: w + line))
    npt.assert_allclose(pred, want_pred, rtol=1e-8)
    npt.assert_allclose(spread, want_spread, rtol=1e-8)


# Table layouts as (header and rows from a value matrix, loader).  The
# first cell of each row is an id, or a wavelength written exactly.
LAYOUTS = {
    "wide": (lambda rows, cols: (["wavelength", *(f"s{j}" for j in range(cols))],
                                 [[str(1000 + i)] for i in range(rows)]),
             lambda path: _spectra_bits(io.load_spectra(path))),
    "transposed": (lambda rows, cols: (["sample", *(str(1000 + j) for j in range(cols))],
                                       [[f"p{i}"] for i in range(rows)]),
                   lambda path: _spectra_bits(io.load_spectra(path))),
    "concentrations": (lambda rows, cols: (["sample", *(f"a{j}" for j in range(cols))],
                                           [[f"s{i}"] for i in range(rows)]),
                       lambda path: _concentration_bits(io.load_concentrations(path))),
    "value-table": (lambda rows, cols: (["sample", "flag", *(f"a{j}" for j in range(cols))],
                                        [[f"p{i}", "yes"] for i in range(rows)]),
                    lambda path: _value_table_bits(path)),
}
FORMATS = [repr, "%.17g".__mod__, "%.3e".__mod__]
# Cells the scan refuses: words, blanks, non-finite values, an extra cell,
# and numpy-only whitespace.
CORRUPT = ["oops", "", "nan", "-inf", "1e999", "0.5,0.5", "0.5\x1c", "1 2"]


def _spectra_bits(spectra):
    return spectra.sample_ids, spectra.grid.tobytes(), spectra.absorbance.tobytes()


def _concentration_bits(conc):
    return conc.sample_ids, conc.analytes, conc.values.tobytes()


def _value_table_bits(path):
    with open(path, encoding="utf-8") as handle:
        names = next(filter(str.strip, handle)).strip().split(",")[2:]
    ids, columns, values = io.load_value_table(path, columns=tuple(reversed(names)))
    return ids, columns, np.ascontiguousarray(values).tobytes()


def _outcome(load, path):
    try:
        return load(path)
    except ParseError as exc:
        return "ParseError", str(exc)


# Short tables, and tables that numpy reads in several chunks.
ROW_COUNTS = st.integers(2, 6) | st.integers(io._CHUNK_ROWS - 1,
                                             3 * io._CHUNK_ROWS + 1)


@pytest.mark.filterwarnings("ignore:negative concentration values")
@pytest.mark.parametrize("layout", sorted(LAYOUTS))
@settings(max_examples=40, deadline=None)
@given(values=arrays(float, st.tuples(ROW_COUNTS, st.integers(2, 5)),
                     elements=st.floats(-1e300, 1e300)),
       fmt=st.sampled_from(FORMATS), pad=st.sampled_from(["", " ", "  "]),
       newline=st.sampled_from(["\n", "\r\n"]),
       corrupt=st.none() | st.tuples(st.integers(0, 200), st.integers(0, 35),
                                     st.sampled_from(CORRUPT)),
       blanks=st.lists(st.integers(0, 200), max_size=3))
def test_numpy_reader_matches_cell_scan(layout, values, fmt, pad, newline,
                                        corrupt, blanks):
    table, load = LAYOUTS[layout]
    header, rows = table(*values.shape)
    for row, numbers in zip(rows, values.tolist()):
        row += [f"{pad}{fmt(v)}{pad}" for v in numbers]
    if corrupt is not None:
        i, j, cell = corrupt
        rows[i % len(rows)][-1 - j % values.shape[1]] = cell
    lines = [",".join(row) + newline for row in [header, *rows]]
    for at in blanks:  # blank lines anywhere, the first line included
        lines.insert(at % (len(lines) + 1), newline)
    text = "".join(lines)
    with tempfile.TemporaryDirectory() as folder:
        path = Path(folder) / "table.csv"
        path.write_text(text, encoding="utf-8", newline="")
        both = _outcome(load, path)
        with mock.patch.object(io, "_read_plain", lambda *args: None):
            scan = _outcome(load, path)
    assert both == scan
    assert (both[0] == "ParseError") == (corrupt is not None)
