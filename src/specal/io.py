"""File formats: wide spectra CSV, concentration tables, model JSON.

All writers emit comma-separated, LF-terminated, dot-decimal text with
shortest round-trip float formatting, so identical inputs always produce
byte-identical outputs.
"""

from __future__ import annotations

import csv
import json
import operator
from array import array
from collections import Counter
from dataclasses import asdict
from functools import partial
from itertools import chain
from pathlib import Path

import numpy as np

from .baselines import MultivariateModel
from .basis import KnotVector
from .calibrate import FitDiagnostics
from .errors import AlignmentError, ParseError, ShapeError
from .model import CalibrationModel, ConcentrationMatrix, SpectraSet

MODEL_SCHEMA_VERSION = 1

_floats = partial(np.asarray, dtype=float)


def _fmt(value: float) -> str:
    return repr(float(value))


def _write_rows(path, header: list[str], rows) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _write_table(path, header: list[str], ids, values) -> None:
    """One row per id: the id, then that row of ``values``, each number
    in shortest round-trip form."""
    _write_rows(path, header,
                ([sid, *map(_fmt, row)] for sid, row in zip(ids, values)))


# Characters of lines left to the cell scan: quotes need csv's unquoting,
# NUL stops older csv readers, and numpy strips \x1c-\x1f as whitespace
# where float() refuses them.
_UNPLAIN = '"\0\x1c\x1d\x1e\x1f'


def _read_table(path, numeric=None, numeric_header: bool = False
                ) -> tuple[list[str], list[str], np.ndarray]:
    """Header names, row ids and float cells of a CSV table.

    Blank rows are skipped, a table has at least two columns, every row is
    as long as the header, and header names and row ids (first cells) are
    stripped.  ``numeric(header)`` checks the header and returns the
    0-based columns to convert (default: all after the ids) before any
    cell is converted.  Those cells of every data row, and of the header too with
    ``numeric_header`` (whose id then leads the ids), go through
    ``float()`` into one finite array of shape (rows, columns).  A bad cell
    raises ParseError with its 1-based row and column, blank rows not
    counted.

    Tables that numpy's C reader takes whole are read by it: its cells
    parse with the same routine as ``float()``, to the same bits.  Any
    other table (quoted cells, ragged rows, cells such as ``1_0`` that only
    ``float()`` accepts, or a bad cell) is read again by the cell scan,
    so accepted inputs and error messages do not depend on the reader.
    """
    try:
        with open(path, newline="", encoding="utf-8") as handle:
            table = None
            if handle.seekable():  # the scan rereads what numpy refuses
                table = _read_plain(handle, numeric, numeric_header)
                if table is None:
                    handle.seek(0)
            if table is None:
                table = _scan(path, handle, numeric, numeric_header)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text: {exc}") from exc
    header, ids, columns, values = table
    bad = np.argwhere(~np.isfinite(values))
    if bad.size:
        i, k = bad[0]
        row = i + (1 if numeric_header else 2)
        raise ParseError(f"{path}: non-finite cell at row {row}, "
                         f"column {columns[k] + 1}")
    return header, ids, values


def _read_plain(handle, numeric, numeric_header: bool):
    """``_scan``'s table through ``np.loadtxt``, or None where it may differ.

    Only lines without quotes and with exactly the header's cell count
    reach numpy, so splitting at commas gives csv's cells.
    """
    # A line holds one terminator, at its end, so one that starts with it
    # is a terminator alone: a row csv reads as empty.
    lines = (line for line in handle if line[0] not in "\r\n")
    head = next(lines, "")
    first = next(lines, None)
    header = [cell.strip() for cell in head.rstrip("\r\n").split(",")]
    if first is None or len(header) < 2 or not _plain(head):
        return None
    columns = range(1, len(header)) if numeric is None else numeric(header)
    # Reading every column, numpy checks that each row is as long as the
    # first; with usecols it drops extra cells, so rows are counted here.
    usecols = None if columns == range(len(header)) else columns
    ids = []

    def rows():
        for line in chain([head] if numeric_header else [], [first], lines):
            if not _plain(line) or (usecols is not None
                                    and line.count(",") != len(header) - 1):
                raise ValueError("not a plain row")
            ids.append(line.partition(",")[0].strip())
            yield line

    try:
        values = np.loadtxt(rows(), delimiter=",", comments=None, ndmin=2,
                            usecols=usecols)
    except ValueError:
        return None
    if values.shape[1] != len(columns):
        return None
    return header, ids, columns, values


def _plain(line: str) -> bool:
    return not any(char in line for char in _UNPLAIN)


def _scan(path, handle, numeric, numeric_header: bool):
    """``_read_table``'s cells through csv and ``float()``, one row at a time."""
    rows = filter(None, csv.reader(handle))
    header = next(rows, None)
    first = next(rows, None)
    if first is None:
        raise ParseError(f"{path}: need a header row and at least one data row")
    header = [cell.strip() for cell in header]
    if len(header) < 2:
        raise ParseError(f"{path}: need at least two columns")
    columns = range(1, len(header)) if numeric is None else numeric(header)
    ids = []
    cells = array("d")
    numbered = enumerate(chain([header, first], rows), start=1)
    if not numeric_header:
        next(numbered)
    for number, row in numbered:
        if len(row) != len(header):
            raise ParseError(f"{path}: row {number} has {len(row)} "
                             f"cells, expected {len(header)}")
        ids.append(row[0].strip())
        try:
            cells.extend(map(float, [row[j] for j in columns]))
        except ValueError:
            for j in columns:
                try:
                    float(row[j])
                except ValueError:
                    raise ParseError(
                        f"{path}: non-numeric cell at row {number}, "
                        f"column {j + 1}: {row[j]!r}") from None
    values = np.frombuffer(cells, dtype=float).reshape(len(ids), len(columns))
    return header, ids, columns, values


def _unique_ids(path, ids) -> None:
    """Sample ids key rows across files, so each may appear once."""
    repeated = [sid for sid, count in Counter(ids).items() if count > 1]
    if repeated:
        raise AlignmentError(f"{path}: repeated sample ids {repeated}")


def load_spectra(path, transpose: bool = False, role: str = "calibration") -> SpectraSet:
    """Wide-format CSV: ``wavelength`` column then one column per sample.

    ``transpose=True`` accepts the flipped layout (one row per sample,
    header of wavelengths with a leading ``sample`` column).
    """
    if transpose:
        _, ids, values = _read_table(path, numeric_header=True)
        ids, grid, matrix = ids[1:], values[0], values[1:]
    else:
        def wide(header: list[str]) -> range:
            if header[0].lower() != "wavelength":
                raise ParseError(f"{path}: first header cell must be "
                                 f"'wavelength', got {header[0]!r}")
            return range(len(header))

        header, _, values = _read_table(path, wide)
        ids = header[1:]
        grid, matrix = values[:, 0], values[:, 1:].T
    _unique_ids(path, ids)
    diffs = np.diff(grid)
    if np.any(diffs <= 0):
        bad = int(np.argmax(diffs <= 0)) + 1
        raise ParseError(
            f"{path}: wavelengths must be strictly increasing; "
            f"violation after entry {bad} ({grid[bad - 1]} -> {grid[bad]})"
        )
    try:
        return SpectraSet(grid=grid, absorbance=matrix, role=role,
                          sample_ids=tuple(ids))
    except ShapeError as exc:
        raise ParseError(f"{path}: {exc}") from exc


def save_spectra(spectra: SpectraSet, path) -> None:
    ids = spectra.sample_ids or tuple(
        f"s{i + 1}" for i in range(spectra.num_samples)
    )
    _write_table(path, ["wavelength", *ids], map(_fmt, spectra.grid),
                 spectra.absorbance.T)


def load_concentrations(path, spectra: SpectraSet | None = None) -> ConcentrationMatrix:
    """Sample-id keyed analyte table, realigned to the spectra column order."""
    header, ids, values = _read_table(path)
    _unique_ids(path, ids)
    analytes = header[1:]
    if spectra is not None and spectra.sample_ids is not None:
        index = {sid: k for k, sid in enumerate(ids)}
        missing = [sid for sid in spectra.sample_ids if sid not in index]
        if missing:
            raise AlignmentError(
                f"{path}: no concentration rows for spectra samples {missing}"
            )
        known = set(spectra.sample_ids)
        unknown = [sid for sid in ids if sid not in known]
        if unknown:
            raise AlignmentError(
                f"{path}: concentration rows {unknown} match no spectra sample"
            )
        order = [index[sid] for sid in spectra.sample_ids]
        values = values[order]
        ids = list(spectra.sample_ids)
    return ConcentrationMatrix(values=values, analytes=tuple(analytes),
                               sample_ids=tuple(ids))


def save_concentrations(conc: ConcentrationMatrix, path) -> None:
    ids = conc.sample_ids or tuple(f"s{i + 1}" for i in range(conc.num_samples))
    _write_table(path, ["sample", *conc.analyte_names()], ids, conc.values)


def load_value_table(path, columns: tuple[str, ...] | None = None
                     ) -> tuple[tuple[str, ...], tuple[str, ...], np.ndarray]:
    """Generic id-plus-columns table (truth or prediction values).

    With ``columns`` given, only those named columns are parsed, so tables
    carrying extra non-numeric columns (intervals, flags) still load.
    """
    def picks(header: list[str]) -> list[int]:
        available = header[1:]
        wanted = available if columns is None else columns
        missing = [name for name in wanted if name not in available]
        if missing:
            raise AlignmentError(f"{path}: missing columns {missing}")
        return [available.index(name) + 1 for name in wanted]

    header, ids, values = _read_table(path, picks)
    return tuple(ids), tuple(header[1:] if columns is None else columns), values


def save_model(model, path) -> None:
    if isinstance(model, CalibrationModel):
        payload = {
            "schema": MODEL_SCHEMA_VERSION,
            "kind": "functional",
            "method": model.method,
            "order": model.basis.order,
            "knots": [float(k) for k in model.basis.knots],
            "coefficients": [[float(v) for v in row] for row in model.coefficients],
            "lambda": float(model.lam),
            "analytes": list(model.analytes),
            "closed_calibration": model.closed_calibration,
            "closed_total": model.closed_total,
        }
        if model.diagnostics is not None:
            payload["diagnostics"] = asdict(model.diagnostics)
    elif isinstance(model, MultivariateModel):
        payload = {
            "schema": MODEL_SCHEMA_VERSION,
            "kind": "multivariate",
            "method": model.method,
            "intercept": [float(v) for v in model.intercept],
            "coefficients": [[float(v) for v in row] for row in model.coefficients],
            "components": model.components,
            "variance_fraction": model.variance_fraction,
        }
        if model.analytes is not None:
            payload["analytes"] = list(model.analytes)
    else:
        raise ShapeError(f"cannot serialize model of type {type(model).__name__}")
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def load_model(path):
    try:
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ParseError(f"cannot read model file {path}: {exc}") from exc
    if not isinstance(payload, dict):
        raise ParseError(f"{path}: a model file holds one JSON object")

    def field(name, convert, optional=False):
        if optional and payload.get(name) is None:
            return None
        try:
            return convert(payload[name])
        except KeyError:
            raise ParseError(f"{path}: model field {name!r} is missing") from None
        except (TypeError, ValueError) as exc:
            raise ParseError(f"{path}: model field {name!r}: {exc}") from None

    schema = payload.get("schema")
    if schema != MODEL_SCHEMA_VERSION:
        raise ParseError(
            f"{path}: unsupported model schema {schema!r} "
            f"(expected {MODEL_SCHEMA_VERSION})"
        )
    kind = payload.get("kind")
    if kind == "functional":
        if "closed_total" in payload:
            closed_total = field("closed_total", float, optional=True)
        else:  # written before closed_total existed: only the flag
            closed_total = 1.0 if payload.get("closed_calibration") else None
        return CalibrationModel(
            basis=KnotVector(field("knots", _floats), field("order", operator.index)),
            coefficients=field("coefficients", _floats),
            method=field("method", str),
            lam=field("lambda", float),
            analytes=field("analytes", tuple),
            diagnostics=field("diagnostics", lambda diag: FitDiagnostics(**diag),
                              optional=True),
            closed_total=closed_total,
        )
    if kind == "multivariate":
        return MultivariateModel(
            method=field("method", str),
            intercept=field("intercept", _floats),
            coefficients=field("coefficients", _floats),
            components=field("components", operator.index, optional=True),
            variance_fraction=payload.get("variance_fraction"),
            analytes=field("analytes", tuple, optional=True),
        )
    raise ParseError(f"{path}: unknown model kind {kind!r}")


def save_curves(model: CalibrationModel, path, num_points: int = 201) -> None:
    """Dense-grid table of the fitted baseline and analyte curves."""
    a, b = model.basis.domain
    grid = np.linspace(a, b, num_points)
    _write_table(path, ["wavelength", "baseline", *model.analytes],
                 map(_fmt, grid), model.curve_values(grid).T)


def save_spread(analytes, s, path) -> None:
    _write_table(path, ["analyte", "s"], analytes, np.reshape(s, (-1, 1)))


def load_spread(path) -> tuple[tuple[str, ...], np.ndarray]:
    """Two-column ``analyte,s`` table of jackknife spreads."""
    def spread(header: list[str]) -> range:
        if len(header) != 2:
            raise ParseError(f"{path}: need two columns, analyte and s")
        return range(1, 2)

    _, names, values = _read_table(path, spread)
    return tuple(names), values[:, 0]


def save_predictions(report, ids, path) -> None:
    header = ["sample"]
    for name in report.analytes:
        header += [name, f"{name}_lo", f"{name}_hi"]
    header += ["residual_norm", "outside_unit_range"]
    # Per analyte: estimate, lower bound, upper bound.  repr of the Python
    # floats from tolist() is _fmt, without a numpy scalar per cell.
    estimates = np.concatenate([report.y_hat[:, :, None], report.intervals], axis=2)
    _write_rows(path, header, (
        [sid, *map(repr, row), repr(norm), str(outside).lower()]
        for sid, row, norm, outside in zip(
            ids, estimates.reshape(len(estimates), -1).tolist(),
            report.residual_norms.tolist(), report.outside_unit_range.tolist())
    ))


def save_sep(report, analytes, path) -> None:
    _write_table(path, ["component", "sep"], [*analytes, "overall"],
                 np.append(report.per_component, report.overall)[:, None])


def save_study_rows(header: list[str], rows, path) -> None:
    formatted = [
        [cell if isinstance(cell, str) else _fmt(cell) for cell in row]
        for row in rows
    ]
    _write_rows(path, header, formatted)


def save_manifest(payload: dict, path) -> None:
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def ensure_dir(path) -> Path:
    directory = Path(path)
    directory.mkdir(parents=True, exist_ok=True)
    return directory
