"""File formats: wide spectra CSV, concentration tables, model JSON.

All writers emit comma-separated, LF-terminated, dot-decimal text with
shortest round-trip float formatting, so identical inputs always produce
byte-identical outputs.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from .baselines import MultivariateModel
from .basis import KnotVector
from .calibrate import FitDiagnostics
from .errors import AlignmentError, ParseError, ShapeError
from .model import CalibrationModel, ConcentrationMatrix, SpectraSet

MODEL_SCHEMA_VERSION = 1


def _fmt(value: float) -> str:
    return repr(float(value))


def _write_rows(path, header: list[str], rows) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _parse_float(cell: str, row: int, column: int, path) -> float:
    try:
        value = float(cell)
    except ValueError:
        raise ParseError(
            f"{path}: non-numeric cell at row {row}, column {column}: {cell!r}"
        ) from None
    if not np.isfinite(value):
        raise ParseError(f"{path}: non-finite cell at row {row}, column {column}")
    return value


def _read_csv(path) -> list[list[str]]:
    try:
        with open(path, newline="", encoding="utf-8") as handle:
            rows = [row for row in csv.reader(handle) if row]
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    if len(rows) < 2:
        raise ParseError(f"{path}: need a header row and at least one data row")
    return rows


def load_spectra(path, transpose: bool = False, role: str = "calibration") -> SpectraSet:
    """Wide-format CSV: ``wavelength`` column then one column per sample.

    ``transpose=True`` accepts the flipped layout (one row per sample,
    header of wavelengths with a leading ``sample`` column).
    """
    rows = _read_csv(path)
    header = rows[0]
    if transpose:
        grid = [
            _parse_float(cell, 1, j + 2, path) for j, cell in enumerate(header[1:])
        ]
        ids = [row[0] for row in rows[1:]]
        values = [
            [_parse_float(cell, i + 2, j + 2, path)
             for j, cell in enumerate(row[1:])]
            for i, row in enumerate(rows[1:])
        ]
        matrix = np.asarray(values)
    else:
        if header[0].strip().lower() != "wavelength":
            raise ParseError(
                f"{path}: first header cell must be 'wavelength', got {header[0]!r}"
            )
        ids = [cell.strip() for cell in header[1:]]
        if not ids:
            raise ParseError(f"{path}: no sample columns present")
        grid = []
        columns = []
        for i, row in enumerate(rows[1:], start=2):
            if len(row) != len(header):
                raise ParseError(
                    f"{path}: row {i} has {len(row)} cells, expected {len(header)}"
                )
            grid.append(_parse_float(row[0], i, 1, path))
            columns.append([
                _parse_float(cell, i, j + 2, path)
                for j, cell in enumerate(row[1:])
            ])
        matrix = np.asarray(columns).T
    grid = np.asarray(grid)
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
    rows = [
        [_fmt(wl)] + [_fmt(v) for v in spectra.absorbance[:, n]]
        for n, wl in enumerate(spectra.grid)
    ]
    _write_rows(path, ["wavelength", *ids], rows)


def _load_labelled_table(path) -> tuple[list[str], list[str], np.ndarray]:
    rows = _read_csv(path)
    header = rows[0]
    if len(header) < 2:
        raise ParseError(f"{path}: need an id column plus at least one analyte")
    analytes = [cell.strip() for cell in header[1:]]
    ids = []
    values = []
    for i, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            raise ParseError(
                f"{path}: row {i} has {len(row)} cells, expected {len(header)}"
            )
        ids.append(row[0].strip())
        values.append([
            _parse_float(cell, i, j + 2, path) for j, cell in enumerate(row[1:])
        ])
    return ids, analytes, np.asarray(values)


def load_concentrations(path, spectra: SpectraSet | None = None) -> ConcentrationMatrix:
    """Sample-id keyed analyte table, realigned to the spectra column order."""
    ids, analytes, values = _load_labelled_table(path)
    if spectra is not None and spectra.sample_ids is not None:
        index = {sid: k for k, sid in enumerate(ids)}
        missing = [sid for sid in spectra.sample_ids if sid not in index]
        if missing:
            raise AlignmentError(
                f"{path}: no concentration rows for spectra samples {missing}"
            )
        unknown = [sid for sid in ids if sid not in set(spectra.sample_ids)]
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
    rows = [
        [ids[i]] + [_fmt(v) for v in conc.values[i]]
        for i in range(conc.num_samples)
    ]
    _write_rows(path, ["sample", *conc.analyte_names()], rows)


def load_value_table(path, columns: tuple[str, ...] | None = None
                     ) -> tuple[tuple[str, ...], tuple[str, ...], np.ndarray]:
    """Generic id-plus-columns table (truth or prediction values).

    With ``columns`` given, only those named columns are parsed, so tables
    carrying extra non-numeric columns (intervals, flags) still load.
    """
    rows = _read_csv(path)
    header = [cell.strip() for cell in rows[0]]
    if len(header) < 2:
        raise ParseError(f"{path}: need an id column plus at least one value column")
    available = header[1:]
    if columns is None:
        wanted = available
    else:
        missing = [name for name in columns if name not in available]
        if missing:
            raise AlignmentError(f"{path}: missing columns {missing}")
        wanted = list(columns)
    picks = [available.index(name) + 1 for name in wanted]
    ids = []
    values = []
    for i, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            raise ParseError(
                f"{path}: row {i} has {len(row)} cells, expected {len(header)}"
            )
        ids.append(row[0].strip())
        values.append([
            _parse_float(row[j], i, j + 1, path) for j in picks
        ])
    return tuple(ids), tuple(wanted), np.asarray(values)


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
            diag = model.diagnostics
            payload["diagnostics"] = {
                "rss": diag.rss,
                "hat_trace": diag.hat_trace,
                "constraint_max_abs": diag.constraint_max_abs,
                "gcv": diag.gcv,
            }
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
    else:
        raise ShapeError(f"cannot serialize model of type {type(model).__name__}")
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def load_model(path):
    try:
        with open(path) as handle:
            payload = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"cannot read model file {path}: {exc}") from exc
    schema = payload.get("schema")
    if schema != MODEL_SCHEMA_VERSION:
        raise ParseError(
            f"{path}: unsupported model schema {schema!r} "
            f"(expected {MODEL_SCHEMA_VERSION})"
        )
    kind = payload.get("kind")
    if kind == "functional":
        diagnostics = None
        if "diagnostics" in payload:
            diagnostics = FitDiagnostics(**payload["diagnostics"])
        return CalibrationModel(
            basis=KnotVector(np.asarray(payload["knots"]), payload["order"]),
            coefficients=np.asarray(payload["coefficients"]),
            method=payload["method"],
            lam=payload["lambda"],
            analytes=tuple(payload["analytes"]),
            diagnostics=diagnostics,
            closed_total=payload.get(
                "closed_total", 1.0 if payload.get("closed_calibration") else None),
        )
    if kind == "multivariate":
        return MultivariateModel(
            method=payload["method"],
            intercept=np.asarray(payload["intercept"]),
            coefficients=np.asarray(payload["coefficients"]),
            components=payload.get("components"),
            variance_fraction=payload.get("variance_fraction"),
        )
    raise ParseError(f"{path}: unknown model kind {kind!r}")


def save_curves(model: CalibrationModel, path, num_points: int = 201) -> None:
    """Dense-grid table of the fitted baseline and analyte curves."""
    a, b = model.basis.domain
    grid = np.linspace(a, b, num_points)
    curves = model.curve_values(grid)
    rows = [
        [_fmt(t)] + [_fmt(v) for v in curves[:, n]]
        for n, t in enumerate(grid)
    ]
    _write_rows(path, ["wavelength", "baseline", *model.analytes], rows)


def save_spread(analytes, s, path) -> None:
    rows = [[name, _fmt(value)] for name, value in zip(analytes, s)]
    _write_rows(path, ["analyte", "s"], rows)


def load_spread(path) -> tuple[tuple[str, ...], np.ndarray]:
    rows = _read_csv(path)
    names = []
    values = []
    for i, row in enumerate(rows[1:], start=2):
        if len(row) != 2:
            raise ParseError(f"{path}: row {i} must have two cells")
        names.append(row[0].strip())
        values.append(_parse_float(row[1], i, 2, path))
    return tuple(names), np.asarray(values)


def save_predictions(report, ids, path) -> None:
    header = ["sample"]
    for name in report.analytes:
        header += [name, f"{name}_lo", f"{name}_hi"]
    header += ["residual_norm", "outside_unit_range"]
    rows = []
    for j in range(report.y_hat.shape[0]):
        row = [ids[j]]
        for ell in range(report.y_hat.shape[1]):
            row += [
                _fmt(report.y_hat[j, ell]),
                _fmt(report.intervals[j, ell, 0]),
                _fmt(report.intervals[j, ell, 1]),
            ]
        row += [_fmt(report.residual_norms[j]),
                str(bool(report.outside_unit_range[j])).lower()]
        rows.append(row)
    _write_rows(path, header, rows)


def save_sep(report, analytes, path) -> None:
    rows = [
        [name, _fmt(value)]
        for name, value in zip(analytes, report.per_component)
    ]
    rows.append(["overall", _fmt(report.overall)])
    _write_rows(path, ["component", "sep"], rows)


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
