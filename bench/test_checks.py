"""Every output check of the benchmark passes on real output and rejects a
deliberately perturbed copy of it.

    python3 -m pytest -q bench/test_checks.py

The outputs come from small runs of the program (T=81, I=40) made in a
temporary directory.
"""

from __future__ import annotations

import copy
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import reference as ref  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402

SEED = 3
SAMPLES = 40
PREDICTIONS = 50


def perturbed(values, index, factor):
    out = np.array(values, dtype=float, copy=True)
    out[index] *= factor
    return out


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """Calibration, spread, prediction and SEP files from the program."""
    from specal.simulate import SimConfig, generate_dataset, prediction_spectra, sample_dirichlet

    d = tmp_path_factory.mktemp("outputs")
    cfg = SimConfig(seed=SEED, num_samples=SAMPLES)
    spectra, conc, truth = generate_dataset(cfg)
    ids = [f"c{i + 1}" for i in range(SAMPLES)]
    names = wl.analyte_names(conc.num_analytes)
    wl.write_spectra(d / "cal.csv", ids, spectra.grid, spectra.absorbance)
    wl.write_table(d / "conc.csv", "sample", ids, names, conc.values)
    y_star = sample_dirichlet(np.random.default_rng([SEED, 101]), PREDICTIONS, cfg.alpha, 3)
    new = prediction_spectra(truth, y_star, 1)
    pred_ids = [f"p{j + 1}" for j in range(PREDICTIONS)]
    wl.write_spectra(d / "new.csv", pred_ids, new.grid, new.absorbance)
    wl.write_table(d / "truth.csv", "sample", pred_ids, names, y_star)
    cli = wl.Cli(tracing.Recorder())
    cal = ["--spectra", str(d / "cal.csv"), "--concentrations", str(d / "conc.csv")]
    for argv in (
        ["calibrate", *cal, "--method", "ols-ss", "--model-out", str(d / "ss.json")],
        ["jackknife", *cal, "--method", "ols-ss", "--out", str(d / "ss_s.csv")],
        ["calibrate", *cal, "--method", "gls-k", "--model-out", str(d / "gls.json")],
        ["baselines", *cal, "--method", "pls", "--components", "3",
         "--model-out", str(d / "pls.json")],
        ["jackknife", *cal, "--method", "pls", "--components", "3",
         "--out", str(d / "pls_s.csv")],
    ):
        cli.must(argv)
    for key in ("ss", "pls"):
        cli.must(["predict", "--model", str(d / f"{key}.json"), "--spectra", str(d / "new.csv"),
                  "--s-file", str(d / f"{key}_s.csv"), "--out", str(d / f"pred_{key}.csv")])
        cli.must(["sep", "--truth", str(d / "truth.csv"), "--predictions",
                  str(d / f"pred_{key}.csv"), "--out", str(d / f"sep_{key}.csv")])
    _, grid, w = ref.read_spectra(d / "cal.csv")
    _, y = ref.read_values(d / "conc.csv")
    ss = ref.read_json(d / "ss.json")
    out = {
        "dir": d, "cal_y": y, "names": names, "grid": grid, "truth_curves": truth.curve_values,
        "ss": ss, "gls": ref.read_json(d / "gls.json"), "pls": ref.read_json(d / "pls.json"),
        "system": ref.SmoothingSystem(ss["knots"], ss["order"], grid, w, y),
        "new": ref.read_spectra(d / "new.csv")[2], "y_star": ref.read_values(d / "truth.csv")[1],
    }
    for key in ("ss", "pls"):
        out[f"{key}_s"] = ref.read_spread(d / f"{key}_s.csv")[1]
        out[f"pred_{key}"] = ref.read_predictions(d / f"pred_{key}.csv", names)
        sep_names, sep_values = ref.read_spread(d / f"sep_{key}.csv")
        out[f"sep_{key}"] = dict(zip(sep_names, sep_values))
    return out


def test_normal_equations(outputs):
    assert ref.check_normal_equations(outputs["ss"], outputs["system"]) == []
    bad = copy.deepcopy(outputs["ss"])
    bad["coefficients"][1][5] *= 1 + 1e-6
    assert ref.check_normal_equations(bad, outputs["system"])


def test_gcv_choice(outputs):
    ss, system = outputs["ss"], outputs["system"]
    assert ref.check_gcv_choice(ss, system) == []
    k = int(np.argmin(np.abs(ref.GCV_LAMBDA_GRID - ss["lambda"])))
    neighbour = ref.GCV_LAMBDA_GRID[k + 1 if k + 1 < ref.GCV_LAMBDA_GRID.size else k - 1]
    assert ref.check_gcv_choice(dict(ss, **{"lambda": float(neighbour)}), system)
    assert ref.check_gcv_choice(dict(ss, **{"lambda": ss["lambda"] * 1.01}), system)


def test_loo_smoothing(outputs):
    s = outputs["ss_s"]
    assert ref.check_loo_smoothing(s, outputs["ss"], outputs["system"]) == []
    assert ref.check_loo_smoothing(perturbed(s, 0, 1 + 1e-5), outputs["ss"], outputs["system"])


def test_curves_near_truth(outputs):
    gls = outputs["gls"]
    assert ref.check_curves_near_truth(gls, outputs["grid"], outputs["truth_curves"]) == []
    bad = copy.deepcopy(gls)
    bad["coefficients"][2] = list(1.2 * np.asarray(bad["coefficients"][2]))
    assert ref.check_curves_near_truth(bad, outputs["grid"], outputs["truth_curves"])


def test_positive_spread(outputs):
    names, s = outputs["names"], outputs["ss_s"]
    assert ref.check_positive_spread("s", names, s, names) == []
    assert ref.check_positive_spread("s", names, perturbed(s, 1, -1.0), names)
    assert ref.check_positive_spread("s", names[::-1], s, names)


def test_functional_predictions(outputs):
    pred, model, s = outputs["pred_ss"], outputs["ss"], outputs["ss_s"]
    args = (model, outputs["grid"], outputs["new"], s, outputs["cal_y"])
    assert ref.check_functional_predictions(pred, *args) == []
    unflagged = dict(model, closed_calibration=False)
    assert any("closed_calibration" in e for e in ref.check_functional_predictions(
        pred, unflagged, *args[1:]))
    curves = ref.model_curves(model, outputs["grid"])
    open_solve = dict(pred, y_hat=ref.predict_functional(curves, outputs["new"], None))
    assert any("per-spectrum solve" in e
               for e in ref.check_functional_predictions(open_solve, *args))
    moved = dict(pred, y_hat=perturbed(pred["y_hat"], (3, 1), 1 + 1e-6))
    assert any("per-spectrum solve" in e for e in ref.check_functional_predictions(moved, *args))
    norms = dict(pred, residual_norm=perturbed(pred["residual_norm"], 7, 1 + 1e-6))
    assert any("residual_norm" in e for e in ref.check_functional_predictions(norms, *args))


def test_intervals(outputs):
    pred, s = outputs["pred_ss"], outputs["ss_s"]
    assert ref.check_intervals("ss", pred, s) == []
    lo = pred["lo"].copy()
    lo[0, 0] = np.nextafter(lo[0, 0], -np.inf)
    assert ref.check_intervals("ss", dict(pred, lo=lo), s)
    hi = pred["hi"].copy()
    hi[4, 2] = np.nextafter(hi[4, 2], np.inf)
    assert ref.check_intervals("ss", dict(pred, hi=hi), s)


def test_multivariate_predictions(outputs):
    pred, model, s = outputs["pred_pls"], outputs["pls"], outputs["pls_s"]
    assert ref.check_multivariate_predictions(pred, model, outputs["new"], s) == []
    moved = dict(pred, y_hat=perturbed(pred["y_hat"], (9, 0), 1 + 1e-6))
    assert ref.check_multivariate_predictions(moved, model, outputs["new"], s)


def test_sep(outputs):
    names, truth = outputs["names"], outputs["y_star"]
    for key in ("ss", "pls"):
        sep_rows, y_hat, s = outputs[f"sep_{key}"], outputs[f"pred_{key}"]["y_hat"], outputs[f"{key}_s"]
        assert ref.check_sep(key, sep_rows, names, truth, y_hat, s) == []
        for column in (names[1], "overall"):
            bad = dict(sep_rows, **{column: sep_rows[column] * (1 + 1e-9)})
            assert ref.check_sep(key, bad, names, truth, y_hat, s)
        assert any("outside" in e for e in
                   ref.check_sep(key, sep_rows, names, truth, y_hat, 10 * s))
        assert any("outside" in e for e in
                   ref.check_sep(key, sep_rows, names, truth, y_hat, 0.1 * s))


def test_row_totals():
    y_hat = np.array([[20.0, 30.0, 50.0], [10.0, 10.0, 80.0]])
    assert ref.check_row_totals("pct", y_hat, 100.0) == []
    assert ref.check_row_totals("pct", perturbed(y_hat, (1, 2), 0.999), 100.0)


def test_study_checks():
    from specal.simulate import STRONG_PHI, SimConfig, generate_dataset, run_jackknife_study

    cfg = SimConfig(seed=SEED, num_samples=wl.STUDY_SAMPLES, phi=STRONG_PHI)
    result = run_jackknife_study(cfg, ["OLS-K", "MLR", "PCR-o"], 1)
    assert ref.check_no_failures(result.failures) == []
    assert ref.check_no_failures(dict(result.failures, MLR=1))
    spectra, conc, _ = generate_dataset(cfg, noise_stream=0)
    w, y, grid = spectra.absorbance, conc.values, spectra.grid
    knots = ref.clamped_knots(grid[0], grid[-1], wl.OLS_K_NUM_BASIS)
    naive = {
        "OLS-K": ref.loo_spread_ols_k(knots, 4, grid, w, y),
        "MLR": ref.loo_spread_multivariate(w, y, None),
        "PCR-o": ref.loo_spread_multivariate(w, y, wl.PCR_O_COMPONENTS),
    }
    for name, want in naive.items():
        assert ref.check_study_spread(name, result.spreads[name], want) == []
        bad = perturbed(result.spreads[name], (0, 2), 1 + 1e-5)
        assert ref.check_study_spread(name, bad, want)


def test_same_outputs_every_round():
    assert run.check_same_outputs(["a", "a", "a"]) == []
    assert run.check_same_outputs(["a", "b", "a"])
