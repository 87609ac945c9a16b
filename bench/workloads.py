"""The benchmark's workloads: inputs from a seed, timed rounds, output checks.

Inputs come from ``specal.simulate`` and reach the program as CSV files
(or, for the study, as a simulation config).  Each round runs the same
fixed list of operations, so ``failed`` is the same share of ``attempted``
in every run.  The checks read the outputs of the final round and compare
them with ``reference``, which does not use specal.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
from pathlib import Path

import numpy as np

import reference as ref
import tracing

# Closed-sample weak scenario on the fine grid: 350-750 nm at 1 nm (T=401).
FINE_GRID_STEP = 1.0
CALIBRATION_SAMPLES = 40
PREDICTION_SAMPLES = 2000
PERCENT_PREDICTION_SAMPLES = 8
FIXED_LAMBDA = "1000"
PLS_COMPONENTS = "3"
# Strong-scenario acceptance cell.  One replicate per round keeps a round
# under two seconds, so a run holds enough rounds for a steady median.
STUDY_SAMPLES = 100
STUDY_REPLICATES = 1
OLS_K_NUM_BASIS = 14
PCR_O_COMPONENTS = 3


class Cli:
    """In-process ``specal.cli.main`` with its stdout and stderr captured."""

    def __init__(self, recorder: tracing.Recorder):
        from specal.cli import main

        self.main = main
        self.recorder = recorder

    def __call__(self, argv: list[str]) -> tuple[int, str]:
        """Exit code and stderr; traced as one span named after the subcommand."""
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = self.recorder.call(f"cli.{argv[0]}", self.main, (argv,), {})
        return code, err.getvalue()

    def must(self, argv: list[str]) -> None:
        code, err = self(argv)
        if code != 0:
            raise RuntimeError(f"set-up step {argv[0]} failed: {err.strip()}")


def _fmt(value) -> str:
    return repr(float(value))


def write_spectra(path: Path, ids, grid, absorbance) -> None:
    # 17 significant digits read back to the same doubles.
    with open(path, "w", newline="") as handle:
        handle.write(",".join(["wavelength", *ids]) + "\n")
        np.savetxt(handle, np.column_stack([grid, absorbance.T]), fmt="%.17g",
                   delimiter=",")


def write_table(path: Path, id_header: str, ids, columns, values) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow([id_header, *columns])
        for sid, row in zip(ids, values):
            writer.writerow([sid, *map(_fmt, row)])


def digest(paths) -> str:
    sha = hashlib.sha256()
    for path in paths:
        if Path(path).exists():
            sha.update(Path(path).read_bytes())
    return sha.hexdigest()


def analyte_names(m: int) -> list[str]:
    return [f"analyte_{k + 1}" for k in range(m)]


class Workload:
    """Set-up, one round of timed operations, and the output checks."""

    # Set-ups per run; setup_s is their median.  Cheap set-ups repeat
    # more often, so that a few milliseconds of noise do not move it.
    setup_repeats = 9

    def __init__(self, seed: int, workdir: Path, cli: Cli):
        self.seed = seed
        self.dir = Path(workdir)
        self.cli = cli

    def path(self, name: str) -> str:
        return str(self.dir / name)

    def calibration_inputs(self):
        """Weak-scenario closed samples on the fine grid, written as CSV."""
        from specal.simulate import WEAK_PHI, SimConfig, generate_dataset

        cfg = SimConfig(seed=self.seed, num_samples=CALIBRATION_SAMPLES,
                        grid_step=FINE_GRID_STEP, phi=WEAK_PHI)
        spectra, conc, truth = generate_dataset(cfg)
        ids = [f"c{i + 1}" for i in range(spectra.num_samples)]
        write_spectra(self.dir / "cal_spectra.csv", ids, spectra.grid,
                      spectra.absorbance)
        write_table(self.dir / "cal_concentrations.csv", "sample", ids,
                    analyte_names(conc.num_analytes), conc.values)
        return cfg, spectra, conc, truth

    def cal_args(self, concentrations: str = "cal_concentrations.csv") -> list[str]:
        return ["--spectra", self.path("cal_spectra.csv"),
                "--concentrations", self.path(concentrations)]

    def run_ops(self, ops) -> tuple[int, int]:
        failed = sum(1 for argv in ops if self.cli(argv)[0] != 0)
        return len(ops), failed


class CalibrateFine(Workload):
    """GCV smoothing-spline and GLS calibration plus jackknife, T=401."""

    outputs = ("ss.json", "ss_s.csv", "gls.json", "gls_s.csv", "ss_fixed.json")

    def setup(self) -> None:
        self.truth = self.calibration_inputs()[3]

    def round(self) -> tuple[int, int, str]:
        cal = self.cal_args()
        ops = [
            ["calibrate", *cal, "--method", "ols-ss", "--model-out", self.path("ss.json")],
            ["jackknife", *cal, "--method", "ols-ss", "--out", self.path("ss_s.csv")],
            ["calibrate", *cal, "--method", "gls-k", "--model-out", self.path("gls.json")],
            ["jackknife", *cal, "--method", "gls-k", "--out", self.path("gls_s.csv")],
            ["calibrate", *cal, "--method", "ols-ss", "--lambda", FIXED_LAMBDA,
             "--model-out", self.path("ss_fixed.json")],
        ]
        attempted, failed = self.run_ops(ops)
        return attempted, failed, digest(self.path(p) for p in self.outputs)

    def check(self) -> list[str]:
        _, grid, w = ref.read_spectra(self.path("cal_spectra.csv"))
        _, y = ref.read_values(self.path("cal_concentrations.csv"))
        names = analyte_names(y.shape[1])
        ss = ref.read_json(self.path("ss.json"))
        fixed = ref.read_json(self.path("ss_fixed.json"))
        gls = ref.read_json(self.path("gls.json"))
        system = ref.SmoothingSystem(ss["knots"], ss["order"], grid, w, y)
        errors = []
        if fixed["knots"] != ss["knots"] or float(fixed["lambda"]) != float(FIXED_LAMBDA):
            errors.append("fixed-lambda OLS-SS model has other knots or lambda")
        errors += ref.check_normal_equations(ss, system)
        errors += ref.check_normal_equations(fixed, system)
        errors += ref.check_gcv_choice(ss, system)
        ss_names, ss_s = ref.read_spread(self.path("ss_s.csv"))
        errors += ref.check_positive_spread("OLS-SS spread", ss_names, ss_s, names)
        errors += ref.check_loo_smoothing(ss_s, ss, system)
        errors += ref.check_curves_near_truth(gls, grid, self.truth.curve_values)
        gls_names, gls_s = ref.read_spread(self.path("gls_s.csv"))
        errors += ref.check_positive_spread("GLS-K spread", gls_names, gls_s, names)
        return errors


class PredictBatch(Workload):
    """Batch prediction of J=2000 spectra from three fitted models, T=401."""

    setup_repeats = 3
    models = ("ss", "gls", "pls")

    def setup(self) -> None:
        from specal.simulate import prediction_spectra, sample_dirichlet

        cfg, _, conc, truth = self.calibration_inputs()
        m = conc.num_analytes
        write_table(self.dir / "cal_percent.csv", "sample",
                    [f"c{i + 1}" for i in range(conc.num_samples)],
                    analyte_names(m), 100.0 * conc.values)
        rng = np.random.default_rng([self.seed, 101])
        y_star = sample_dirichlet(rng, PREDICTION_SAMPLES, cfg.alpha, m)
        new = prediction_spectra(truth, y_star, 1)
        ids = [f"p{j + 1}" for j in range(PREDICTION_SAMPLES)]
        write_spectra(self.dir / "pred_spectra.csv", ids, new.grid, new.absorbance)
        write_table(self.dir / "pred_truth.csv", "sample", ids, analyte_names(m), y_star)
        small = slice(0, PERCENT_PREDICTION_SAMPLES)
        write_spectra(self.dir / "pred_small.csv", ids[small], new.grid,
                      new.absorbance[small])
        # The program's jackknife fails on percent rows too, so the percent
        # model's spread file is written here; its values only set widths.
        write_table(self.dir / "pct_s.csv", "analyte", analyte_names(m), ["s"],
                    np.ones((m, 1)))
        cal = self.cal_args()
        fixed = ["--lambda", FIXED_LAMBDA]
        pls = ["--components", PLS_COMPONENTS]
        for argv in (
            ["calibrate", *cal, "--method", "ols-ss", *fixed, "--model-out", self.path("ss.json")],
            ["jackknife", *cal, "--method", "ols-ss", *fixed, "--out", self.path("ss_s.csv")],
            ["calibrate", *cal, "--method", "gls-k", "--model-out", self.path("gls.json")],
            ["jackknife", *cal, "--method", "gls-k", "--out", self.path("gls_s.csv")],
            ["baselines", *cal, "--method", "pls", *pls, "--model-out", self.path("pls.json")],
            ["jackknife", *cal, "--method", "pls", *pls, "--out", self.path("pls_s.csv")],
            ["calibrate", *self.cal_args("cal_percent.csv"), "--method", "ols-k",
             "--model-out", self.path("pct.json")],
        ):
            self.cli.must(argv)

    def round(self) -> tuple[int, int, str]:
        ops = []
        for key in self.models:
            ops.append(["predict", "--model", self.path(f"{key}.json"),
                        "--spectra", self.path("pred_spectra.csv"),
                        "--s-file", self.path(f"{key}_s.csv"),
                        "--out", self.path(f"pred_{key}.csv")])
        for key in self.models:
            ops.append(["sep", "--truth", self.path("pred_truth.csv"),
                        "--predictions", self.path(f"pred_{key}.csv"),
                        "--out", self.path(f"sep_{key}.csv")])
        # Percent-unit model: fails with error[degenerate-analytes] while the
        # program recognises only a row sum of one as closed.
        ops.append(["predict", "--model", self.path("pct.json"),
                    "--spectra", self.path("pred_small.csv"),
                    "--s-file", self.path("pct_s.csv"),
                    "--out", self.path("pred_pct.csv")])
        attempted, failed = self.run_ops(ops)
        outputs = [self.path(f"{kind}_{key}.csv") for kind in ("pred", "sep")
                   for key in self.models] + [self.path("pred_pct.csv")]
        return attempted, failed, digest(outputs)

    def check(self) -> list[str]:
        ids, grid, w = ref.read_spectra(self.path("pred_spectra.csv"))
        truth_ids, truth = ref.read_values(self.path("pred_truth.csv"))
        _, cal_y = ref.read_values(self.path("cal_concentrations.csv"))
        names = analyte_names(truth.shape[1])
        errors = [] if truth_ids == ids else ["truth rows do not follow the spectra"]
        for key in self.models:
            model = ref.read_json(self.path(f"{key}.json"))
            s_names, s = ref.read_spread(self.path(f"{key}_s.csv"))
            errors += ref.check_positive_spread(f"{key} spread", s_names, s, names)
            pred = ref.read_predictions(self.path(f"pred_{key}.csv"), names)
            if pred["ids"] != ids:
                errors.append(f"pred_{key}.csv rows do not follow the spectra")
                continue
            if model["kind"] == "functional":
                errors += ref.check_functional_predictions(pred, model, grid, w, s,
                                                           cal_y)
            else:
                errors += ref.check_multivariate_predictions(pred, model, w, s)
            sep_names, sep_values = ref.read_spread(self.path(f"sep_{key}.csv"))
            errors += ref.check_sep(model["method"], dict(zip(sep_names, sep_values)),
                                    names, truth, pred["y_hat"], s)
        if Path(self.path("pred_pct.csv")).exists():
            pred = ref.read_predictions(self.path("pred_pct.csv"), names)
            errors += ref.check_row_totals("percent-unit predictions", pred["y_hat"], 100.0)
        return errors


class StudySerial(Workload):
    """Jackknife comparison study, strong scenario, I=100, all 8 methods."""

    def setup(self) -> None:
        from specal.simulate import STRONG_PHI, SimConfig, generate_dataset

        self.cfg = SimConfig(seed=self.seed, num_samples=STUDY_SAMPLES, phi=STRONG_PHI)
        self.first_replicate = generate_dataset(self.cfg, noise_stream=0)

    def round(self) -> tuple[int, int, str]:
        from specal.methods import STUDY_METHODS
        from specal.simulate import run_jackknife_study

        self.result = run_jackknife_study(self.cfg, list(STUDY_METHODS),
                                          STUDY_REPLICATES, jobs=1)
        sha = hashlib.sha256()
        for name in self.result.methods:
            sha.update(name.encode())
            sha.update(np.ascontiguousarray(self.result.spreads[name]).tobytes())
        attempted = len(STUDY_METHODS) * STUDY_REPLICATES
        return attempted, sum(self.result.failures.values()), sha.hexdigest()

    def check(self) -> list[str]:
        result = self.result
        errors = ref.check_no_failures(result.failures)
        spectra, conc, _ = self.first_replicate
        w, y, grid = spectra.absorbance, conc.values, spectra.grid
        knots = ref.clamped_knots(grid[0], grid[-1], OLS_K_NUM_BASIS)
        naive = {
            "OLS-K": lambda: ref.loo_spread_ols_k(knots, 4, grid, w, y),
            "MLR": lambda: ref.loo_spread_multivariate(w, y, None),
            "PCR-o": lambda: ref.loo_spread_multivariate(w, y, PCR_O_COMPONENTS),
        }
        for name, spreads in naive.items():
            errors += ref.check_study_spread(name, result.spreads[name], spreads())
        return errors


WORKLOADS = {
    "calibrate-fine": CalibrateFine,
    "predict-batch": PredictBatch,
    "study-serial": StudySerial,
}
