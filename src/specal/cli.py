"""Command line front end: calibrate, predict, jackknife, sep, baselines, simulate.

Every subcommand is a thin shell over the library, deterministic given its
inputs, flags and seed.  Failures exit nonzero with one machine-parsable
line ``error[<category>]: <message>`` on stderr.
"""

from __future__ import annotations

import argparse
import sys
import warnings
from dataclasses import fields, replace

import numpy as np

from . import _blas, io, simulate
from .baselines import MultivariateModel
from .errors import AlignmentError, InvalidParameterError, SpecalError
from .methods import (
    FUNCTIONAL_METHODS,
    MULTIVARIATE_METHODS,
    READ_FIELDS,
    STUDY_METHODS,
    FitSpec,
    make_strategy,
    resolve_sum_to,
)
from .model import ConcentrationMatrix, SpectraSet
from .predict import (
    jackknife_sd,
    prediction_report,
    sep,
)
from .simulate import (
    SCENARIO_PHI,
    SimConfig,
    check_study,
    generate_dataset,
    prediction_spectra,
    run_bias_variance_study,
    run_jackknife_study,
    sample_dirichlet,
    _stream,
)


def _parse_lambda(text: str) -> float | None:
    if text.lower() == "gcv":
        return None
    try:
        value = float(text)
    except ValueError:
        raise InvalidParameterError(
            f"--lambda must be a number or 'gcv', got {text!r}"
        ) from None
    if not 0 <= value < np.inf:
        raise InvalidParameterError("--lambda must be finite and nonnegative")
    return value


def _parse_lambda_grid(text: str) -> np.ndarray:
    try:
        lo, hi, count = text.split(":")
        lo, hi, count = float(lo), float(hi), int(count)
    except ValueError:
        raise InvalidParameterError(
            f"--lambda-grid expects MIN:MAX:COUNT, got {text!r}") from None
    if not 0 < lo < hi < np.inf or count < 1:
        raise InvalidParameterError(
            "--lambda-grid bounds must be finite with 0 < MIN < MAX")
    return np.logspace(np.log10(lo), np.log10(hi), count)


def _parse_sum_to(text: str) -> float | str:
    if text.lower() == "auto":
        return "auto"
    try:
        value = float(text)
        if np.isfinite(value):
            return value
    except ValueError:
        pass
    raise InvalidParameterError(
        f"--sum-to must be 'auto' or a finite number, got {text!r}")


def _add_fit_options(parser: argparse.ArgumentParser, methods: tuple[str, ...],
                     folds: bool = False) -> None:
    """``--method`` and the tuning flags of ``methods``; with ``folds``, also
    ``--sum-to``, which only a jackknife reads.  Each flag's dest is its
    FitSpec field; its default None means "not given"."""
    parser.add_argument("--method", choices=methods, required=True)
    if set(methods) & set(FUNCTIONAL_METHODS):
        parser.add_argument("--num-basis", type=int, default=None,
                            help="basis dimension for fixed-basis methods")
        parser.add_argument("--lambda", dest="lam", default=None,
                            help="smoothing parameter value, or 'gcv' to select")
        parser.add_argument("--lambda-grid", dest="lam_grid", default=None,
                            help="log-spaced selection grid as MIN:MAX:COUNT")
    if set(methods) & set(MULTIVARIATE_METHODS):
        parser.add_argument("--components", type=int, default=None)
        parser.add_argument("--variance-fraction", type=float, default=None)
    if folds:
        parser.add_argument("--sum-to", default=None,
                            help="pin predicted concentration sums ('auto' "
                                 "or a number)")


# The fit flags whose text a parser turns into the FitSpec value.
_FIT_PARSERS = {"lam": _parse_lambda, "lam_grid": _parse_lambda_grid,
                "sum_to": _parse_sum_to}
_FLAG_NAMES = {"lam": "--lambda", "lam_grid": "--lambda-grid"}


def _flag(name: str) -> str:
    """The command line flag of a FitSpec field."""
    return _FLAG_NAMES.get(name, "--" + name.replace("_", "-"))


def _fit_spec(args) -> FitSpec:
    """The fit configuration from the fit flags given; a choice without a
    flag keeps its :class:`FitSpec` default.  A flag the method does not
    read (:data:`methods.READ_FIELDS`) is refused, and so is a selection
    grid beside a fixed ``--lambda``."""
    names = {f.name for f in fields(FitSpec)}
    given = {name: value for name, value in vars(args).items()
             if name in names and value is not None}
    for name in given:
        if name != "method" and name not in READ_FIELDS[args.method]:
            raise InvalidParameterError(
                f"{_flag(name)} is not read by method {args.method}")
    spec = {name: _FIT_PARSERS.get(name, lambda text: text)(value)
            for name, value in given.items()}
    if spec.get("lam") is not None and "lam_grid" in spec:
        # A fixed lambda is used as given: no grid reselects it.
        raise InvalidParameterError(
            f"{_flag('lam_grid')} is not read with a fixed --lambda")
    return FitSpec(**spec)


def _load_pair(args) -> tuple[SpectraSet, ConcentrationMatrix]:
    spectra = io.load_spectra(args.spectra)
    conc = io.load_concentrations(args.concentrations, spectra)
    return spectra, conc


def _cmd_calibrate(args) -> int:
    if args.curve_points < 1:
        raise InvalidParameterError("--curve-points must be at least 1")
    spec = _fit_spec(args)
    io.check_outputs(args.model_out, args.curves_out)
    model = make_strategy(spec).fit(*_load_pair(args))
    io.save_model(model, args.model_out)
    if args.curves_out:
        io.save_curves(model, args.curves_out, num_points=args.curve_points)
    diag = model.diagnostics
    if diag is not None:
        print(f"method={model.method} lambda={model.lam} rss={diag.rss:.6g} "
              f"edf={diag.hat_trace:.3f} "
              f"constraint_max_abs={diag.constraint_max_abs:.3g}")
    return 0


def _cmd_baselines(args) -> int:
    spec = _fit_spec(args)
    io.check_outputs(args.model_out)
    model = make_strategy(spec).fit(*_load_pair(args))
    io.save_model(model, args.model_out)
    print(f"method={model.method} components={model.components} "
          f"variance_fraction={model.variance_fraction}")
    return 0


def _cmd_predict(args) -> int:
    io.check_outputs(args.out)
    model = io.load_model(args.model)
    sum_to = _parse_sum_to(args.sum_to)
    if isinstance(model, MultivariateModel) and sum_to != "auto":
        raise InvalidParameterError(
            f"--sum-to is not read by method {model.method.lower()}")
    spectra = io.load_spectra(args.spectra)
    s_names, s = io.load_spread(args.s_file)
    # A model applies spreads by position, not by name.  A multivariate
    # model file written before analyte names were stored has none to
    # check, and takes the spread file's.
    if model.analytes is None:
        model = replace(model, analytes=s_names)
    elif s_names != model.analytes:
        raise AlignmentError(
            f"{args.s_file}: analytes {list(s_names)} do not match the "
            f"model's {list(model.analytes)}"
        )
    sum_to = (None if isinstance(model, MultivariateModel)
              else resolve_sum_to(sum_to, model.closed_total))
    report = prediction_report(model, spectra, s, c=args.c, sum_to=sum_to)
    io.save_predictions(report, spectra.sample_ids, args.out)
    return 0


def _cmd_jackknife(args) -> int:
    spec = _fit_spec(args)
    io.check_outputs(args.out)
    spectra, conc = _load_pair(args)
    s = jackknife_sd(spectra, conc, spec)
    io.save_spread(conc.analyte_names(), s, args.out)
    return 0


def _cmd_sep(args) -> int:
    io.check_outputs(args.out)
    truth_ids, analytes, truth = io.load_value_table(args.truth)
    pred_ids, _, predictions = io.load_value_table(args.predictions,
                                                   columns=analytes)
    row_index = {sid: k for k, sid in enumerate(pred_ids)}
    missing_rows = [sid for sid in truth_ids if sid not in row_index]
    if missing_rows:
        raise AlignmentError(f"prediction table lacks samples {missing_rows}")
    aligned = predictions[[row_index[sid] for sid in truth_ids]]
    report = sep(truth, aligned)
    io.save_sep(report, analytes, args.out)
    print(f"overall_sep={report.overall!r}")
    return 0


def _scenario_config(args) -> SimConfig:
    phi = args.phi if args.phi is not None else SCENARIO_PHI[args.scenario]
    return SimConfig(
        seed=args.seed,
        num_samples=args.samples,
        sigma2=args.sigma2,
        phi=phi,
    )


def _manifest_payload(cfg: SimConfig, args, extra: dict) -> dict:
    payload = {
        "seed": cfg.seed,
        "num_samples": cfg.num_samples,
        "grid": [cfg.grid_start, cfg.grid_end, cfg.grid_step],
        "alpha": cfg.alpha,
        "sigma2": cfg.sigma2,
        "phi": cfg.phi,
        "scenario": args.scenario,
        "study": args.study,
        "curves": {
            "centers": list(simulate.CURVE_CENTERS),
            "widths": list(simulate.CURVE_WIDTHS),
            "heights": list(simulate.CURVE_HEIGHTS),
            "baseline_level": simulate.BASELINE_LEVEL,
            "num_basis": simulate.CURVE_NUM_BASIS,
            "project_sum_zero": True,
        },
    }
    payload.update(extra)
    return payload


def _cmd_simulate(args) -> int:
    cfg = _scenario_config(args)
    if args.study == "dataset" and args.prediction_samples < 1:
        raise InvalidParameterError("--prediction-samples must be at least 1")
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    if args.study == "jackknife":
        check_study(methods, args.jobs, replicates=args.replicates)
    elif args.study == "bias-variance":
        check_study(methods, args.jobs, learning_sets=args.learning_sets,
                    prediction_reps=args.prediction_reps)
    out_dir = io.ensure_dir(args.out_dir)
    if args.study == "dataset":
        spectra, conc, truth = generate_dataset(cfg)
        pred_y = sample_dirichlet(
            _stream(cfg.seed, 9), args.prediction_samples, cfg.alpha,
            cfg.num_analytes,
        )
        pred_ids = tuple(f"p{j + 1}" for j in range(args.prediction_samples))
        pairs = {
            "cal": (spectra, conc),
            "pred": (replace(prediction_spectra(truth, pred_y, 0, 0),
                             sample_ids=pred_ids),
                     ConcentrationMatrix(values=pred_y, sample_ids=pred_ids)),
        }
        for prefix, (pair_spectra, pair_conc) in pairs.items():
            io.save_spectra(pair_spectra, out_dir / f"{prefix}_spectra.csv")
            io.save_concentrations(pair_conc,
                                   out_dir / f"{prefix}_concentrations.csv")
        io.save_study_rows(
            ["wavelength", "baseline",
             *(f"analyte_{k + 1}" for k in range(cfg.num_analytes))],
            [[g, *truth.curve_values[:, n]]
             for n, g in enumerate(cfg.grid)],
            out_dir / "truth_curves.csv",
        )
        extra = {"prediction_samples": args.prediction_samples}
    elif args.study == "jackknife":
        result = run_jackknife_study(cfg, methods, args.replicates,
                                     jobs=args.jobs)
        io.save_study_rows(["method", "component", "median_sd", "iqr_sd"],
                           result.rows(), out_dir / "jackknife_study.csv")
        extra = {"methods": methods, "replicates": args.replicates,
                 "failures": result.failures}
    else:
        result = run_bias_variance_study(
            cfg, methods, learning_sets=args.learning_sets,
            prediction_reps=args.prediction_reps, jobs=args.jobs,
        )
        io.save_study_rows(["method", "component", "squared_bias", "variability"],
                           result.rows(), out_dir / "bias_variance_study.csv")
        extra = {"methods": methods, "learning_sets": args.learning_sets,
                 "prediction_reps": args.prediction_reps,
                 "failures": result.failures}
    io.save_json(_manifest_payload(cfg, args, extra), out_dir / "manifest.json")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="specal",
        description="Functional calibration and prediction for absorbance spectra",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_cal = sub.add_parser("calibrate", help="fit analyte curves")
    p_cal.add_argument("--spectra", required=True)
    p_cal.add_argument("--concentrations", required=True)
    _add_fit_options(p_cal, FUNCTIONAL_METHODS)
    p_cal.add_argument("--model-out", required=True)
    p_cal.add_argument("--curves-out", default=None)
    p_cal.add_argument("--curve-points", type=int, default=201)
    p_cal.set_defaults(func=_cmd_calibrate)

    p_base = sub.add_parser("baselines", help="fit MLR/PCR/PLS baselines")
    p_base.add_argument("--spectra", required=True)
    p_base.add_argument("--concentrations", required=True)
    _add_fit_options(p_base, MULTIVARIATE_METHODS)
    p_base.add_argument("--model-out", required=True)
    p_base.set_defaults(func=_cmd_baselines)

    p_pred = sub.add_parser("predict", help="predict concentrations")
    p_pred.add_argument("--model", required=True)
    p_pred.add_argument("--spectra", required=True)
    p_pred.add_argument("--s-file", required=True,
                        help="spread file written by jackknife")
    p_pred.add_argument("--c", type=float, default=1.96)
    p_pred.add_argument("--sum-to", default="auto")
    p_pred.add_argument("--out", required=True)
    p_pred.set_defaults(func=_cmd_predict)

    p_jack = sub.add_parser("jackknife", help="leave-one-out spread estimates")
    p_jack.add_argument("--spectra", required=True)
    p_jack.add_argument("--concentrations", required=True)
    _add_fit_options(p_jack, FUNCTIONAL_METHODS + MULTIVARIATE_METHODS,
                     folds=True)
    p_jack.add_argument("--out", required=True)
    p_jack.set_defaults(func=_cmd_jackknife)

    p_sep = sub.add_parser("sep", help="standard error of prediction")
    p_sep.add_argument("--truth", required=True)
    p_sep.add_argument("--predictions", required=True)
    p_sep.add_argument("--out", required=True)
    p_sep.set_defaults(func=_cmd_sep)

    p_sim = sub.add_parser("simulate", help="synthetic data and studies")
    p_sim.add_argument("--study", choices=["dataset", "jackknife", "bias-variance"],
                       required=True)
    p_sim.add_argument("--scenario", choices=["weak", "strong"], default="weak")
    p_sim.add_argument("--phi", type=float, default=None,
                       help="override the scenario decay rate")
    p_sim.add_argument("--sigma2", type=float, default=4.0)
    p_sim.add_argument("--samples", type=int, default=20)
    p_sim.add_argument("--seed", type=int, default=1)
    p_sim.add_argument("--replicates", type=int, default=200)
    p_sim.add_argument("--learning-sets", type=int, default=40)
    p_sim.add_argument("--prediction-reps", type=int, default=5)
    p_sim.add_argument("--prediction-samples", type=int, default=8)
    p_sim.add_argument("--methods", default="OLS-K,OLS-SS,MLR,PCR-p,PLS-p",
                       help=f"comma list from {sorted(STUDY_METHODS)}")
    p_sim.add_argument("--jobs", type=int, default=1)
    p_sim.add_argument("--out-dir", required=True)
    p_sim.set_defaults(func=_cmd_simulate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with _blas.one_thread(), warnings.catch_warnings():
            # A library warning is one stderr line, without its source.
            warnings.showwarning = lambda message, *_: print(
                f"warning: {message}", file=sys.stderr)
            return args.func(args)
    except SpecalError as exc:
        print(f"error[{exc.category}]: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
