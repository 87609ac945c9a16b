"""Functional calibration and concentration prediction for absorbance spectra."""

from .basis import (
    BasisDesign,
    KnotVector,
    PenaltyMatrix,
    design_matrix,
    knots_from_grid,
    make_knots,
    penalty_matrix,
)
from .model import (
    AggregatedDesign,
    CalibrationModel,
    ConcentrationMatrix,
    SpectraSet,
    assemble_design,
)
from .calibrate import (
    CovarianceModel,
    FitDiagnostics,
    fit_covariance,
    fit_gls,
    fit_ols,
    fit_penalized,
    gcv_score,
    select_lambda,
)
from .predict import (
    PredictionReport,
    SepReport,
    confidence_intervals,
    jackknife_sd,
    predict_concentrations,
    sep,
)
from .baselines import (
    MultivariateModel,
    fit_mlr,
    fit_pcr,
    fit_pls,
    predict_multivariate,
)

__version__ = "0.1.0"

__all__ = [
    "AggregatedDesign",
    "BasisDesign",
    "CalibrationModel",
    "ConcentrationMatrix",
    "CovarianceModel",
    "FitDiagnostics",
    "KnotVector",
    "MultivariateModel",
    "PenaltyMatrix",
    "PredictionReport",
    "SepReport",
    "SpectraSet",
    "assemble_design",
    "confidence_intervals",
    "design_matrix",
    "fit_covariance",
    "fit_gls",
    "fit_mlr",
    "fit_ols",
    "fit_pcr",
    "fit_penalized",
    "fit_pls",
    "gcv_score",
    "jackknife_sd",
    "knots_from_grid",
    "make_knots",
    "penalty_matrix",
    "predict_concentrations",
    "predict_multivariate",
    "select_lambda",
    "sep",
]
