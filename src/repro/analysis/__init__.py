"""Analysis stack (paper §5): Caliper profiles, Adiak metadata, Thicket
ensembles, Extra-P scaling models, and the results dashboard."""

from . import adiak
from .caliper import CaliperSession, Profile, RegionNode, annotate, global_session, region
from .diagnosis import FOM_SUBSYSTEMS, FailureHypothesis, diagnose
from .dashboard import ascii_plot, render_grid, render_report, render_series
from .engine import AnalysisEngine, SeriesState
from .extrap import (
    DEFAULT_EXPONENTS,
    Measurement,
    MultiTermModel,
    PerformanceModel,
    clear_model_cache,
    fit_model,
    fit_multi_term_model,
    model_cache,
)
from .regression import RegressionDetector, RegressionEvent
from .scaling import ScalingPoint, classify_scaling, strong_scaling, weak_scaling
from .thicket import Ensemble, ThicketError

__all__ = [
    "AnalysisEngine",
    "CaliperSession",
    "SeriesState",
    "clear_model_cache",
    "model_cache",
    "DEFAULT_EXPONENTS",
    "Ensemble",
    "FOM_SUBSYSTEMS",
    "FailureHypothesis",
    "Measurement",
    "MultiTermModel",
    "PerformanceModel",
    "Profile",
    "RegressionDetector",
    "RegressionEvent",
    "RegionNode",
    "ThicketError",
    "adiak",
    "annotate",
    "ascii_plot",
    "diagnose",
    "fit_model",
    "fit_multi_term_model",
    "global_session",
    "region",
    "render_grid",
    "render_report",
    "render_series",
    "ScalingPoint",
    "classify_scaling",
    "strong_scaling",
    "weak_scaling",
]
