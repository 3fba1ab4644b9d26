"""Incremental analysis engine (exaCB-style incremental result analysis).

``AnalysisEngine`` feeds each series' :class:`~repro.analysis.regression.SeriesState`
(the one regression scorer) only the records appended to the metrics
database since its last scan, timing each stage as a Caliper region.
"""

from .core import AnalysisEngine

__all__ = ["AnalysisEngine"]
