"""Incremental analysis engine (exaCB-style incremental result analysis).

``SeriesState`` — incremental regression statistics, bit-identical to batch
recomputation.  ``AnalysisEngine`` — feeds each series' ``SeriesState`` only
the records appended to the metrics database since its last scan, and
memoizes Extra-P fits per series, with per-stage Profiler timings.
"""

from .core import AnalysisEngine
from .incremental import SeriesState

__all__ = ["AnalysisEngine", "SeriesState"]
