"""Mini-Thicket: exploratory data analysis over many profiles (§5, [5, 24]).

"Thicket composes performance data from multiple performance profiles
potentially generated at different scales, on different architectures, using
different versions of dependencies" — here, an :class:`Ensemble` of Caliper
:class:`~repro.analysis.caliper.Profile` objects with

* a metadata table (one row per profile, from Adiak),
* per-region metric access across the ensemble,
* filter / groupby over metadata (by system, by nprocs, …),
* statistics per region (mean/std/min/max) across grouped profiles, and
* a bridge to Extra-P: :meth:`Ensemble.model_scaling` fits a PMNF model of a
  region metric versus a metadata column — which is precisely how Figure 14
  was produced from MPI_Bcast measurements on CTS.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Sequence

import numpy as np

from .caliper import Profile
from .extrap import Measurement, PerformanceModel, fit_model

__all__ = ["Ensemble", "ThicketError"]


class ThicketError(ValueError):
    pass


class Ensemble:
    """A set of profiles composed for cross-run analysis."""

    def __init__(self, profiles: Sequence[Profile]):
        self.profiles: List[Profile] = list(profiles)
        if not self.profiles:
            raise ThicketError("ensemble needs at least one profile")

    @classmethod
    def from_profiles(cls, profiles: Sequence[Profile]) -> "Ensemble":
        return cls(profiles)

    # -- metadata table --------------------------------------------------
    def metadata_columns(self) -> List[str]:
        cols: set = set()
        for p in self.profiles:
            cols.update(p.metadata)
        return sorted(cols)

    def metadata_table(self) -> List[Dict[str, Any]]:
        return [dict(p.metadata) for p in self.profiles]

    # -- region metrics -----------------------------------------------------
    def region_names(self) -> List[str]:
        names: set = set()
        for p in self.profiles:
            names.update(p.regions())
        return sorted(names)

    def metric(self, region: str, metric: str = "inclusive") -> np.ndarray:
        """One value per profile for a region metric; NaN where the region
        is absent from that profile.  A region absent from *every* profile
        is an error naming the regions that do exist — a silent all-NaN
        vector just defers the confusion to whatever consumes it."""
        out = []
        found = False
        for p in self.profiles:
            node = p.regions().get(region)
            if node is None:
                out.append(np.nan)
            else:
                found = True
                out.append(getattr(node, metric))
        if not found:
            raise ThicketError(
                f"region {region!r} absent from all profiles; "
                f"available regions: {', '.join(self.region_names())}"
            )
        return np.array(out, dtype=float)

    # -- filter / groupby -------------------------------------------------------
    def filter(self, predicate: Callable[[Dict[str, Any]], bool]) -> "Ensemble":
        kept = [p for p in self.profiles if predicate(p.metadata)]
        if not kept:
            raise ThicketError("filter removed every profile")
        return Ensemble(kept)

    def groupby(self, key: str) -> Dict[Any, "Ensemble"]:
        groups: Dict[Any, List[Profile]] = {}
        for p in self.profiles:
            if key not in p.metadata:
                raise ThicketError(f"profile missing metadata key {key!r}")
            groups.setdefault(p.metadata[key], []).append(p)
        return {k: Ensemble(v) for k, v in sorted(groups.items(), key=lambda kv: str(kv[0]))}

    # -- statistics -------------------------------------------------------------
    def stats(self, region: str, metric: str = "inclusive") -> Dict[str, float]:
        values = self.metric(region, metric)
        values = values[~np.isnan(values)]
        if values.size == 0:
            raise ThicketError(f"region {region!r} absent from all profiles")
        return {
            "mean": float(np.mean(values)),
            "std": float(np.std(values)),
            "min": float(np.min(values)),
            "max": float(np.max(values)),
            "count": int(values.size),
        }

    def _metric_matrix(self, metric: str = "inclusive"
                       ) -> tuple:
        """(regions, regions × profiles float matrix) built in a single
        pass over the profiles; NaN marks region-absent-from-profile."""
        regions = self.region_names()
        row_of = {r: k for k, r in enumerate(regions)}
        matrix = np.full((len(regions), len(self.profiles)), np.nan)
        for col, p in enumerate(self.profiles):
            for path, node in p.regions().items():
                matrix[row_of[path], col] = getattr(node, metric)
        return regions, matrix

    def stats_frame(self, metric: str = "inclusive") -> Dict[str, Dict[str, float]]:
        """Per-region statistics across the ensemble, computed as single
        numpy passes over the region × profile matrix instead of one
        metric() scan per region."""
        regions, matrix = self._metric_matrix(metric)
        if not regions:
            return {}
        counts = np.sum(~np.isnan(matrix), axis=1)
        means = np.nanmean(matrix, axis=1)
        stds = np.nanstd(matrix, axis=1)
        mins = np.nanmin(matrix, axis=1)
        maxs = np.nanmax(matrix, axis=1)
        return {
            r: {
                "mean": float(means[k]),
                "std": float(stds[k]),
                "min": float(mins[k]),
                "max": float(maxs[k]),
                "count": int(counts[k]),
            }
            for k, r in enumerate(regions)
        }

    # -- Extra-P bridge ------------------------------------------------------------
    def model_scaling(
        self,
        region: str,
        scale_key: str = "nprocs",
        metric: str = "inclusive",
    ) -> PerformanceModel:
        """Fit an Extra-P model of ``region``'s metric versus a numeric
        metadata column (e.g. nprocs) — the Figure 14 pipeline."""
        xs: List[float] = []
        ys: List[float] = []
        for p in self.profiles:
            if scale_key not in p.metadata:
                raise ThicketError(f"profile missing metadata key {scale_key!r}")
            node = p.regions().get(region)
            if node is None:
                continue
            xs.append(float(p.metadata[scale_key]))
            ys.append(float(getattr(node, metric)))
        if not xs:
            raise ThicketError(
                f"region {region!r} absent from all profiles; "
                f"available regions: {', '.join(self.region_names())}"
            )
        return fit_model([Measurement(x, y) for x, y in zip(xs, ys)])

    # -- display ------------------------------------------------------------
    def tree(self, metric: str = "inclusive") -> str:
        """Thicket-style tree display: the union call tree with per-region
        mean/std of ``metric`` across the ensemble."""
        lines = [f"{'region':<40} {'mean':>12} {'std':>12} {'count':>6}"]

        def visit(node, depth: int) -> None:
            stats = self.stats(node.path, metric)
            label = "  " * depth + node.name
            lines.append(
                f"{label:<40} {stats['mean']:>12.6f} {stats['std']:>12.6f} "
                f"{stats['count']:>6}"
            )
            for child in node.children.values():
                visit(child, depth + 1)

        # Union structure: walk the first profile containing each root.
        seen_roots = set()
        for profile in self.profiles:
            for child in profile.root.children.values():
                if child.name not in seen_roots:
                    seen_roots.add(child.name)
                    visit(child, 0)
        return "\n".join(lines)

    def __len__(self) -> int:
        return len(self.profiles)
