"""Benchmark suite templates — Figure 1c step 2's "benchmark suite template".

A *suite* is a named collection of experiments that runs as a unit: the
artifact an HPC center hands to vendors during procurement (§1), or freezes
in time for acceptance testing (§7: benchmarks "being 'frozen' in time for
procurement purposes").  Suites are plain data — benchmark/variant pairs —
so they live in version control next to the experiment definitions, and a
suite run produces one workspace per experiment plus an aggregated result
set in the metrics database.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Optional

from repro.ci.metricsdb import MetricsDatabase

from .driver import BenchparkError, benchpark_setup
from .layout import EXPERIMENT_VARIANTS

__all__ = ["SuiteDefinition", "SuiteRun", "BUILTIN_SUITES", "get_suite", "run_suite"]


@dataclass(frozen=True)
class SuiteDefinition:
    """A named, versioned set of experiments."""

    name: str
    description: str
    experiments: tuple
    version: str = "1.0"

    def validate(self) -> None:
        if not self.experiments:
            raise BenchparkError(f"suite {self.name!r} has no experiments")
        for experiment in self.experiments:
            benchmark, _, variant = experiment.partition("/")
            if benchmark not in EXPERIMENT_VARIANTS:
                raise BenchparkError(
                    f"suite {self.name!r}: unknown benchmark {benchmark!r}"
                )
            if variant and variant not in EXPERIMENT_VARIANTS[benchmark]:
                raise BenchparkError(
                    f"suite {self.name!r}: {benchmark} has no variant {variant!r}"
                )


BUILTIN_SUITES: Dict[str, SuiteDefinition] = {
    suite.name: suite
    for suite in (
        SuiteDefinition(
            name="smoke",
            description="minimal correctness sweep (one tiny run per benchmark)",
            experiments=("saxpy/openmp", "stream/openmp"),
        ),
        SuiteDefinition(
            name="procurement",
            description="the paper's §4 demonstration set, frozen for "
                        "procurement-style evaluation",
            experiments=("saxpy/openmp", "amg2023/openmp",
                         "osu-micro-benchmarks/mpi"),
        ),
        SuiteDefinition(
            name="gpu-acceptance",
            description="GPU programming-model coverage for accelerated systems",
            experiments=("saxpy/cuda", "amg2023/cuda"),
        ),
    )
}


def get_suite(name: str) -> SuiteDefinition:
    try:
        suite = BUILTIN_SUITES[name]
    except KeyError:
        raise BenchparkError(
            f"unknown suite {name!r}; known: {sorted(BUILTIN_SUITES)}"
        ) from None
    suite.validate()
    return suite


@dataclass
class SuiteRun:
    """Outcome of running a suite on one system."""

    suite: SuiteDefinition
    system: str
    db: MetricsDatabase
    statuses: Dict[str, bool] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return bool(self.statuses) and all(self.statuses.values())

    def summary(self) -> str:
        lines = [
            f"suite {self.suite.name!r} v{self.suite.version} on {self.system}: "
            f"{'PASS' if self.passed else 'FAIL'}",
        ]
        for experiment, ok in self.statuses.items():
            lines.append(f"  {experiment:<30} {'ok' if ok else 'FAILED'}")
        lines.append(f"  {len(self.db)} FOM records collected")
        return "\n".join(lines)


def run_suite(
    suite_name: str,
    system: str,
    workdir: Path | str,
    db: Optional[MetricsDatabase] = None,
) -> SuiteRun:
    """Run every experiment of a suite on a system; FOMs land in one
    metrics database (shared across suites when passed in)."""
    suite = get_suite(suite_name)
    db = db if db is not None else MetricsDatabase()
    run = SuiteRun(suite=suite, system=system, db=db)
    workdir = Path(workdir)
    for experiment in suite.experiments:
        session = benchpark_setup(
            experiment, system, workdir / experiment.replace("/", "-")
        )
        results = session.run_all()
        db.ingest_analysis(system, results)
        run.statuses[experiment] = all(
            e["status"] == "SUCCESS" for e in results["experiments"]
        )
    return run
