#!/usr/bin/env python3
"""Procurement-style benchmarking: the §1/§7 scenario.

"During the procurement of a system, benchmarking is used to communicate
HPC center workloads with HPC vendors … benchmarks have been very much a
one-off or fairly static code base" — Benchpark instead freezes a *suite*
(a versioned set of experiment definitions) and runs it identically on
every proposed system.

This example runs the frozen ``procurement`` suite on all three paper
systems plus a cloud alternative, aggregates everything into the metrics
database, and renders the cross-system dashboard a procurement team would
compare vendors with.

Usage:  python examples/procurement_suite.py
"""

import tempfile
from pathlib import Path

from repro.analysis.dashboard import render_report
from repro.ci.metricsdb import MetricsDatabase
from repro.core.suite import get_suite, run_suite

SYSTEMS = ("cts1", "ats2", "ats4", "cloud-c6i")


def main() -> int:
    suite = get_suite("procurement")
    print(f"suite {suite.name!r} v{suite.version}: {suite.description}")
    print(f"experiments: {', '.join(suite.experiments)}\n")

    db = MetricsDatabase()
    with tempfile.TemporaryDirectory() as tmp:
        for system in SYSTEMS:
            run = run_suite("procurement", system, Path(tmp) / system, db=db)
            print(run.summary())
            print()

    print(render_report(db, title="Procurement comparison dashboard"))

    # The §7 claim: identical specifications ran everywhere; the comparison
    # is apples to apples because every record carries its manifest.
    manifests = {
        record.system: record.manifest.get("n")
        for record in db.query(benchmark="amg2023", fom_name="fom_solve")
    }
    assert len(set(manifests.values())) == 1, \
        "every system must have run the identical problem specification"
    print("\nidentical problem specifications confirmed on every system "
          f"(n = {next(iter(manifests.values()))}).")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
