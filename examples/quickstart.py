#!/usr/bin/env python3
"""Quickstart: the paper's Figure 1c workflow in nine steps.

Runs the saxpy benchmark suite on the simulated cts1 system exactly as a
Benchpark user would:

    /bin/benchpark $experiment $system $workspace_dir
    ramble workspace setup && ramble on && ramble workspace analyze

Usage:  python examples/quickstart.py [experiment] [system]
        python examples/quickstart.py saxpy/openmp cts1
"""

import sys
import tempfile
from pathlib import Path

from repro.core.driver import benchpark_setup


def main() -> int:
    experiment = sys.argv[1] if len(sys.argv) > 1 else "saxpy/openmp"
    system = sys.argv[2] if len(sys.argv) > 2 else "cts1"

    with tempfile.TemporaryDirectory() as tmp:
        workspace = Path(tmp) / "workspace"
        print(f"$ benchpark setup {experiment} {system} {workspace}\n")

        # Steps 2-4: generate the workspace from the experiment template and
        # the system profile.
        session = benchpark_setup(experiment, system, workspace)

        # Steps 5-6: ramble workspace setup (builds software through Spack).
        experiments = session.setup()
        print(f"workspace setup: {len(experiments)} experiments generated")
        for exp in experiments:
            print(f"  {exp.name:<28} ranks={exp.variables['n_ranks']}")
        installed = sorted(
            {r.spec.name for r in session.runtime.store.all_records()}
        )
        print(f"software installed via Spack: {', '.join(installed)}\n")

        # Step 8: ramble on.
        outcomes = session.run()
        failures = [o for o in outcomes if o["returncode"] != 0]
        print(f"ramble on: ran {len(outcomes)} experiments, "
              f"{len(failures)} failures\n")

        # Step 9: ramble workspace analyze.
        results = session.analyze()
        print(f"{'experiment':<28} {'status':<9} figures of merit")
        for record in results["experiments"]:
            foms = ", ".join(
                f"{f['name']}={f['value']}{f['units'] and ' ' + f['units']}"
                for f in record["figures_of_merit"]
                if f["name"] != "success"
            )
            print(f"{record['name']:<28} {record['status']:<9} {foms}")

        print("\nworkflow steps executed:")
        for step in session.steps:
            print(f"  {step}")
        return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
