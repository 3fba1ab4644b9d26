"""The ``benchpark`` command-line interface.

Mirrors the paper's Figure 1c step 2::

    benchpark setup <experiment> <system> <workspace_dir>

plus the obvious companions:

    benchpark list systems|benchmarks|experiments
    benchpark run <workspace_dir> <system>
    benchpark analyze <workspace_dir>
    benchpark tree <dir>            # generate the Figure 1a repo layout
    benchpark table1                # regenerate Table 1
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="benchpark",
        description="Collaborative continuous benchmarking for HPC "
                    "(SC-W 2023 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_setup = sub.add_parser("setup", help="generate a workspace (Fig 1c steps 2-4)")
    p_setup.add_argument("experiment", help="<benchmark>[/<variant>], e.g. saxpy/openmp")
    p_setup.add_argument("system", help="system profile name, e.g. cts1")
    p_setup.add_argument("workspace_dir")
    p_setup.add_argument("--full", action="store_true",
                         help="also run setup/on/analyze (steps 5-9)")

    p_run = sub.add_parser("run", help="execute a prepared workspace (ramble on)")
    p_run.add_argument("workspace_dir")
    p_run.add_argument("system")

    p_analyze = sub.add_parser("analyze", help="extract FOMs (workspace analyze)")
    p_analyze.add_argument("workspace_dir")

    p_list = sub.add_parser("list", help="list known entities")
    p_list.add_argument("what", choices=("systems", "benchmarks", "experiments"))

    p_tree = sub.add_parser("tree", help="generate the Benchpark repo layout (Fig 1a)")
    p_tree.add_argument("directory")

    sub.add_parser("table1", help="print the regenerated Table 1")

    p_suite = sub.add_parser("suite", help="run a named benchmark suite")
    p_suite.add_argument("suite_name")
    p_suite.add_argument("system")
    p_suite.add_argument("workdir")

    p_report = sub.add_parser(
        "report", help="render the dashboard of a continuous-benchmarking campaign")
    p_report.add_argument("workdir", help="campaign workdir holding its journal")

    p_archive = sub.add_parser(
        "archive", help="bundle a workspace into a shareable manifest+results file")
    p_archive.add_argument("workspace_dir")
    p_archive.add_argument("output_json")

    p_restore = sub.add_parser(
        "restore", help="recreate a runnable workspace from an archive")
    p_restore.add_argument("archive_json")
    p_restore.add_argument("workspace_dir")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)

    if args.command == "setup":
        from .driver import BenchparkError, benchpark_setup

        try:
            session = benchpark_setup(args.experiment, args.system,
                                      args.workspace_dir)
        except (BenchparkError, KeyError) as e:
            print(f"error: {e}", file=sys.stderr)
            return 2
        for step in session.steps:
            print(step)
        if args.full:
            results = session.run_all()
            for step in session.steps[3:]:
                print(step)
            ok = all(e["status"] == "SUCCESS" for e in results["experiments"])
            print(f"{len(results['experiments'])} experiments, "
                  f"{'all SUCCESS' if ok else 'FAILURES present'}")
            return 0 if ok else 1
        print(f"workspace ready at {args.workspace_dir}")
        return 0

    if args.command == "run":
        from repro.ramble import Workspace
        from repro.systems import SystemExecutor, get_system

        ws = Workspace(args.workspace_dir)
        outcomes = ws.run(SystemExecutor(get_system(args.system)))
        bad = [o for o in outcomes if o["returncode"] != 0]
        print(f"ran {len(outcomes)} experiments, {len(bad)} failed")
        return 1 if bad else 0

    if args.command == "analyze":
        from repro.ramble import Workspace

        ws = Workspace(args.workspace_dir)
        results = ws.analyze()
        print(json.dumps(results, indent=2, sort_keys=True))
        return 0

    if args.command == "list":
        if args.what == "systems":
            from repro.systems import SYSTEMS

            for name, desc in sorted(SYSTEMS.items()):
                gpu = f" + {desc.gpu.count_per_node}x {desc.gpu.model}" if desc.gpu else ""
                print(f"{name:<12} {desc.site:<6} {desc.nodes} nodes, "
                      f"{desc.cores_per_node} cores ({desc.cpu_target}){gpu}")
        elif args.what == "benchmarks":
            from repro.ramble import builtin_applications

            for name in builtin_applications().all_names():
                print(name)
        else:
            from .layout import EXPERIMENT_VARIANTS

            for benchmark, variants in sorted(EXPERIMENT_VARIANTS.items()):
                for variant in variants:
                    print(f"{benchmark}/{variant}")
        return 0

    if args.command == "tree":
        from .layout import generate_benchpark_tree, render_tree

        root = generate_benchpark_tree(Path(args.directory))
        print(render_tree(root))
        return 0

    if args.command == "table1":
        from .components import render_table1

        print(render_table1())
        return 0

    if args.command == "report":
        from repro.analysis import render_report
        from .continuous import ContinuousBenchmarking

        try:
            campaign = ContinuousBenchmarking.open(args.workdir)
        except (OSError, ValueError, KeyError, TypeError) as e:
            print(f"error: cannot load {args.workdir}: {e}", file=sys.stderr)
            return 2
        print(render_report(campaign.db))
        return 0

    if args.command == "suite":
        from .driver import BenchparkError
        from .suite import run_suite

        try:
            run = run_suite(args.suite_name, args.system, args.workdir)
        except (BenchparkError, KeyError) as e:
            print(f"error: {e}", file=sys.stderr)
            return 2
        print(run.summary())
        return 0 if run.passed else 1

    if args.command == "archive":
        from repro.ramble import Workspace, archive_workspace, save_archive

        ws = Workspace(args.workspace_dir)
        bundle = archive_workspace(ws)
        save_archive(bundle, args.output_json)
        print(f"archived {len(bundle['experiments'])} experiments "
              f"(manifest {bundle['manifest_hash']}) to {args.output_json}")
        return 0

    if args.command == "restore":
        from repro.ramble import load_archive, restore_workspace
        from repro.ramble.archive import ArchiveError

        try:
            bundle = load_archive(args.archive_json)
        except (ArchiveError, OSError, ValueError) as e:
            print(f"error: {e}", file=sys.stderr)
            return 2
        ws = restore_workspace(bundle, args.workspace_dir)
        experiments = ws.setup()
        print(f"restored workspace at {args.workspace_dir} with "
              f"{len(experiments)} experiments (manifest "
              f"{bundle['manifest_hash']})")
        return 0

    return 2  # unreachable


if __name__ == "__main__":
    sys.exit(main())
