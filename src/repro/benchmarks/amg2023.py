"""AMG2023 command-line entry point.

Mirrors the real AMG2023 binary's interface closely enough for Benchpark's
``application.py`` (``amg -problem 1 -n {n} ...``):

    python -m repro.benchmarks.amg2023 -problem 1 -n 16 -ranks 8

Prints the FOM lines Benchpark's figures of merit parse (see
:mod:`repro.benchmarks.amg.solver`).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from . import amg
from .simmpi import SimWorld

__all__ = ["run_command", "main"]

_PARSER = argparse.ArgumentParser(
    prog="amg", description="AMG2023 proxy benchmark"
)
_PARSER.add_argument("-problem", type=int, default=1, choices=(1, 2, 3),
                     help="1: 3D 7-pt Laplace, 2: 2D anisotropic, 3: 3D 27-pt")
_PARSER.add_argument("-n", type=int, default=16,
                     help="grid points per dimension")
_PARSER.add_argument("-ranks", type=int, default=1,
                     help="simulated MPI ranks")
_PARSER.add_argument("-solver", choices=("pcg", "amg"), default="pcg")
_PARSER.add_argument("-smoother", choices=("jacobi", "gauss_seidel"),
                     default="jacobi")
_PARSER.add_argument("-gamma", type=int, default=1,
                     help="cycle index: 1=V, 2=W")
_PARSER.add_argument("-tol", type=float, default=1e-8)


def run_command(argv: Optional[List[str]], ranks: int = 1,
                interconnect=None) -> amg.AmgResult:
    """Run ``amg argv`` on max(``-ranks``, the launcher's ``ranks``).  The
    solver is read from the package at call time, so a wrapper set on
    ``repro.benchmarks.amg.run_amg`` takes effect."""
    args = _PARSER.parse_args(argv)
    n_ranks = max(args.ranks, ranks)
    return amg.run_amg(
        problem=args.problem,
        n=args.n,
        n_ranks=n_ranks,
        solver=args.solver,
        smoother=args.smoother,
        gamma=args.gamma,
        tol=args.tol,
        world=SimWorld(n_ranks, interconnect) if n_ranks > 1 else None,
    )


def main(argv: Optional[List[str]] = None) -> int:
    result = run_command(argv)
    print(result.report())
    return 0 if result.stats.converged else 1


if __name__ == "__main__":
    sys.exit(main())
