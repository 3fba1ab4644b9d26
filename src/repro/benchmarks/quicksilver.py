"""A Quicksilver-class Monte Carlo particle-transport proxy.

§7 points at the ECP Proxy Applications suite [9] as the community's shared
benchmark pool; Quicksilver (MC dynamic transport) is one of its staples and
has a very different performance signature from saxpy/AMG/STREAM — RNG- and
branch-heavy, latency-bound, with a *segments per second* figure of merit.

The physics here is a deliberately simplified mono-energetic slab problem
with honest Monte Carlo mechanics:

* particles start at the center of a 1-D slab of width ``L`` mean free
  paths, direction sampled isotropically;
* flight lengths are sampled from the exponential distribution with total
  cross-section Σt; at each collision the particle is absorbed with
  probability Σa/Σt or scattered isotropically otherwise;
* particles leak when they cross either slab face.

Everything is vectorized NumPy over the surviving-particle mask (per the
HPC-Python guides: no per-particle Python loops), deterministic per seed,
and statistically *validated*: the mean flight length must converge to
1/Σt, and absorption + leakage must account for every particle.

Output mirrors Quicksilver's: ``Figure Of Merit: <segments/s>`` plus tally
lines, with an ``MC done`` marker for success criteria.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .simmpi import SimWorld

__all__ = ["run_quicksilver", "QuicksilverResult", "run_command", "main"]


@dataclass
class QuicksilverResult:
    n_particles: int
    n_ranks: int
    slab_width_mfp: float
    absorption_ratio: float  # Σa/Σt
    segments: int
    absorbed: int
    leaked: int
    mean_flight_length: float
    elapsed_seconds: float

    @property
    def fom_segments_per_second(self) -> float:
        if self.elapsed_seconds <= 0:
            return 0.0
        return self.segments / self.elapsed_seconds

    def report(self) -> str:
        return "\n".join([
            f"Quicksilver proxy: {self.n_particles} particles, "
            f"slab {self.slab_width_mfp} mfp, ranks = {self.n_ranks}",
            f"segments: {self.segments}",
            f"absorbed: {self.absorbed}  leaked: {self.leaked}",
            f"mean flight length: {self.mean_flight_length:.4f} "
            f"(analytic 1.0000)",
            f"Figure Of Merit: {self.fom_segments_per_second:.6e} segments/s",
            "MC done",
        ])


def run_quicksilver(
    n_particles: int = 100_000,
    slab_width_mfp: float = 10.0,
    absorption_ratio: float = 0.3,
    n_ranks: int = 1,
    seed: int = 20231112,
    world: Optional[SimWorld] = None,
) -> QuicksilverResult:
    """Run the transport proxy (lengths in units of the mean free path,
    so Σt = 1 and flight lengths are Exp(1))."""
    if n_particles < 1:
        raise ValueError(f"need at least 1 particle, got {n_particles}")
    if slab_width_mfp <= 0:
        raise ValueError(f"slab width must be positive, got {slab_width_mfp}")
    if not (0.0 < absorption_ratio <= 1.0):
        raise ValueError(
            f"absorption ratio must be in (0, 1], got {absorption_ratio}"
        )
    rng = np.random.default_rng(seed)
    half = slab_width_mfp / 2.0

    x = np.zeros(n_particles)
    mu = rng.uniform(-1.0, 1.0, size=n_particles)  # direction cosine

    alive = np.ones(n_particles, dtype=bool)
    segments = 0
    absorbed = 0
    leaked = 0
    total_flight = 0.0

    t0 = time.perf_counter()
    while alive.any():
        idx = np.flatnonzero(alive)
        flight = rng.exponential(1.0, size=idx.size)
        total_flight += float(flight.sum())
        segments += idx.size
        x[idx] += mu[idx] * flight

        out = np.abs(x[idx]) > half
        leaked += int(out.sum())
        alive[idx[out]] = False

        in_idx = idx[~out]
        if in_idx.size:
            absorb = rng.random(in_idx.size) < absorption_ratio
            absorbed += int(absorb.sum())
            alive[in_idx[absorb]] = False
            scatter_idx = in_idx[~absorb]
            mu[scatter_idx] = rng.uniform(-1.0, 1.0, size=scatter_idx.size)
    elapsed = time.perf_counter() - t0

    comm_seconds = 0.0
    if n_ranks > 1:
        # Domain-replicated MC: each rank tracks n/p particles; the tallies
        # are reduced at the end (Quicksilver's cycleTracking + reduce).
        world = world or SimWorld(n_ranks)
        world.allreduce([np.zeros(4)] * n_ranks)  # 4 tallies
        comm_seconds = world.sim_time
        elapsed = elapsed / n_ranks + comm_seconds

    return QuicksilverResult(
        n_particles=n_particles,
        n_ranks=n_ranks,
        slab_width_mfp=slab_width_mfp,
        absorption_ratio=absorption_ratio,
        segments=segments,
        absorbed=absorbed,
        leaked=leaked,
        mean_flight_length=total_flight / segments if segments else 0.0,
        elapsed_seconds=elapsed,
    )


_PARSER = argparse.ArgumentParser(
    prog="qs", description="Quicksilver-class MC transport proxy"
)
_PARSER.add_argument("-n", type=int, default=100_000, help="particles")
_PARSER.add_argument("--slab", type=float, default=10.0,
                     help="slab width in mean free paths")
_PARSER.add_argument("--absorption", type=float, default=0.3)
_PARSER.add_argument("--ranks", type=int, default=1)


def run_command(argv: Optional[List[str]], ranks: int = 1,
                interconnect=None) -> QuicksilverResult:
    """Run ``qs argv`` on max(``--ranks``, the launcher's ``ranks``)."""
    args = _PARSER.parse_args(argv)
    n_ranks = max(args.ranks, ranks)
    world = SimWorld(n_ranks, interconnect) if n_ranks > 1 else None
    return run_quicksilver(args.n, args.slab, args.absorption,
                           n_ranks=n_ranks, world=world)


def main(argv: Optional[List[str]] = None) -> int:
    result = run_command(argv)
    print(result.report())
    ok = result.absorbed + result.leaked == result.n_particles
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
