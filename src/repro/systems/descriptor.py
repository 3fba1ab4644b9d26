"""System descriptors — the simulated stand-ins for real HPC systems (§4).

The paper demonstrates Benchpark on three LLNL systems:

* **cts1** — CPU-only Intel Xeon commodity cluster (Slurm, OmniPath);
* **ats2** — IBM Power9 + NVIDIA V100 (Sierra-class, LSF/jsrun, InfiniBand);
* **ats4 EAS** — AMD Trento + MI-250X (El Capitan early access, Flux, Slingshot).

A :class:`SystemDescriptor` carries everything the rest of the stack needs:
node counts and layout (for the scheduler), per-core/GPU compute rates and
memory bandwidths (for the performance models), the interconnect (for the
MPI cost model), the scheduler/launcher commands (for ``variables.yaml``),
and the system's Spack configuration (compilers, externals — Figure 4).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

__all__ = ["GpuSpec", "InterconnectSpec", "SystemDescriptor"]


@dataclass(frozen=True)
class GpuSpec:
    """An accelerator model attached to each node."""

    model: str
    count_per_node: int
    memory_gb: float
    #: peak double-precision rate per GPU, in GFLOP/s
    fp64_gflops: float
    #: device memory bandwidth, GB/s
    mem_bw_gbs: float
    #: programming model variant this GPU implies (cuda / rocm)
    runtime: str = "cuda"


@dataclass(frozen=True)
class InterconnectSpec:
    """Network fabric parameters used by the MPI cost model."""

    name: str
    #: point-to-point latency, microseconds
    latency_us: float
    #: per-link bandwidth, GB/s
    bandwidth_gbs: float
    #: collective algorithm family: "binomial" (log p trees) or
    #: "contended" (linear-in-p serialization, old fabrics / oversubscribed)
    collective_algo: str = "binomial"
    #: fraction of extra cost per additional rank for contended fabrics
    contention_factor: float = 0.0


@dataclass
class SystemDescriptor:
    """Full description of one HPC system."""

    name: str
    site: str
    nodes: int
    cores_per_node: int
    #: per-core sustained DP rate, GFLOP/s
    core_gflops: float
    #: per-node memory bandwidth, GB/s
    node_mem_bw_gbs: float
    memory_per_node_gb: float
    cpu_target: str  # archspec microarchitecture name
    interconnect: InterconnectSpec
    gpu: Optional[GpuSpec] = None
    scheduler: str = "slurm"
    #: template for the MPI launch command (variables.yaml, Figure 12)
    mpi_command: str = "srun -N {n_nodes} -n {n_ranks}"
    batch_submit: str = "sbatch {execute_experiment}"
    #: compilers available on the system (compilers.yaml)
    compilers: List[Dict[str, Any]] = field(default_factory=list)
    #: packages.yaml externals/preferences (Figure 4)
    packages_config: Dict[str, Any] = field(default_factory=dict)
    #: environment noise level: stdev of multiplicative run-to-run jitter
    noise: float = 0.02

    @property
    def total_cores(self) -> int:
        return self.nodes * self.cores_per_node

    @property
    def has_gpu(self) -> bool:
        return self.gpu is not None

    @property
    def total_gpus(self) -> int:
        return self.nodes * self.gpu.count_per_node if self.gpu else 0

    def node_gflops(self) -> float:
        """Peak node compute rate including accelerators."""
        rate = self.cores_per_node * self.core_gflops
        if self.gpu:
            rate += self.gpu.count_per_node * self.gpu.fp64_gflops
        return rate

    def validate(self) -> None:
        problems = []
        if self.nodes <= 0:
            problems.append("nodes must be positive")
        if self.cores_per_node <= 0:
            problems.append("cores_per_node must be positive")
        if self.core_gflops <= 0:
            problems.append("core_gflops must be positive")
        if self.interconnect.latency_us <= 0:
            problems.append("interconnect latency must be positive")
        if self.interconnect.bandwidth_gbs <= 0:
            problems.append("interconnect bandwidth must be positive")
        if self.interconnect.collective_algo not in ("binomial", "contended"):
            problems.append(
                f"unknown collective_algo {self.interconnect.collective_algo!r}"
            )
        if problems:
            raise ValueError(f"invalid system {self.name!r}: {'; '.join(problems)}")

    def to_dict(self) -> Dict[str, Any]:
        d: Dict[str, Any] = {
            "name": self.name,
            "site": self.site,
            "nodes": self.nodes,
            "cores_per_node": self.cores_per_node,
            "core_gflops": self.core_gflops,
            "node_mem_bw_gbs": self.node_mem_bw_gbs,
            "memory_per_node_gb": self.memory_per_node_gb,
            "cpu_target": self.cpu_target,
            "scheduler": self.scheduler,
            "noise": self.noise,
            "interconnect": {
                "name": self.interconnect.name,
                "latency_us": self.interconnect.latency_us,
                "bandwidth_gbs": self.interconnect.bandwidth_gbs,
                "collective_algo": self.interconnect.collective_algo,
                "contention_factor": self.interconnect.contention_factor,
            },
        }
        if self.gpu:
            d["gpu"] = {
                "model": self.gpu.model,
                "count_per_node": self.gpu.count_per_node,
                "memory_gb": self.gpu.memory_gb,
                "fp64_gflops": self.gpu.fp64_gflops,
                "mem_bw_gbs": self.gpu.mem_bw_gbs,
                "runtime": self.gpu.runtime,
            }
        return d
