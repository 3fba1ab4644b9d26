"""Performance rescaling and analytic kernel models.

Two roles:

1. :func:`scale_compute_time` rewrites the *measured-on-this-host* timings in
   a benchmark's output so they read as if measured on a target
   :class:`~repro.systems.descriptor.SystemDescriptor` — the key substitution
   that lets Benchpark campaigns "run on" cts1/ats2/ats4 from one machine.
   Memory-bound numbers (saxpy/STREAM bandwidths) scale with the memory
   bandwidth ratio; compute-bound numbers (AMG setup/solve) with the core
   compute-rate ratio; communication numbers are already produced by the
   target's interconnect model and pass through untouched.

2. Analytic first-principles kernel models (:func:`saxpy_model_seconds`,
   :func:`amg_cycle_model_seconds`) for projections beyond what can be
   measured, used by the cross-system campaign bench.
"""

from __future__ import annotations

import re

from .descriptor import SystemDescriptor

__all__ = [
    "REFERENCE_CORE_GFLOPS",
    "REFERENCE_MEM_BW_GBS",
    "scale_compute_time",
    "saxpy_model_seconds",
    "stream_model_rate_mbs",
    "amg_cycle_model_seconds",
]

#: Assumed rates of the measuring host.  Only ratios matter for shape.
REFERENCE_CORE_GFLOPS = 20.0
REFERENCE_MEM_BW_GBS = 25.0


def _mem_factor(system: SystemDescriptor, use_gpu: bool = False) -> float:
    """time multiplier for memory-bound kernels: host_bw / system_bw."""
    bw = system.gpu.mem_bw_gbs if (use_gpu and system.gpu) else system.node_mem_bw_gbs
    return REFERENCE_MEM_BW_GBS / bw


def _compute_factor(system: SystemDescriptor, use_gpu: bool = False) -> float:
    """time multiplier for compute-bound kernels."""
    rate = system.gpu.fp64_gflops if (use_gpu and system.gpu) else system.core_gflops
    return REFERENCE_CORE_GFLOPS / rate


def scale_compute_time(
    text: str,
    system: SystemDescriptor,
    noise: float = 1.0,
    use_gpu: bool = False,
) -> str:
    """Rewrite timing/bandwidth lines in benchmark output for ``system``."""
    mem = _mem_factor(system, use_gpu) * noise
    cpu = _compute_factor(system, use_gpu) * noise

    def scale_num(match: re.Match, factor: float) -> str:
        value = float(match.group("v")) * factor
        return match.group(0).replace(match.group("v"), f"{value:.6g}")

    rules = [
        # saxpy: memory-bound
        (r"saxpy kernel time: (?P<v>[0-9.eE+-]+) s", mem),
        (r"saxpy bandwidth: (?P<v>[0-9.eE+-]+) GB/s", 1.0 / mem),
        # STREAM: memory-bound rates
        (r"(?:Copy|Scale|Add|Triad):\s+(?P<v>[0-9.]+)", 1.0 / mem),
        # AMG: compute/memory mix — use compute factor for times,
        # inverse for throughput FOMs
        (r"setup time: (?P<v>[0-9.eE+-]+) s", cpu),
        (r"solve time: (?P<v>[0-9.eE+-]+) s", cpu),
        (r"Figure of Merit \(FOM_Setup\): (?P<v>[0-9.eE+-]+)", 1.0 / cpu),
        (r"Figure of Merit \(FOM_Solve\): (?P<v>[0-9.eE+-]+)", 1.0 / cpu),
        # Quicksilver: compute/latency bound
        (r"Figure Of Merit: (?P<v>[0-9.eE+-]+) segments/s", 1.0 / cpu),
    ]
    for pattern, factor in rules:
        text = re.sub(pattern, lambda m, f=factor: scale_num(m, f), text)
    return text


def saxpy_model_seconds(n: int, system: SystemDescriptor,
                        use_gpu: bool = False, n_ranks: int = 1) -> float:
    """First-principles saxpy time: 3 streams of 4-byte floats through the
    memory system, plus one allreduce for the checksum."""
    from .mpi_model import MpiCostModel

    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    bw = (system.gpu.mem_bw_gbs if (use_gpu and system.gpu)
          else system.node_mem_bw_gbs) * 1e9
    compute = (3.0 * 4.0 * n / max(n_ranks, 1)) / bw
    comm = 0.0
    if n_ranks > 1:
        comm = MpiCostModel(system.interconnect).allreduce(n_ranks, 8)
    return compute + comm


def stream_model_rate_mbs(system: SystemDescriptor, kernel: str = "Triad") -> float:
    """Modeled STREAM best rate on a system (per node)."""
    efficiency = {"Copy": 0.85, "Scale": 0.85, "Add": 0.80, "Triad": 0.80}
    if kernel not in efficiency:
        raise ValueError(f"unknown STREAM kernel {kernel!r}")
    return system.node_mem_bw_gbs * 1e3 * efficiency[kernel]


def amg_cycle_model_seconds(
    n_rows: int,
    nnz: int,
    system: SystemDescriptor,
    n_ranks: int = 1,
    levels: int = 5,
    use_gpu: bool = False,
) -> float:
    """One V-cycle: ~5 SpMV-equivalents over the hierarchy (geometric sum
    ≈ 1.6× the fine-grid work), memory-bound at 12 bytes/nnz, plus per-level
    halo exchanges."""
    from .mpi_model import MpiCostModel

    bw = (system.gpu.mem_bw_gbs if (use_gpu and system.gpu)
          else system.node_mem_bw_gbs) * 1e9
    work_bytes = 5 * 1.6 * 12.0 * nnz / max(n_ranks, 1)
    compute = work_bytes / bw
    comm = 0.0
    if n_ranks > 1:
        model = MpiCostModel(system.interconnect)
        rows_per_rank = max(n_rows // n_ranks, 1)
        halo_bytes = int(max(rows_per_rank ** (2.0 / 3.0), 1) * 7 * 8)
        comm = levels * model.halo_exchange(2, halo_bytes) + model.allreduce(
            n_ranks, 8
        )
    return compute + comm
