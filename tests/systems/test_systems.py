"""Tests for system descriptors, registry, and MPI cost models."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.systems.descriptor import GpuSpec, InterconnectSpec, SystemDescriptor
from repro.systems.mpi_model import MpiCostModel
from repro.systems.registry import SYSTEMS, all_system_names, get_system


class TestRegistry:
    def test_paper_systems_present(self):
        # §4: "These Benchpark benchmarks currently build & run on 3 systems"
        for name in ("cts1", "ats2", "ats4"):
            assert name in SYSTEMS

    def test_cloud_systems_present(self):
        assert "cloud-c6i" in SYSTEMS

    def test_unknown_system(self):
        with pytest.raises(KeyError, match="unknown system"):
            get_system("summit")

    def test_cts1_is_cpu_only_xeon(self):
        cts1 = get_system("cts1")
        assert not cts1.has_gpu
        assert cts1.cpu_target == "broadwell"
        assert cts1.scheduler == "slurm"

    def test_ats2_is_power9_v100(self):
        ats2 = get_system("ats2")
        assert ats2.cpu_target == "power9le"
        assert ats2.gpu.model == "V100"
        assert ats2.gpu.runtime == "cuda"
        assert "jsrun" in ats2.mpi_command

    def test_ats4_is_trento_mi250x(self):
        ats4 = get_system("ats4")
        assert ats4.cpu_target == "zen3_trento"
        assert ats4.gpu.model == "MI-250X"
        assert ats4.gpu.runtime == "rocm"
        assert "flux" in ats4.mpi_command

    def test_all_targets_in_archspec(self):
        from repro.archspec.database import get_target

        for system in SYSTEMS.values():
            get_target(system.cpu_target)  # must not raise

    def test_all_validate(self):
        for system in SYSTEMS.values():
            system.validate()

    def test_gpu_systems_have_more_flops(self):
        assert get_system("ats4").node_gflops() > get_system("cts1").node_gflops()

    def test_to_dict_roundtrip_fields(self):
        d = get_system("ats2").to_dict()
        assert d["gpu"]["model"] == "V100"
        assert d["interconnect"]["collective_algo"] == "binomial"

    def test_names_sorted(self):
        assert all_system_names() == sorted(all_system_names())


class TestDescriptorValidation:
    def _base(self, **kw):
        defaults = dict(
            name="t", site="x", nodes=4, cores_per_node=8, core_gflops=10.0,
            node_mem_bw_gbs=100.0, memory_per_node_gb=64.0, cpu_target="zen3",
            interconnect=InterconnectSpec("net", 1.0, 10.0),
        )
        defaults.update(kw)
        return SystemDescriptor(**defaults)

    def test_valid(self):
        self._base().validate()

    def test_zero_nodes(self):
        with pytest.raises(ValueError, match="nodes"):
            self._base(nodes=0).validate()

    def test_bad_collective_algo(self):
        with pytest.raises(ValueError, match="collective_algo"):
            self._base(
                interconnect=InterconnectSpec("net", 1.0, 10.0, "quantum")
            ).validate()

    def test_total_cores(self):
        assert self._base().total_cores == 32

    def test_total_gpus(self):
        s = self._base(gpu=GpuSpec("V100", 4, 16.0, 7000.0, 900.0))
        assert s.total_gpus == 16


CONTENDED = InterconnectSpec("old", 2.0, 5.0, "contended", 0.1)
BINOMIAL = InterconnectSpec("ib", 1.0, 25.0, "binomial")


class TestMpiCostModel:
    def test_ptp(self):
        m = MpiCostModel(BINOMIAL)
        assert m.ptp(0) == pytest.approx(1e-6)
        assert m.ptp(25_000_000) == pytest.approx(1e-6 + 1e-3, rel=1e-3)

    def test_collectives_zero_for_one_rank(self):
        m = MpiCostModel(BINOMIAL)
        for op in ("bcast", "reduce", "allreduce", "allgather", "barrier"):
            assert m.cost(op, 1, 1024) == 0.0

    def test_binomial_bcast_log_rounds(self):
        m = MpiCostModel(BINOMIAL)
        assert m.bcast(8, 0) == pytest.approx(3 * m.ptp(0))
        assert m.bcast(9, 0) == pytest.approx(4 * m.ptp(0))

    def test_contended_bcast_linear(self):
        m = MpiCostModel(CONTENDED)
        c = m.bcast(101, 100)
        assert c == pytest.approx(100 * m.ptp(100) * 1.1)

    def test_allreduce_rabenseifner_bandwidth_term(self):
        m = MpiCostModel(BINOMIAL)
        big = m.allreduce(16, 1 << 20)
        # bandwidth term dominates: ≈ 2·m·β
        assert big == pytest.approx(2 * (1 << 20) / 25e9, rel=0.2)

    def test_allgather_ring(self):
        m = MpiCostModel(BINOMIAL)
        assert m.allgather(5, 100) == pytest.approx(4 * m.ptp(100))

    def test_unknown_op(self):
        with pytest.raises(KeyError, match="unknown MPI operation"):
            MpiCostModel(BINOMIAL).cost("telepathy", 4, 8)

    def test_halo_exchange(self):
        m = MpiCostModel(BINOMIAL)
        assert m.halo_exchange(0, 100) == 0.0
        assert m.halo_exchange(2, 100) == pytest.approx(2 * m.ptp(100))

    @given(st.integers(min_value=2, max_value=4096),
           st.integers(min_value=0, max_value=1 << 22))
    @settings(max_examples=40, deadline=None)
    def test_costs_nonnegative_and_monotone_in_message(self, p, m_bytes):
        model = MpiCostModel(BINOMIAL)
        for op in ("bcast", "reduce", "allreduce", "allgather"):
            c1 = model.cost(op, p, m_bytes)
            c2 = model.cost(op, p, m_bytes + 4096)
            assert 0 <= c1 <= c2

    @given(st.integers(min_value=2, max_value=1024))
    @settings(max_examples=30, deadline=None)
    def test_contended_scales_linearly(self, p):
        model = MpiCostModel(CONTENDED)
        c_p = model.bcast(p, 512)
        c_2p = model.bcast(2 * p, 512)
        assert c_2p / c_p == pytest.approx((2 * p - 1) / (p - 1), rel=1e-6)


class TestPerformanceModels:
    def test_saxpy_model_gpu_faster(self):
        from repro.systems.performance import saxpy_model_seconds

        ats2 = get_system("ats2")
        cpu = saxpy_model_seconds(1 << 24, ats2, use_gpu=False)
        gpu = saxpy_model_seconds(1 << 24, ats2, use_gpu=True)
        assert gpu < cpu

    def test_saxpy_model_comm_dominates_small(self):
        from repro.systems.performance import saxpy_model_seconds

        cts1 = get_system("cts1")
        serial = saxpy_model_seconds(512, cts1, n_ranks=1)
        parallel = saxpy_model_seconds(512, cts1, n_ranks=64)
        assert parallel > serial  # tiny problem: comm overhead wins

    def test_saxpy_model_scaling_large(self):
        from repro.systems.performance import saxpy_model_seconds

        ats4 = get_system("ats4")
        serial = saxpy_model_seconds(1 << 26, ats4, n_ranks=1)
        parallel = saxpy_model_seconds(1 << 26, ats4, n_ranks=64)
        assert parallel < serial  # big problem: parallelism wins

    def test_saxpy_model_validates_input(self):
        from repro.systems.performance import saxpy_model_seconds

        with pytest.raises(ValueError):
            saxpy_model_seconds(0, get_system("cts1"))

    def test_stream_model_kernel_validation(self):
        from repro.systems.performance import stream_model_rate_mbs

        assert stream_model_rate_mbs(get_system("cts1"), "Triad") > 0
        with pytest.raises(ValueError):
            stream_model_rate_mbs(get_system("cts1"), "Quadd")

    def test_amg_cycle_model(self):
        from repro.systems.performance import amg_cycle_model_seconds

        cts1 = get_system("cts1")
        t1 = amg_cycle_model_seconds(10**6, 7 * 10**6, cts1, n_ranks=1)
        t64 = amg_cycle_model_seconds(10**6, 7 * 10**6, cts1, n_ranks=64)
        assert 0 < t64 < t1

    def test_scale_compute_time_rewrites(self):
        from repro.systems.performance import scale_compute_time

        text = "saxpy kernel time: 0.001 s\nsaxpy bandwidth: 10.0 GB/s\n"
        ats4 = get_system("ats4")  # much higher mem bw than reference
        out = scale_compute_time(text, ats4)
        t = float(out.split("kernel time: ")[1].split(" s")[0])
        bw = float(out.split("bandwidth: ")[1].split(" GB")[0])
        assert t < 0.001
        assert bw > 10.0
