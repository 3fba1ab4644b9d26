"""Tests for SimMPI: collective data semantics and cost accounting."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.benchmarks.simmpi import SimMpiError, SimWorld
from repro.systems.descriptor import InterconnectSpec

CONTENDED = InterconnectSpec(
    name="old", latency_us=2.0, bandwidth_gbs=5.0,
    collective_algo="contended", contention_factor=0.2,
)
BINOMIAL = InterconnectSpec(
    name="new", latency_us=1.0, bandwidth_gbs=25.0, collective_algo="binomial"
)


class TestSemantics:
    def test_bcast_replicates(self):
        w = SimWorld(4)
        data = np.arange(8.0)
        out = w.bcast(data, root=0)
        assert len(out) == 4
        assert all(np.array_equal(o, data) for o in out)

    def test_bcast_copies_are_independent(self):
        w = SimWorld(3)
        data = np.zeros(4)
        out = w.bcast(data)
        out[1][0] = 99.0
        assert out[2][0] == 0.0

    def test_allreduce_sum(self):
        w = SimWorld(5)
        out = w.allreduce([float(r) for r in range(5)], op=lambda a, b: a + b)
        assert out == [10.0] * 5

    def test_allreduce_arrays(self):
        w = SimWorld(3)
        bufs = [np.full(4, float(r)) for r in range(3)]
        out = w.allreduce(bufs)
        assert all(np.allclose(o, 3.0) for o in out)

    def test_reduce_max(self):
        w = SimWorld(4)
        assert w.reduce([3, 7, 1, 5], op=max) == 7

    def test_allgather(self):
        w = SimWorld(3)
        out = w.allgather(["a", "b", "c"])
        assert out == [["a", "b", "c"]] * 3

    def test_alltoall_is_transpose(self):
        w = SimWorld(3)
        matrix = [[(s, d) for d in range(3)] for s in range(3)]
        out = w.alltoall(matrix)
        for d in range(3):
            for s in range(3):
                assert out[d][s] == (s, d)

    def test_scatter_gather_roundtrip(self):
        w = SimWorld(4)
        vals = list(range(4))
        assert w.gather(w.scatter(vals)) == vals

    def test_wrong_cardinality_rejected(self):
        w = SimWorld(4)
        with pytest.raises(SimMpiError, match="per rank"):
            w.allreduce([1, 2, 3])

    def test_bad_root_rejected(self):
        w = SimWorld(2)
        with pytest.raises(SimMpiError, match="out of range"):
            w.bcast(1.0, root=5)

    def test_zero_size_world_rejected(self):
        with pytest.raises(SimMpiError):
            SimWorld(0)


class TestCostAccounting:
    def test_time_advances(self):
        w = SimWorld(8)
        w.bcast(np.zeros(128))
        assert w.sim_time > 0

    def test_single_rank_collectives_free(self):
        w = SimWorld(1)
        w.bcast(np.zeros(128))
        w.barrier()
        assert w.sim_time == 0.0

    def test_profile_counts(self):
        w = SimWorld(4)
        w.bcast(1.0)
        w.bcast(2.0)
        w.barrier()
        prof = w.comm_profile()
        assert prof["bcast"]["count"] == 2
        assert prof["barrier"]["count"] == 1

    def test_contended_bcast_linear_in_p(self):
        """The Figure 14 regime: cost grows ~linearly with rank count."""
        def cost(p):
            w = SimWorld(p, CONTENDED)
            w.bcast(np.zeros(1024))
            return w.sim_time

        c64, c128, c256 = cost(64), cost(128), cost(256)
        assert c128 / c64 == pytest.approx(127 / 63, rel=0.05)
        assert c256 / c128 == pytest.approx(255 / 127, rel=0.05)

    def test_binomial_bcast_log_in_p(self):
        def cost(p):
            w = SimWorld(p, BINOMIAL)
            w.bcast(np.zeros(1024))
            return w.sim_time

        # doubling p adds one round: cost ratio log2(2p)/log2(p)
        assert cost(256) / cost(16) == pytest.approx(8 / 4, rel=0.05)

    def test_larger_message_costs_more(self):
        w1, w2 = SimWorld(8, BINOMIAL), SimWorld(8, BINOMIAL)
        w1.bcast(np.zeros(64))
        w2.bcast(np.zeros(1 << 20))
        assert w2.sim_time > w1.sim_time

    @given(st.integers(min_value=2, max_value=512))
    @settings(max_examples=20, deadline=None)
    def test_costs_monotone_in_ranks(self, p):
        w_small = SimWorld(p, CONTENDED)
        w_big = SimWorld(p * 2, CONTENDED)
        w_small.bcast(np.zeros(256))
        w_big.bcast(np.zeros(256))
        assert w_big.sim_time > w_small.sim_time


class TestOsu:
    def test_bcast_latency_table(self):
        from repro.benchmarks.osu import run_collective

        res = run_collective("bcast", n_ranks=16, max_size=1024, iterations=10)
        sizes = sorted(res.latencies_us)
        assert sizes[0] == 8
        # Latency is non-decreasing with message size.
        lats = [res.latencies_us[s] for s in sizes]
        assert all(b >= a for a, b in zip(lats, lats[1:]))

    def test_unknown_op_rejected(self):
        from repro.benchmarks.osu import run_collective

        with pytest.raises(ValueError, match="unknown collective"):
            run_collective("fancygather")

    def test_report_has_total_time(self):
        from repro.benchmarks.osu import run_collective

        rep = run_collective("allreduce", n_ranks=8, max_size=64,
                             iterations=5).report()
        assert "Total time:" in rep
        assert "Benchmark complete" in rep

    def test_all_ops_run(self):
        from repro.benchmarks.osu import run_collective
        from repro.systems.mpi_model import COLLECTIVES

        for op in COLLECTIVES:
            res = run_collective(op, n_ranks=4, max_size=32, iterations=2)
            assert res.total_seconds >= 0


class TestCaliperExport:
    def test_profile_regions_per_op(self):
        import numpy as np

        w = SimWorld(16)
        w.bcast(np.zeros(128))
        w.bcast(np.zeros(128))
        w.allreduce([1.0] * 16)
        profile = w.to_caliper_profile(metadata={"system": "cts1"})
        regions = profile.regions()
        assert regions["MPI/MPI_Bcast"].visits == 2
        assert regions["MPI/MPI_Allreduce"].visits == 1
        assert regions["MPI"].inclusive == pytest.approx(w.sim_time)
        assert profile.metadata["nprocs"] == 16
        assert profile.metadata["system"] == "cts1"

    def test_profile_feeds_thicket_and_extrap(self):
        """SimMPI → Caliper → Thicket → Extra-P: the Figure 14 pipeline
        entirely through public interfaces."""
        import numpy as np
        from repro.analysis.thicket import Ensemble
        from repro.systems.registry import get_system

        cts1 = get_system("cts1")
        profiles = []
        for p in (2, 8, 32, 128, 512, 2048):
            w = SimWorld(p, cts1.interconnect)
            for _ in range(5):
                w.account_only("bcast", 1 << 20)
            profiles.append(w.to_caliper_profile())
        model = Ensemble(profiles).model_scaling("MPI/MPI_Bcast", "nprocs")
        assert model.i == 1.0 and model.j == 0  # cts1's linear regime
