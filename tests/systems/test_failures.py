"""Tests for hardware degradation injection (repro.systems.failures)."""

import pytest

from repro.systems.failures import (
    Degradation,
    FailureSchedule,
    HEALTHY,
    apply_degradation,
)
from repro.systems.registry import get_system


class TestDegradation:
    def test_memory_degradation(self):
        cts1 = get_system("cts1")
        degraded = apply_degradation(
            cts1, Degradation("bad-dimm", memory_bw_factor=0.5)
        )
        assert degraded.node_mem_bw_gbs == pytest.approx(cts1.node_mem_bw_gbs / 2)
        assert degraded.core_gflops == cts1.core_gflops  # untouched

    def test_original_untouched(self):
        cts1 = get_system("cts1")
        before = cts1.node_mem_bw_gbs
        apply_degradation(cts1, Degradation("d", memory_bw_factor=0.1))
        assert get_system("cts1").node_mem_bw_gbs == before

    def test_network_degradation(self):
        ats4 = get_system("ats4")
        degraded = apply_degradation(
            ats4, Degradation("flaky-switch", network_latency_factor=3.0,
                              network_bw_factor=0.5)
        )
        assert degraded.interconnect.latency_us == pytest.approx(
            ats4.interconnect.latency_us * 3)
        assert degraded.interconnect.bandwidth_gbs == pytest.approx(
            ats4.interconnect.bandwidth_gbs / 2)
        assert degraded.interconnect.collective_algo == \
            ats4.interconnect.collective_algo

    def test_extra_noise(self):
        cts1 = get_system("cts1")
        degraded = apply_degradation(cts1, Degradation("jitter", extra_noise=0.1))
        assert degraded.noise == pytest.approx(cts1.noise + 0.1)

    @pytest.mark.parametrize("kwargs", [
        {"memory_bw_factor": 0.0},
        {"memory_bw_factor": 1.5},
        {"core_flops_factor": -1.0},
        {"network_latency_factor": 0.5},
        {"network_bw_factor": 2.0},
        {"extra_noise": -0.1},
    ])
    def test_invalid_factors(self, kwargs):
        with pytest.raises(ValueError):
            apply_degradation(get_system("cts1"), Degradation("bad", **kwargs))


class TestFailureSchedule:
    def test_healthy_by_default(self):
        schedule = FailureSchedule()
        assert schedule.active_at(0) is HEALTHY
        assert schedule.active_at(100) is HEALTHY

    def test_event_activates_at_epoch(self):
        dimm = Degradation("bad-dimm", memory_bw_factor=0.5)
        schedule = FailureSchedule([(5, dimm)])
        assert schedule.active_at(4) is HEALTHY
        assert schedule.active_at(5) is dimm
        assert schedule.active_at(50) is dimm

    def test_latest_event_wins(self):
        mild = Degradation("mild", memory_bw_factor=0.9)
        severe = Degradation("severe", memory_bw_factor=0.4)
        schedule = FailureSchedule([(3, mild), (7, severe)])
        assert schedule.active_at(5) is mild
        assert schedule.active_at(7) is severe

    def test_repair_event(self):
        """A repair is just scheduling HEALTHY again."""
        dimm = Degradation("bad-dimm", memory_bw_factor=0.5)
        schedule = FailureSchedule([(3, dimm), (6, HEALTHY)])
        assert schedule.active_at(4).name == "bad-dimm"
        assert schedule.active_at(6) is HEALTHY

    def test_system_at(self):
        cts1 = get_system("cts1")
        schedule = FailureSchedule(
            [(2, Degradation("d", memory_bw_factor=0.5))])
        assert schedule.system_at(cts1, 0) is cts1  # zero-copy when healthy
        degraded = schedule.system_at(cts1, 2)
        assert degraded.node_mem_bw_gbs == pytest.approx(60.0)

    def test_negative_epoch_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            FailureSchedule([(-1, HEALTHY)])

    def test_add_keeps_sorted(self):
        schedule = FailureSchedule()
        schedule.add(9, Degradation("late"))
        schedule.add(2, Degradation("early"))
        assert [e[0] for e in schedule.events] == [2, 9]

    def test_add_rejects_negative_epoch(self):
        """add() validates like the constructor does."""
        schedule = FailureSchedule()
        with pytest.raises(ValueError, match="negative"):
            schedule.add(-3, Degradation("late"))
        assert schedule.events == []

    def test_add_validates_degradation(self):
        schedule = FailureSchedule()
        with pytest.raises(ValueError, match="memory_bw_factor"):
            schedule.add(1, Degradation("bogus", memory_bw_factor=2.0))
        assert schedule.events == []


class TestDegradationAffectsBenchmarks:
    def test_degraded_memory_slows_saxpy(self, tmp_path):
        """The end-to-end effect a regression detector must see."""
        from repro.systems.executor import SystemExecutor
        from repro.systems.performance import scale_compute_time

        cts1 = get_system("cts1")
        degraded = apply_degradation(
            cts1, Degradation("bad-dimm", memory_bw_factor=0.5))
        text = "saxpy bandwidth: 10.0 GB/s\n"
        healthy_bw = float(scale_compute_time(text, cts1)
                           .split(": ")[1].split(" ")[0])
        degraded_bw = float(scale_compute_time(text, degraded)
                            .split(": ")[1].split(" ")[0])
        assert degraded_bw == pytest.approx(healthy_bw / 2, rel=1e-6)

    def test_degraded_network_slows_collectives(self):
        from repro.benchmarks.osu import run_collective

        ats4 = get_system("ats4")
        slow = apply_degradation(
            ats4, Degradation("flaky", network_latency_factor=10.0))
        healthy = run_collective("bcast", 64, max_size=64, iterations=5,
                                 interconnect=ats4.interconnect,
                                 verify=False).total_seconds
        flaky = run_collective("bcast", 64, max_size=64, iterations=5,
                               interconnect=slow.interconnect,
                               verify=False).total_seconds
        assert flaky > healthy * 5
