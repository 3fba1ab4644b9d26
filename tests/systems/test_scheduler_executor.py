"""Tests for the batch scheduler simulator and the experiment executors."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.systems.descriptor import InterconnectSpec, SystemDescriptor
from repro.systems.executor import (
    ExecutorError,
    LocalExecutor,
    SystemExecutor,
    parse_script_commands,
    _strip_launcher,
)
from repro.systems.registry import get_system
from repro.systems.scheduler import BatchScheduler, Job, SchedulerError


def small_system(nodes=4):
    return SystemDescriptor(
        name="mini", site="test", nodes=nodes, cores_per_node=8,
        core_gflops=10.0, node_mem_bw_gbs=50.0, memory_per_node_gb=32.0,
        cpu_target="zen3", interconnect=InterconnectSpec("net", 1.0, 10.0),
    )


class TestScheduler:
    def test_single_job(self):
        s = BatchScheduler(small_system())
        s.submit(Job("a", nodes=2, duration=10.0))
        makespan = s.run_until_complete()
        assert makespan == 10.0
        assert s.completed[0].start_time == 0.0

    def test_serializes_when_full(self):
        s = BatchScheduler(small_system(nodes=4))
        s.submit(Job("a", nodes=4, duration=10.0))
        s.submit(Job("b", nodes=4, duration=10.0))
        assert s.run_until_complete() == 20.0

    def test_parallel_when_fits(self):
        s = BatchScheduler(small_system(nodes=4))
        s.submit(Job("a", nodes=2, duration=10.0))
        s.submit(Job("b", nodes=2, duration=10.0))
        assert s.run_until_complete() == 10.0

    def test_fifo_blocks_behind_big_job(self):
        s = BatchScheduler(small_system(nodes=4), policy="fifo")
        s.submit(Job("running", nodes=3, duration=100.0))
        s.submit(Job("big", nodes=4, duration=10.0))
        s.submit(Job("tiny", nodes=1, duration=5.0))
        makespan = s.run_until_complete()
        tiny = next(j for j in s.completed if j.name == "tiny")
        assert tiny.start_time >= 100.0  # blocked behind 'big'
        assert makespan >= 110.0

    def test_backfill_slips_tiny_job_through(self):
        s = BatchScheduler(small_system(nodes=4), policy="backfill")
        s.submit(Job("running", nodes=3, duration=100.0))
        s.submit(Job("big", nodes=4, duration=10.0))
        s.submit(Job("tiny", nodes=1, duration=5.0))
        s.run_until_complete()
        tiny = next(j for j in s.completed if j.name == "tiny")
        assert tiny.start_time == 0.0  # fits the hole, ends before reservation

    def test_backfill_does_not_delay_head(self):
        s = BatchScheduler(small_system(nodes=4), policy="backfill")
        s.submit(Job("running", nodes=3, duration=100.0))
        s.submit(Job("big", nodes=4, duration=10.0))
        s.submit(Job("long_tiny", nodes=1, duration=500.0))
        s.run_until_complete()
        big = next(j for j in s.completed if j.name == "big")
        # long_tiny would overrun the reservation, so big starts at t=100.
        assert big.start_time == 100.0

    def test_oversized_job_rejected(self):
        s = BatchScheduler(small_system(nodes=4))
        with pytest.raises(SchedulerError, match="requests"):
            s.submit(Job("huge", nodes=5, duration=1.0))

    def test_bad_duration_rejected(self):
        s = BatchScheduler(small_system())
        with pytest.raises(SchedulerError, match="duration"):
            s.submit(Job("zero", nodes=1, duration=0.0))

    def test_bad_policy(self):
        with pytest.raises(SchedulerError, match="policy"):
            BatchScheduler(small_system(), policy="roulette")

    def test_future_submission(self):
        s = BatchScheduler(small_system())
        s.submit(Job("later", nodes=1, duration=5.0, submit_time=50.0))
        assert s.run_until_complete() == 55.0

    def test_stats(self):
        s = BatchScheduler(small_system(nodes=1))
        s.submit(Job("a", nodes=1, duration=10.0))
        s.submit(Job("b", nodes=1, duration=10.0))
        s.run_until_complete()
        stats = s.stats()
        assert stats["jobs"] == 2
        assert stats["makespan"] == 20.0
        assert stats["avg_wait"] == 5.0

    @given(st.lists(
        st.tuples(st.integers(1, 4), st.floats(0.5, 20.0)),
        min_size=1, max_size=12,
    ))
    @settings(max_examples=25, deadline=None)
    def test_backfill_never_slower_than_fifo(self, jobs):
        def run(policy):
            s = BatchScheduler(small_system(nodes=4), policy=policy)
            for i, (nodes, dur) in enumerate(jobs):
                s.submit(Job(f"j{i}", nodes=nodes, duration=dur))
            return s.run_until_complete()

        assert run("backfill") <= run("fifo") + 1e-9

    @given(st.lists(
        st.tuples(st.integers(1, 4), st.floats(0.5, 20.0)),
        min_size=1, max_size=10,
    ))
    @settings(max_examples=25, deadline=None)
    def test_no_node_oversubscription(self, jobs):
        s = BatchScheduler(small_system(nodes=4))
        for i, (nodes, dur) in enumerate(jobs):
            s.submit(Job(f"j{i}", nodes=nodes, duration=dur))
        s.run_until_complete()
        # Check overlap intervals never exceed capacity.
        events = []
        for j in s.completed:
            events.append((j.start_time, j.nodes))
            events.append((j.end_time, -j.nodes))
        # At equal timestamps, releases (negative deltas) happen before
        # starts — a job can begin the instant another frees its nodes.
        used = 0
        for _, delta in sorted(events, key=lambda e: (e[0], e[1])):
            used += delta
            assert used <= 4


class TestScriptParsing:
    SCRIPT = """#!/bin/bash
#SBATCH -N 2
#SBATCH -n 16
cd /tmp/exp
# spack environment loaded
srun -N 2 -n 16 saxpy -n 512 >> /tmp/exp/log.out 2>&1
"""

    def test_parse_commands(self):
        cmds = parse_script_commands(self.SCRIPT)
        assert cmds == [["srun", "-N", "2", "-n", "16", "saxpy", "-n", "512"]]

    def test_parse_strips_bare_stderr_redirect(self):
        """`cmd 2>&1` with no preceding `>` must not leave a dangling `2`
        token (stripping `>` first used to produce ["cmd", "2"])."""
        assert parse_script_commands("saxpy -n 8 2>&1\n") == \
            [["saxpy", "-n", "8"]]
        assert parse_script_commands("saxpy -n 8 > out.log 2>&1\n") == \
            [["saxpy", "-n", "8"]]

    def test_strip_launcher_srun(self):
        argv, ranks = _strip_launcher(
            ["srun", "-N", "2", "-n", "16", "saxpy", "-n", "512"]
        )
        assert argv == ["saxpy", "-n", "512"]
        assert ranks == 16

    def test_strip_launcher_jsrun(self):
        argv, ranks = _strip_launcher(
            ["jsrun", "-n", "8", "-a", "1", "-g", "1", "amg", "-n", "16"]
        )
        assert argv[0] == "amg"
        assert ranks == 8

    def test_strip_launcher_flux(self):
        argv, ranks = _strip_launcher(
            ["flux", "run", "-N", "2", "-n", "32", "amg", "-n", "8"]
        )
        assert argv[0] == "amg"
        assert ranks == 32

    def test_no_launcher(self):
        argv, ranks = _strip_launcher(["stream", "-n", "100"])
        assert argv == ["stream", "-n", "100"]
        assert ranks == 1


class _FakeExperiment:
    def __init__(self, tmp_path, script, n_ranks="1", name="exp1"):
        self.name = name
        self.variables = {"n_ranks": n_ranks}
        self.script_path = tmp_path / "execute_experiment"
        self.script_path.write_text(script)
        self.run_dir = tmp_path
        self.log_file = tmp_path / f"{name}.out"


class TestExecutors:
    def test_local_runs_saxpy(self, tmp_path):
        exp = _FakeExperiment(
            tmp_path, "#!/bin/bash\nsaxpy -n 128 >> log 2>&1\n"
        )
        result = LocalExecutor().execute(exp)
        assert result["returncode"] == 0
        assert "Kernel done" in result["stdout"]

    def test_local_unknown_program(self, tmp_path):
        exp = _FakeExperiment(tmp_path, "#!/bin/bash\nwarpdrive --engage\n")
        result = LocalExecutor().execute(exp)
        assert result["returncode"] == 127
        assert "ERROR" in result["stdout"]

    def test_system_executor_header(self, tmp_path):
        exp = _FakeExperiment(tmp_path, "#!/bin/bash\nsaxpy -n 128\n")
        result = SystemExecutor(get_system("ats4")).execute(exp)
        assert "# executing on ats4" in result["stdout"]

    def test_system_executor_rejects_oversubscription(self, tmp_path):
        exp = _FakeExperiment(
            tmp_path,
            "#!/bin/bash\nsrun -N 99999 -n 9999999 saxpy -n 128\n",
            n_ranks="9999999",
        )
        result = SystemExecutor(get_system("cts1")).execute(exp)
        assert result["returncode"] == 1
        assert "exceeds" in result["stdout"]

    def test_system_noise_deterministic(self, tmp_path):
        exp = _FakeExperiment(tmp_path, "#!/bin/bash\nsaxpy -n 64\n")
        ex = SystemExecutor(get_system("cloud-c6i"))
        assert ex._noise("a") == ex._noise("a")
        assert ex._noise("a") != ex._noise("b")

    def test_amg_dispatch_ranks(self, tmp_path):
        exp = _FakeExperiment(
            tmp_path,
            "#!/bin/bash\nsrun -N 1 -n 4 amg -problem 1 -n 8 -ranks 4\n",
            n_ranks="4",
        )
        result = LocalExecutor().execute(exp)
        assert "ranks = 4" in result["stdout"]
        assert "FOM_Solve" in result["stdout"]


class TestGpuVariantExecution:
    def _run(self, tmp_path, experiment_id, system):
        from repro.core.driver import benchpark_setup

        workdir = tmp_path / experiment_id.replace("/", "-") / "ws"
        session = benchpark_setup(experiment_id, system, workdir)
        results = session.run_all()
        values = [
            f["value"]
            for e in results["experiments"]
            for f in e["figures_of_merit"]
            if f["name"] == "bandwidth"
        ]
        log = session.workspace.experiments[0].log_file.read_text()
        return max(values), log

    def test_cuda_variant_offloads(self, tmp_path):
        """§2's heterogeneous example: the +cuda build of saxpy runs on the
        V100 and shows GPU-class bandwidth; the +openmp build on the same
        machine shows CPU-class bandwidth."""
        cpu_bw, cpu_log = self._run(tmp_path, "saxpy/openmp", "ats2")
        gpu_bw, gpu_log = self._run(tmp_path, "saxpy/cuda", "ats2")
        assert "# offloading to V100" in gpu_log
        assert "offloading" not in cpu_log
        # V100 HBM (900 GB/s) vs Power9 DDR (170 GB/s): ~5x
        assert gpu_bw > cpu_bw * 3

    def test_gpu_variant_on_cpu_system_stays_cpu(self, tmp_path):
        """No GPU on cts1: a +cuda request still runs, on the CPU."""
        from repro.core.driver import benchpark_setup

        session = benchpark_setup("saxpy/cuda", "cts1", tmp_path / "ws")
        results = session.run_all()
        log = session.workspace.experiments[0].log_file.read_text()
        assert "offloading" not in log
        assert all(e["status"] == "SUCCESS" for e in results["experiments"])
