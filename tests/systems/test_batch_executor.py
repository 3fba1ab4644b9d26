"""Tests for the batch-queued executor (workflow step 8 with a scheduler)."""

import pytest

from repro.ramble.workspace import Workspace
from repro.systems.batch_executor import BatchExecutor
from repro.systems.registry import get_system


def _config(n_nodes=("1", "2")):
    return {
        "ramble": {
            "variables": {
                "mpi_command": "srun -N {n_nodes} -n {n_ranks}",
                "n_ranks": "4",
                "batch_time": "2",
            },
            "applications": {"saxpy": {"workloads": {"problem": {
                "experiments": {"saxpy_{n}_{n_nodes}": {
                    "variables": {"n": "256", "n_nodes": list(n_nodes)},
                    "matrices": [["n_nodes"]],
                }}
            }}}},
        }
    }


class TestBatchExecutor:
    def test_execute_queues(self, tmp_path):
        ws = Workspace.create(tmp_path / "ws", config=_config())
        ws.setup()
        ex = BatchExecutor(get_system("cts1"))
        result = ex.execute(ws.experiments[0])
        assert result["state"] == "queued"
        assert result["job_id"] == 1

    def test_drain_runs_benchmarks(self, tmp_path):
        ws = Workspace.create(tmp_path / "ws", config=_config())
        ws.setup()
        ex = BatchExecutor(get_system("cts1"))
        outcomes = ex.run_workspace(ws)
        assert len(outcomes) == 2
        for outcome in outcomes:
            assert outcome["state"] == "completed"
            assert outcome["returncode"] == 0
            assert outcome["queue_wait"] is not None
        # logs written → analysis works
        results = ws.analyze()
        assert all(e["status"] == "SUCCESS" for e in results["experiments"])

    def test_queue_wait_and_makespan(self, tmp_path):
        """Two jobs on a one-node system must serialize."""
        from repro.systems.descriptor import InterconnectSpec, SystemDescriptor

        tiny = SystemDescriptor(
            name="tiny", site="t", nodes=1, cores_per_node=8,
            core_gflops=10.0, node_mem_bw_gbs=50.0, memory_per_node_gb=32.0,
            cpu_target="zen3",
            interconnect=InterconnectSpec("net", 1.0, 10.0),
        )
        ws = Workspace.create(tmp_path / "ws", config=_config(("1", "1")))
        ws.setup()
        ex = BatchExecutor(tiny)
        outcomes = ex.run_workspace(ws)
        waits = sorted(o["queue_wait"] for o in outcomes)
        assert waits[0] == 0.0
        assert waits[1] > 0.0  # second job waited for the first
        assert ex.makespan == pytest.approx(2 * 2 * 60.0)

    def test_duration_from_batch_time(self, tmp_path):
        ws = Workspace.create(tmp_path / "ws", config=_config(("1",)))
        ws.setup()
        ex = BatchExecutor(get_system("cts1"))
        ex.execute(ws.experiments[0])
        job = ex._queued[0][1]
        assert job.duration == 2 * 60.0

    def test_drain_idempotent(self, tmp_path):
        ws = Workspace.create(tmp_path / "ws", config=_config(("1",)))
        ws.setup()
        ex = BatchExecutor(get_system("cts1"))
        ex.run_workspace(ws)
        assert ex.drain() == []
