"""Batch-queued execution — workflow step 8 with a real scheduler in the
loop.

``ramble on`` on a production system does not run experiments directly: it
*submits* the rendered scripts (Figure 12's ``batch_submit: 'sbatch
{execute_experiment}'``) and the batch scheduler decides when each runs.
:class:`BatchExecutor` reproduces that: every experiment becomes a
:class:`~repro.systems.scheduler.Job` (nodes from its ``n_nodes`` variable,
duration estimated from the performance models), the scheduler simulates
the queue, and only then does the benchmark actually execute.  Outcomes
carry queue wait and simulated start/end times, so campaign makespans and
queueing effects are first-class results.
"""

from __future__ import annotations

from typing import Any, Dict, List

from .descriptor import SystemDescriptor
from .executor import SystemExecutor
from .scheduler import BatchScheduler, Job

__all__ = ["BatchExecutor"]


class BatchExecutor:
    """Submit-then-run executor bound to one system's scheduler.

    Unlike the immediate executors, ``execute()`` only *queues* an
    experiment; :meth:`drain` runs the scheduler simulation and then
    executes every job's benchmark.  For drop-in compatibility with
    ``Workspace.run`` (which calls ``execute`` per experiment and expects a
    result), ``execute`` queues and returns a pending marker; ``drain``
    must be called afterwards to materialize logs — or use
    :meth:`run_workspace`, which does both.

    ``drain`` executes the jobs one after another in submission order: the
    kernels are real and timed, and
    :class:`~repro.systems.executor.SystemExecutor` rescales their measured
    wall time, so running them side by side could change the results.
    """

    def __init__(self, system: SystemDescriptor, policy: str = "backfill",
                 epoch: int = 0, injector=None,
                 retry_policy=None, breakers=None,
                 runner_tag: str = "batch"):
        self.system = system
        self.scheduler = BatchScheduler(system, policy=policy)
        self.inner = SystemExecutor(system, epoch=epoch)
        if (injector is not None or retry_policy is not None
                or breakers is not None):
            from repro.resilience import FaultTolerantExecutor

            self.inner = FaultTolerantExecutor(
                self.inner, injector=injector, policy=retry_policy,
                breakers=breakers, runner_tag=runner_tag,
            )
        self._queued: List[tuple] = []

    # -- duration estimation ------------------------------------------------
    def _estimate_duration(self, experiment) -> float:
        """Rough runtime estimate for the scheduler (like a user's -t)."""
        batch_time = experiment.variables.get("batch_time", "30")
        try:
            minutes = float(batch_time)
        except ValueError:
            minutes = 30.0
        return max(minutes * 60.0, 1.0)

    def _nodes_of(self, experiment) -> int:
        try:
            return max(int(float(experiment.variables.get("n_nodes", 1))), 1)
        except ValueError:
            return 1

    # -- Workspace.run interface ----------------------------------------------
    def execute(self, experiment) -> Dict[str, Any]:
        job = Job(
            name=experiment.name,
            nodes=self._nodes_of(experiment),
            duration=self._estimate_duration(experiment),
            user="benchpark",
        )
        self.scheduler.submit(job)
        self._queued.append((experiment, job))
        return {
            "returncode": 0,
            "stdout": f"# queued as job {job.job_id} "
                      f"({job.nodes} nodes, {job.duration:.0f}s limit)\n",
            "seconds": 0.0,
            "job_id": job.job_id,
            "state": "queued",
        }

    def drain(self) -> List[Dict[str, Any]]:
        """Run the queue to completion, then actually execute every
        benchmark; returns one outcome per experiment with queue stats."""
        if not self._queued:
            return []
        self.scheduler.run_until_complete()
        results = [self.inner.execute(e) for e, _ in self._queued]
        outcomes = []
        for (experiment, job), result in zip(self._queued, results):
            # Transient faults (a fault-tolerant inner executor reports
            # attempts > 1) requeue the job: each retry re-enters the queue
            # after its backoff, so the simulated timeline and queue stats
            # charge the retries honestly.
            extra_attempts = max(int(result.get("attempts", 1)) - 1, 0)
            if extra_attempts and job.finished:
                per_retry_delay = (
                    float(result.get("total_backoff_s", 0.0)) / extra_attempts
                )
                for _ in range(extra_attempts):
                    self.scheduler.requeue(job, delay=per_retry_delay)
                    self.scheduler.run_until_complete()
            result.update({
                "job_id": job.job_id,
                "queue_wait": job.wait_time,
                "sim_start": job.start_time,
                "sim_end": job.end_time,
                "sched_attempts": job.attempts,
                "state": result.get("state", "completed"),
            })
            experiment.log_file.write_text(result["stdout"])
            outcomes.append({"experiment": experiment.name, **result})
        self._queued.clear()
        return outcomes

    def run_workspace(self, workspace) -> List[Dict[str, Any]]:
        """Submit every experiment of a workspace, drain the queue, and
        leave logs in place for ``workspace.analyze()``."""
        for experiment in workspace.experiments:
            self.execute(experiment)
        return self.drain()

    @property
    def makespan(self) -> float:
        return self.scheduler.stats()["makespan"]
