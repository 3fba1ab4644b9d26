"""Fault-tolerant executor — retry/timeout/breaker composition.

Wraps any inner executor with the ``execute(experiment) -> {returncode,
stdout, seconds}`` contract (:class:`~repro.systems.executor.LocalExecutor`,
:class:`~repro.systems.executor.SystemExecutor`, …) and composes, in order:

1. the circuit breaker — a run against an open (system, runner-tag) is
   refused without consuming any attempt budget;
2. transient-fault injection — each attempt may be hit by a deterministic
   :class:`~repro.resilience.faults.TransientFault`;
3. the retry policy — faulted attempts back off and re-run; exhaustion is
   a real failure that trips the breaker.

The result dict is the inner result plus an attempt log (``attempts``,
``fault_kinds``, ``total_backoff_s``, ``flaky``), which the continuous
layer persists into :class:`~repro.ci.metricsdb.MetricsDatabase` so the
regression detector can exclude non-converged samples.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from .breaker import CircuitBreaker, CircuitBreakerRegistry
from .faults import TransientFaultInjector
from .retry import RetryExhausted, RetryPolicy, TransientError

__all__ = ["FaultTolerantExecutor"]

#: BSD's EX_TEMPFAIL — "failure is temporary, retry later"; distinct from
#: the benchmark-level nonzero codes the inner executors emit.
EX_TEMPFAIL = 75


class FaultTolerantExecutor:
    """Retry/timeout/breaker wrapper around an inner executor."""

    def __init__(
        self,
        inner,
        injector: Optional[TransientFaultInjector] = None,
        policy: Optional[RetryPolicy] = None,
        breakers: Optional[CircuitBreakerRegistry] = None,
        runner_tag: str = "default",
    ):
        self.inner = inner
        self.injector = injector
        self.policy = policy or RetryPolicy()
        self.breakers = breakers
        self.runner_tag = runner_tag

    # -- context the inner executor carries --------------------------------
    @property
    def system_name(self) -> str:
        system = getattr(self.inner, "system", None)
        return getattr(system, "name", None) or "local"

    @property
    def epoch(self) -> int:
        return int(getattr(self.inner, "epoch", 0))

    def _breaker(self) -> Optional[CircuitBreaker]:
        if self.breakers is None:
            return None
        return self.breakers.get(self.system_name, self.runner_tag)

    # ----------------------------------------------------------------------
    def execute(self, experiment) -> Dict[str, Any]:
        breaker = self._breaker()
        if breaker is not None and not breaker.allow():
            return {
                "returncode": EX_TEMPFAIL,
                "stdout": (f"ERROR: circuit breaker open for "
                           f"{self.system_name}/{self.runner_tag}; "
                           f"run refused\n"),
                "seconds": 0.0,
                "attempts": 0,
                "fault_kinds": [],
                "total_backoff_s": 0.0,
                "flaky": False,
                "state": "refused",
            }

        def one_attempt(attempt: int) -> Dict[str, Any]:
            if self.injector is not None:
                fault = self.injector.sample(
                    self.system_name, experiment.name, self.epoch, attempt
                )
                if fault is not None:
                    raise TransientError(fault.message, fault)
            if hasattr(self.inner, "attempt"):
                # re-runs on a just-flapped system measure noisier
                self.inner.attempt = attempt
            return self.inner.execute(experiment)

        salt = f"{self.system_name}:{experiment.name}:{self.epoch}"
        try:
            result, log = self.policy.run(one_attempt, salt=salt)
        except RetryExhausted as exc:
            if breaker is not None:
                breaker.record_failure()
            return {
                "returncode": EX_TEMPFAIL,
                "stdout": f"ERROR: {exc}\n",
                "seconds": 0.0,
                "state": "exhausted",
                **exc.log.to_dict(),
                "flaky": True,
            }

        if breaker is not None:
            if result.get("returncode", 0) == 0:
                breaker.record_success()
            else:
                breaker.record_failure()
        if log.flaky:
            result["stdout"] = result.get("stdout", "") + (
                f"# resilience: succeeded on attempt {log.attempts} "
                f"after {log.fault_kinds} "
                f"(total backoff {log.total_backoff_s:.2f}s)\n"
            )
        result.update(log.to_dict())
        result["flaky"] = log.flaky
        result.setdefault("state", "completed")
        return result
