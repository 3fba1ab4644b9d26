"""Modifiers — Ramble's construct for changing experiment behaviour "in
repeatable ways" (§3.2) and for architecture-specific FOMs like hardware
counters (§4.5).

A modifier can inject environment variables, wrap the command line, and
contribute extra figures of merit.  We ship the two the paper mentions as
future work so the analysis pipeline can exercise them:

* :class:`HardwareCountersModifier` — appends a per-run counter report
  (simulated from the benchmark's own metrics) and FOMs to parse it;
* :class:`CaliperModifier` — turns on always-on Caliper profiling
  (:mod:`repro.analysis.caliper`) around the run, and notes in the log
  whether a session was active to record it.
"""

from __future__ import annotations

from typing import Dict, List

from .application import FigureOfMeritDef

__all__ = ["Modifier", "HardwareCountersModifier", "CaliperModifier"]


class Modifier:
    """Base modifier: hooks the executor calls around each experiment."""

    name = "modifier"

    def env_vars(self, experiment) -> Dict[str, str]:
        return {}

    def wrap_command(self, command: str) -> str:
        return command

    def extra_output(self, experiment, stdout: str) -> str:
        """Text appended to the experiment log after execution."""
        return ""

    def figures_of_merit(self) -> List[FigureOfMeritDef]:
        return []


class HardwareCountersModifier(Modifier):
    """Simulated per-run hardware counters.

    Real Benchpark would read PAPI/rocprof counters; we derive plausible
    counters from the run context (deterministic per experiment name) so the
    FOM plumbing — Table 1 row 5's "(optional) hardware counters" — is
    exercised end to end.
    """

    name = "hardware-counters"

    def __init__(self, counters=("cycles", "instructions", "flops")):
        self.counters = tuple(counters)

    def extra_output(self, experiment, stdout: str) -> str:
        seed = abs(hash(experiment.name)) % 1000
        lines = ["# hardware counters"]
        base = {
            "cycles": 1_000_000 + seed * 977,
            "instructions": 800_000 + seed * 701,
            "flops": 500_000 + seed * 499,
        }
        for counter in self.counters:
            value = base.get(counter, 100_000 + seed)
            lines.append(f"counter {counter}: {value}")
        return "\n".join(lines) + "\n"

    def figures_of_merit(self) -> List[FigureOfMeritDef]:
        return [
            FigureOfMeritDef(
                name=f"hwc_{c}",
                fom_regex=rf"counter {c}: (?P<v>\d+)",
                group_name="v",
                units="count",
            )
            for c in self.counters
        ]


class CaliperModifier(Modifier):
    """Wraps the run in a Caliper profiling session (§5)."""

    name = "caliper"

    def env_vars(self, experiment) -> Dict[str, str]:
        return {"CALI_CONFIG": "runtime-report,profile"}

    def extra_output(self, experiment, stdout: str) -> str:
        from repro.analysis.caliper import active_session

        if active_session() is None:
            return ""
        return "# caliper profile attached\n"

