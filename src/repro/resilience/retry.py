"""Retry policy: error taxonomy, bounded exponential backoff, timeouts.

The taxonomy is the load-bearing part: a retry loop that cannot tell a
node flap (:class:`TransientError`) from a wrong answer
(:class:`PermanentError`) either wastes campaign budget re-running broken
code or gives up on recoverable runs.  Backoff delays are *deterministic* —
jitter comes from a SHA-256 of the salt and attempt number, not a PRNG —
so a resumed campaign replays identically, and they are only *accounted*
(``total_backoff_s``), never slept, because the simulated fleet has no
wall clock to burn.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional

from .faults import TransientFault

__all__ = [
    "TransientError",
    "PermanentError",
    "AttemptTimeout",
    "RetryExhausted",
    "RetryPolicy",
    "AttemptLog",
]


class TransientError(RuntimeError):
    """Retryable: the next attempt may well succeed."""

    def __init__(self, message: str, fault: Optional[TransientFault] = None):
        super().__init__(message)
        self.fault = fault

    @property
    def kind(self) -> str:
        return str(self.fault.kind) if self.fault else "transient"


class PermanentError(RuntimeError):
    """Fatal: retrying cannot help (bad config, wrong answer, no account)."""


class AttemptTimeout(TransientError):
    """An attempt exceeded the policy's per-attempt wall-clock budget."""

    kind = "attempt_timeout"


class RetryExhausted(PermanentError):
    """Every allowed attempt failed transiently."""

    def __init__(self, message: str, log: "AttemptLog"):
        super().__init__(message)
        self.log = log


@dataclass
class AttemptLog:
    """What happened across the attempts of one retried call."""

    attempts: int = 0
    fault_kinds: List[str] = field(default_factory=list)
    total_backoff_s: float = 0.0

    @property
    def flaky(self) -> bool:
        """True when success needed more than one attempt."""
        return self.attempts > 1 or bool(self.fault_kinds)

    def to_dict(self) -> dict:
        return {
            "attempts": self.attempts,
            "fault_kinds": list(self.fault_kinds),
            "total_backoff_s": self.total_backoff_s,
        }


class RetryPolicy:
    """Bounded exponential backoff with deterministic jitter.

    Parameters
    ----------
    max_attempts:
        total tries including the first (>= 1).
    base_delay_s / multiplier / max_delay_s:
        delay before retry *k* (1-based) is
        ``min(base * multiplier**(k-1), max_delay_s)``, then jittered.
    jitter:
        relative jitter amplitude in [0, 1): the delay is scaled by a
        deterministic factor in ``[1-jitter, 1+jitter]`` — and re-capped at
        ``max_delay_s``, which is a hard ceiling.
    attempt_timeout_s:
        per-attempt wall-clock budget; an attempt observed to run longer
        raises :class:`AttemptTimeout` (transient — a timeout on a shared
        machine usually is).
    """

    def __init__(self, max_attempts: int = 4, base_delay_s: float = 1.0,
                 multiplier: float = 2.0, max_delay_s: float = 60.0,
                 jitter: float = 0.5,
                 attempt_timeout_s: Optional[float] = None):
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
        if base_delay_s < 0 or max_delay_s < 0:
            raise ValueError("delays must be >= 0")
        if multiplier < 1.0:
            raise ValueError(f"multiplier must be >= 1, got {multiplier}")
        if not (0.0 <= jitter < 1.0):
            raise ValueError(f"jitter must be in [0, 1), got {jitter}")
        if attempt_timeout_s is not None and attempt_timeout_s <= 0:
            raise ValueError("attempt_timeout_s must be positive")
        self.max_attempts = max_attempts
        self.base_delay_s = base_delay_s
        self.multiplier = multiplier
        self.max_delay_s = max_delay_s
        self.jitter = jitter
        self.attempt_timeout_s = attempt_timeout_s

    # ------------------------------------------------------------------
    def backoff_s(self, attempt: int, salt: str = "") -> float:
        """Delay before retry number ``attempt`` (1-based), deterministic
        in (attempt, salt), never exceeding ``max_delay_s``."""
        if attempt < 1:
            raise ValueError(f"attempt must be >= 1, got {attempt}")
        raw = min(self.base_delay_s * self.multiplier ** (attempt - 1),
                  self.max_delay_s)
        if self.jitter:
            digest = hashlib.sha256(f"{salt}:backoff:{attempt}".encode()).digest()
            u = int.from_bytes(digest[:8], "big") / 2**64
            raw *= 1.0 + (2.0 * u - 1.0) * self.jitter
        return min(raw, self.max_delay_s)

    @staticmethod
    def classify(exc: BaseException) -> str:
        """'transient' | 'permanent' — the retryable/fatal taxonomy."""
        if isinstance(exc, TransientError):
            return "transient"
        return "permanent"

    # ------------------------------------------------------------------
    def run(
        self,
        fn: Callable[[int], Any],
        salt: str = "",
        clock: Callable[[], float] = time.perf_counter,
    ) -> tuple:
        """Call ``fn(attempt)`` (attempt is 1-based) until it succeeds or
        the budget runs out; returns ``(result, AttemptLog)``.

        :class:`TransientError` — an attempt over ``attempt_timeout_s``
        among them — triggers a retry after backoff, which is accounted in
        the log but never slept; :class:`PermanentError` (and any other
        exception) propagates immediately.
        """
        log = AttemptLog()
        while True:
            log.attempts += 1
            attempt = log.attempts
            t0 = clock()
            try:
                result = fn(attempt)
                elapsed = clock() - t0
                if (self.attempt_timeout_s is not None
                        and elapsed > self.attempt_timeout_s):
                    raise AttemptTimeout(
                        f"attempt {attempt} took {elapsed:.3f}s "
                        f"(budget {self.attempt_timeout_s:.3f}s)"
                    )
                return result, log
            except TransientError as exc:
                log.fault_kinds.append(exc.kind)
                if attempt >= self.max_attempts:
                    raise RetryExhausted(
                        f"gave up after {attempt} attempts: {exc}", log
                    ) from exc
                log.total_backoff_s += self.backoff_s(attempt, salt)
