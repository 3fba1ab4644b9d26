"""Differential test of :meth:`RetryPolicy.run` against the two-branch
loop it replaced: one branch for a transient error, a copy of it for an
attempt over its time budget.  The oracle below is that loop, kept only
here.  Random per-attempt outcomes — a return (fast or past the budget on a
fake clock), a transient error with or without a fault, a permanent error —
must give the same result, attempt log and raised exception both ways."""

from hypothesis import given, settings, strategies as st

from repro.resilience import (
    AttemptTimeout,
    FaultKind,
    PermanentError,
    RetryExhausted,
    RetryPolicy,
    TransientError,
)
from repro.resilience.faults import TransientFault
from repro.resilience.retry import AttemptLog

#: the attempt budget when one is set; a slow return takes ten times it
BUDGET_S = 1.0


def oracle_run(policy: RetryPolicy, fn, salt, clock):
    """The retry loop with a separate timeout branch, as it stood before
    the two were folded into one retry step."""
    log = AttemptLog()
    while True:
        log.attempts += 1
        attempt = log.attempts
        t0 = clock()
        try:
            result = fn(attempt)
        except TransientError as exc:
            log.fault_kinds.append(exc.kind)
            if attempt >= policy.max_attempts:
                raise RetryExhausted(
                    f"gave up after {attempt} attempts: {exc}", log
                ) from exc
            log.total_backoff_s += policy.backoff_s(attempt, salt)
            continue
        elapsed = clock() - t0
        if (policy.attempt_timeout_s is not None
                and elapsed > policy.attempt_timeout_s):
            timeout = AttemptTimeout(
                f"attempt {attempt} took {elapsed:.3f}s "
                f"(budget {policy.attempt_timeout_s:.3f}s)"
            )
            log.fault_kinds.append("attempt_timeout")
            if attempt >= policy.max_attempts:
                raise RetryExhausted(
                    f"gave up after {attempt} attempts: {timeout}", log
                ) from timeout
            log.total_backoff_s += policy.backoff_s(attempt, salt)
            continue
        return result, log


outcomes = st.one_of(
    st.tuples(st.just("return"), st.sampled_from([0.0, 10 * BUDGET_S])),
    st.tuples(st.just("transient"),
              st.sampled_from([None] + list(FaultKind))),
    st.tuples(st.just("permanent"), st.none()),
)


def _scripted(script):
    """A fresh (fn, clock) pair playing ``script``, one outcome per
    attempt; a return advances the fake clock by its duration."""
    now = [0.0]

    def fn(attempt):
        kind, arg = script[(attempt - 1) % len(script)]
        if kind == "return":
            now[0] += arg
            return f"result of attempt {attempt}"
        if kind == "transient":
            fault = None if arg is None else TransientFault(
                arg, "cts1", "exp", 0, attempt)
            raise TransientError(f"flap on attempt {attempt}", fault)
        raise PermanentError(f"wrong answer on attempt {attempt}")

    return fn, lambda: now[0]


def _observe(run, policy, script):
    fn, clock = _scripted(script)
    try:
        result, log = run(policy, fn, "salt", clock)
    except Exception as exc:  # the exception is the observed outcome
        log = getattr(exc, "log", None)
        return ("raised", type(exc), str(exc), type(exc.__cause__),
                log.to_dict() if log else None, log.flaky if log else None)
    return ("returned", result, log.to_dict(), log.flaky)


@given(
    script=st.lists(outcomes, min_size=1, max_size=6),
    max_attempts=st.integers(1, 5),
    jitter=st.sampled_from([0.0, 0.5]),
    timeout=st.sampled_from([None, BUDGET_S]),
)
@settings(max_examples=300, deadline=None)
def test_folded_run_matches_two_branch_oracle(script, max_attempts, jitter,
                                              timeout):
    policy = RetryPolicy(max_attempts=max_attempts, jitter=jitter,
                         attempt_timeout_s=timeout)
    folded = lambda p, fn, salt, clock: p.run(fn, salt=salt, clock=clock)
    assert _observe(folded, policy, script) == \
        _observe(oracle_run, policy, script)
