"""GitLab CI pipeline model: ``.gitlab-ci.yml`` parsing and execution.

Benchpark's CI tests "each component …, including source code, inputs,
builds, run scripts, and evaluation on systems both in the cloud and hosted
locally" (§3.3).  A pipeline is parsed from the repository's
``.gitlab-ci.yml`` at the mirrored commit; jobs are grouped into stages and
dispatched to runners whose tags match.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

import yaml

__all__ = ["CiJob", "Pipeline", "parse_ci_config", "CiConfigError"]


class CiConfigError(ValueError):
    pass


_RESERVED_KEYS = {"stages", "variables", "default", "workflow", "include"}


#: GitLab `retry: when:` values we honour (plus the catch-all).
RETRY_WHEN_VALUES = {
    "always",
    "unknown_failure",
    "script_failure",
    "api_failure",
    "stuck_or_timeout_failure",
    "runner_system_failure",
    "runner_unsupported",
    "scheduler_failure",
}


@dataclass
class CiJob:
    name: str
    stage: str
    script: List[str]
    tags: List[str] = field(default_factory=list)
    variables: Dict[str, str] = field(default_factory=dict)
    allow_failure: bool = False
    #: DAG dependencies within the pipeline (GitLab `needs:`)
    needs: List[str] = field(default_factory=list)
    status: str = "created"  # created|pending|running|success|failed|skipped
    log: str = ""
    runner: Optional[str] = None
    run_as_user: Optional[str] = None
    #: GitLab `retry: {max: N, when: [...]}` — how many times a failed run
    #: is re-executed, and for which failure classes
    retry_max: int = 0
    retry_when: List[str] = field(default_factory=lambda: ["always"])
    #: execution bookkeeping filled in by run_pipeline
    attempts: int = 0
    failure_reason: Optional[str] = None

    def retry_applies(self, reason: Optional[str]) -> bool:
        if "always" in self.retry_when:
            return True
        return reason is not None and reason in self.retry_when


@dataclass
class Pipeline:
    pipeline_id: int
    ref: str
    sha: str
    stages: List[str]
    jobs: List[CiJob]
    status: str = "created"

    def jobs_in_stage(self, stage: str) -> List[CiJob]:
        return [j for j in self.jobs if j.stage == stage]

    @property
    def succeeded(self) -> bool:
        return self.status == "success"


def _parse_retry(job_name: str, retry: Any) -> tuple:
    """GitLab `retry:` — either a bare int or `{max: N, when: [...]}`;
    max is capped at 2, exactly as GitLab enforces."""
    if retry is None:
        return 0, ["always"]
    if isinstance(retry, bool):
        raise CiConfigError(f"job {job_name!r}: retry must be int or mapping")
    if isinstance(retry, int):
        retry = {"max": retry}
    if not isinstance(retry, dict):
        raise CiConfigError(f"job {job_name!r}: retry must be int or mapping")
    try:
        retry_max = int(retry.get("max", 0))
    except (TypeError, ValueError):
        raise CiConfigError(f"job {job_name!r}: retry.max must be an integer")
    if not (0 <= retry_max <= 2):
        raise CiConfigError(
            f"job {job_name!r}: retry.max must be in 0..2, got {retry_max}"
        )
    when = retry.get("when", ["always"])
    if isinstance(when, str):
        when = [when]
    when = [str(w) for w in when]
    unknown = [w for w in when if w not in RETRY_WHEN_VALUES]
    if unknown:
        raise CiConfigError(
            f"job {job_name!r}: unknown retry.when value(s) {unknown}; "
            f"known: {sorted(RETRY_WHEN_VALUES)}"
        )
    return retry_max, when


def parse_ci_config(text: str) -> Dict[str, Any]:
    """Parse .gitlab-ci.yml into {stages, variables, jobs}."""
    try:
        data = yaml.safe_load(text) or {}
    except yaml.YAMLError as e:
        raise CiConfigError(f"invalid .gitlab-ci.yml: {e}") from e
    if not isinstance(data, dict):
        raise CiConfigError(".gitlab-ci.yml must be a mapping")
    stages = data.get("stages") or ["test"]
    global_vars = data.get("variables") or {}
    jobs: List[CiJob] = []
    for name, body in data.items():
        if name in _RESERVED_KEYS or name.startswith("."):
            continue
        if not isinstance(body, dict):
            raise CiConfigError(f"job {name!r} must be a mapping")
        if "script" not in body:
            raise CiConfigError(f"job {name!r} has no script")
        stage = body.get("stage", stages[0])
        if stage not in stages:
            raise CiConfigError(
                f"job {name!r} references unknown stage {stage!r}; "
                f"declared: {stages}"
            )
        script = body["script"]
        if isinstance(script, str):
            script = [script]
        variables = dict(global_vars)
        variables.update(body.get("variables") or {})
        retry_max, retry_when = _parse_retry(name, body.get("retry"))
        jobs.append(
            CiJob(
                name=name,
                stage=stage,
                script=[str(s) for s in script],
                tags=[str(t) for t in body.get("tags", [])],
                variables=variables,
                allow_failure=bool(body.get("allow_failure", False)),
                needs=[str(n) for n in body.get("needs", [])],
                retry_max=retry_max,
                retry_when=retry_when,
            )
        )
    if not jobs:
        raise CiConfigError(".gitlab-ci.yml defines no jobs")
    names = {j.name for j in jobs}
    for job in jobs:
        unknown = [n for n in job.needs if n not in names]
        if unknown:
            raise CiConfigError(
                f"job {job.name!r} needs unknown job(s) {unknown}"
            )
    return {"stages": list(stages), "variables": global_vars, "jobs": jobs}


_pipeline_ids = itertools.count(1)


def build_pipeline(ref: str, sha: str, ci_text: str) -> Pipeline:
    parsed = parse_ci_config(ci_text)
    return Pipeline(
        pipeline_id=next(_pipeline_ids),
        ref=ref,
        sha=sha,
        stages=parsed["stages"],
        jobs=parsed["jobs"],
    )


def _execute_with_retry(job: CiJob, execute_job: Callable[[CiJob], tuple]) -> bool:
    """Run one job honouring its `retry:` policy; fills in ``job.log``,
    ``job.attempts``, and ``job.failure_reason``.

    ``execute_job(job)`` returns ``(ok, log)`` or ``(ok, log, reason)``;
    a missing reason on failure defaults to ``"script_failure"``.
    """
    job.attempts = 0
    log_parts: List[str] = []
    while True:
        job.attempts += 1
        outcome = execute_job(job)
        ok, log = bool(outcome[0]), outcome[1]
        reason = outcome[2] if len(outcome) > 2 else None
        if not ok and not reason:
            reason = job.failure_reason or "script_failure"
        log_parts.append(log)
        job.failure_reason = None if ok else reason
        if ok or job.attempts > job.retry_max or not job.retry_applies(reason):
            break
        log_parts.append(
            f"# retrying job {job.name!r} "
            f"(attempt {job.attempts}/{1 + job.retry_max} failed: {reason})"
        )
    job.log = "\n".join(p for p in log_parts if p) if len(log_parts) > 1 \
        else log_parts[0]
    return ok


def run_pipeline(
    pipeline: Pipeline,
    execute_job: Callable[[CiJob], tuple],
) -> Pipeline:
    """Run stages in order; a failed (non-allow_failure) job fails the
    pipeline and skips later stages.  Within a stage, `needs:` edges are
    honoured (a job whose needed job failed or was skipped is skipped).
    Jobs with a GitLab ``retry:`` policy are re-executed on matching
    failures.  ``execute_job(job) -> (ok, log)`` or ``(ok, log, reason)``
    where ``reason`` is a GitLab failure class like
    ``"runner_system_failure"``.
    """
    pipeline.status = "running"
    failed = False
    status_of: Dict[str, str] = {}
    for stage in pipeline.stages:
        pending = list(pipeline.jobs_in_stage(stage))
        # needs-respecting order: run jobs whose needs are all decided.
        progress = True
        while pending and progress:
            progress = False
            for job in list(pending):
                if any(n not in status_of for n in job.needs):
                    continue
                pending.remove(job)
                progress = True
                bad_needs = [n for n in job.needs
                             if status_of.get(n) != "success"]
                if failed or bad_needs:
                    job.status = "skipped"
                    job.log = (
                        f"skipped: needed job(s) did not succeed: {bad_needs}"
                        if bad_needs else "skipped: earlier job failed"
                    )
                    status_of[job.name] = "skipped"
                    continue
                job.status = "running"
                ok = _execute_with_retry(job, execute_job)
                job.status = "success" if ok else "failed"
                status_of[job.name] = job.status
                if not ok and not job.allow_failure:
                    failed = True
        if pending:
            # circular or cross-stage-forward needs can never be satisfied:
            # mark the survivors skipped, each with the reason attached.
            for job in pending:
                unresolved = [n for n in job.needs if n not in status_of]
                job.status = "skipped"
                job.log = (
                    f"skipped: unresolved needs {unresolved} "
                    f"(circular or forward reference within stage {stage!r})"
                )
                status_of[job.name] = "skipped"
            failed = True
    pipeline.status = "failed" if failed else "success"
    return pipeline
