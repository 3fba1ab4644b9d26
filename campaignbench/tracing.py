"""Span tracing for the campaign benchmark, installed only in a traced run.

:class:`Tracer` replaces each layer's public entry point with a wrapper that
records a span — name, start, end, parent span and the (campaign, epoch)
the closed loop is stepping — and restores the originals on exit.  Spans
stay in memory until :meth:`Tracer.write` dumps them as JSON lines.

A layer's self time is its spans' duration minus the part covered by their
child spans; :func:`layer_self_ms` returns them per layer.  The loop step's
own self time is the part of the step that no traced layer covers; the
benchmark checks that it stays small and that no self time is negative.

Only the loop's own thread is traced.  Calls made from worker threads (the
installer's level pool, the analysis engine's scan pool) run untraced and are
charged to the span that started the pool.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

#: span name -> per-layer self-time metric it is charged to
SELF_TIME_METRIC = {
    "continuous.run_epoch": "continuous.epoch_self_ms",
    "driver.benchpark_setup": "driver.setup_ms",
    "workspace.setup": "workspace.setup_self_ms",
    "concretizer.concretize_together": "concretizer.ms",
    "installer.install": "installer.ms",
    "executor.execute": "executor.self_ms",
    "kernel.stream": "kernel.stream_ms",
    "kernel.amg": "kernel.amg_ms",
    "kernel.saxpy": "kernel.saxpy_ms",
    "kernel.osu": "kernel.osu_ms",
    "fom.analyze": "fom.analyze_ms",
    "metricsdb.ingest_analysis": "metricsdb.ingest_ms",
    "engine.scan": "engine.scan_ms",
    "fingerprint": "fingerprint.ms",
    "step": "loop.self_ms",
}
#: the step time outside every traced layer
UNATTRIBUTED = SELF_TIME_METRIC["step"]

#: STREAM's own byte accounting per iteration, in array elements: copy and
#: scale touch two arrays, add and triad three.
STREAM_ARRAYS_PER_ITERATION = 2 + 2 + 3 + 3


class Tracer:
    """In-memory span recorder with wrapper installation."""

    def __init__(self):
        #: [name, start, end, parent index or None, context]
        self.spans: List[list] = []
        self.counts: Counter = Counter()
        #: (campaign label, epoch) of the step the loop is running
        self.context: Optional[Tuple[str, int]] = None
        self._stack: List[int] = []
        self._thread = threading.get_ident()
        self._patched: List[Tuple[Any, str, Any]] = []

    # -- recording -------------------------------------------------------
    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.context])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def _traced(self, name: str, fn: Callable,
                observe: Optional[Callable] = None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if threading.get_ident() != tracer._thread:
                return fn(*args, **kwargs)
            index = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(index)
            if observe is not None:
                observe(tracer.counts, args, kwargs, result)
            return result

        return traced

    def _counted(self, name: str, fn: Callable) -> Callable:
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    # -- installation ----------------------------------------------------
    def _patch(self, owner: Any, attr: str, replacement: Callable) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> "Tracer":
        """Wrap every layer entry point; :meth:`uninstall` restores them."""
        import yaml

        import repro.perf
        from repro.analysis.engine import AnalysisEngine
        from repro.benchmarks import amg, osu, saxpy, stream
        from repro.ci.metricsdb import MetricsDatabase
        from repro.core import continuous
        from repro.core.runtime import SpackRuntime
        from repro.ramble.workspace import Workspace
        from repro.spack import concretizer
        from repro.systems.executor import SystemExecutor

        spans = [
            (continuous.ContinuousBenchmarking, "run_epoch",
             "continuous.run_epoch", None),
            (continuous, "benchpark_setup", "driver.benchpark_setup", None),
            (Workspace, "setup", "workspace.setup", _observe_setup),
            (SpackRuntime, "concretize_together",
             "concretizer.concretize_together", None),
            (SpackRuntime, "install", "installer.install", _observe_install),
            (SystemExecutor, "execute", "executor.execute", None),
            (stream, "run_stream", "kernel.stream", _observe_stream),
            (amg, "run_amg", "kernel.amg", None),
            (saxpy, "run_saxpy", "kernel.saxpy", None),
            (osu, "run_collective", "kernel.osu", None),
            (Workspace, "analyze", "fom.analyze", _observe_analyze),
            (MetricsDatabase, "ingest_analysis", "metricsdb.ingest_analysis",
             _observe_ingest),
            (AnalysisEngine, "scan", "engine.scan", None),
            # the epoch key, the concretizer memo key, and the config/repo
            # digests that import it at call time
            (continuous, "fingerprint", "fingerprint", None),
            (concretizer, "fingerprint", "fingerprint", None),
            (repro.perf, "fingerprint", "fingerprint", None),
        ]
        for owner, attr, name, observe in spans:
            self._patch(owner, attr,
                        self._traced(name, getattr(owner, attr), observe))
        self._patch(yaml, "safe_load",
                    self._counted("workspace.yaml_loads", yaml.safe_load))
        self._patch(yaml, "safe_dump",
                    self._counted("workspace.yaml_dumps", yaml.safe_dump))
        return self

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- output ----------------------------------------------------------
    def write(self, path: Path) -> None:
        """Dump every span as one JSON line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as f:
            for i, (name, start, end, parent, ctx) in enumerate(self.spans):
                campaign, epoch = ctx if ctx else (None, None)
                f.write(json.dumps({
                    "id": i, "name": name, "start": start, "end": end,
                    "parent": parent, "campaign": campaign, "epoch": epoch,
                }) + "\n")


# -- observers: counts taken where the work happens ------------------------
def _observe_setup(counts, args, kwargs, result) -> None:
    counts["workspace.experiments"] += len(result)


def _observe_install(counts, args, kwargs, result) -> None:
    for build in result:
        counts[f"installer.nodes_{build.action}"] += 1


def _observe_stream(counts, args, kwargs, result) -> None:
    # the executor runs STREAM on float64 arrays: 8 bytes an element
    counts["kernel.stream_bytes_computed"] += (
        STREAM_ARRAYS_PER_ITERATION * result.ntimes * result.array_size * 8
    )


def _observe_analyze(counts, args, kwargs, result) -> None:
    for exp in result["experiments"]:
        counts["fom.analyzed"] += 1
        counts["fom.succeeded"] += exp["status"] == "SUCCESS"
        counts["fom.extracted"] += len(exp["figures_of_merit"])


def _observe_ingest(counts, args, kwargs, result) -> None:
    counts["metricsdb.records"] += result


# -- derivation -------------------------------------------------------------
def layer_self_ms(spans: List[list]) -> Tuple[Dict[str, float], Counter,
                                               List[Tuple[str, float]], float]:
    """Per-layer self time (ms) summed over the spans under loop steps.

    Returns ``(self_ms by metric, span count by name, (name, self ms) of
    every span with a negative self time, sum of step durations)``.  Every
    metric of :data:`SELF_TIME_METRIC` is present, 0 if no span ran.
    """
    child_ms = defaultdict(float)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            child_ms[parent] += (end - start) * 1e3
    by_metric = {metric: 0.0 for metric in SELF_TIME_METRIC.values()}
    calls: Counter = Counter()
    negative: List[Tuple[str, float]] = []
    step_ms = 0.0
    for i, (name, start, end, parent, _) in enumerate(spans):
        if _root(spans, i) is None:
            continue  # outside the loop's steps
        self_ms = (end - start) * 1e3 - child_ms[i]
        by_metric[SELF_TIME_METRIC[name]] += self_ms
        calls[name] += 1
        if self_ms < -1e-6:  # beyond float rounding
            negative.append((name, self_ms))
        if name == "step":
            step_ms += (end - start) * 1e3
    return by_metric, calls, negative, step_ms


def _root(spans: List[list], i: int) -> Optional[int]:
    while spans[i][3] is not None:
        i = spans[i][3]
    return i if spans[i][0] == "step" else None
