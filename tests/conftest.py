"""Fixtures shared across the test packages."""

import itertools
import types

import pytest

from repro.benchmarks import stream


@pytest.fixture
def fixed_clock(monkeypatch):
    """Pin the saxpy and STREAM kernels' timers, so an epoch measures the
    same whatever the host's load: an epoch that runs again measures what
    the uninterrupted run measured, and a healthy history holds no host
    noise for the detector to flag.

    Each saxpy reading advances a fixed step.  A STREAM reading advances a
    step proportional to the array size, so every size reports one
    bandwidth, as the in-cache sizes a campaign runs do on a real host."""
    ticks = itertools.count()
    monkeypatch.setattr(
        "repro.benchmarks.saxpy.time",
        types.SimpleNamespace(perf_counter=lambda: next(ticks) * 1e-3))
    run_stream = stream.run_stream

    def pinned(array_size=1_000_000, *args, **kwargs):
        step = array_size * 1e-9
        monkeypatch.setattr(stream, "time", types.SimpleNamespace(
            perf_counter=lambda: next(ticks) * step))
        return run_stream(array_size, *args, **kwargs)

    monkeypatch.setattr(stream, "run_stream", pinned)
