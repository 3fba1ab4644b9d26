"""Tests for the saxpy and STREAM benchmark kernels."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.benchmarks.saxpy import A, SaxpyResult, main as saxpy_main, run_saxpy, saxpy_kernel
from repro.benchmarks.stream import KERNELS, _close, main as stream_main, run_stream


class TestSaxpyKernel:
    def test_matches_figure7_semantics(self):
        x = np.array([1.0, 2.0, 3.0], dtype=np.float32)
        y = np.array([10.0, 20.0, 30.0], dtype=np.float32)
        r = np.empty_like(x)
        saxpy_kernel(r, x, y)
        np.testing.assert_allclose(r, A * x + y)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            saxpy_kernel(np.zeros(3), np.zeros(4), np.zeros(3))

    def test_no_input_mutation(self):
        x = np.ones(16, dtype=np.float32)
        y = np.ones(16, dtype=np.float32)
        r = np.empty_like(x)
        saxpy_kernel(r, x, y)
        assert np.all(x == 1.0) and np.all(y == 1.0)

    @given(st.integers(min_value=1, max_value=4096))
    @settings(max_examples=25, deadline=None)
    def test_correct_for_any_size(self, n):
        rng = np.random.default_rng(0)
        x = rng.random(n, dtype=np.float32)
        y = rng.random(n, dtype=np.float32)
        r = np.empty_like(x)
        saxpy_kernel(r, x, y)
        np.testing.assert_allclose(r, A * x + y, rtol=1e-6)


class TestRunSaxpy:
    def test_serial_run(self):
        res = run_saxpy(1024)
        assert res.correct
        assert res.kernel_seconds > 0
        assert res.bandwidth_gbs > 0

    def test_parallel_run_same_checksum(self):
        serial = run_saxpy(8192, n_ranks=1)
        parallel = run_saxpy(8192, n_ranks=4)
        assert parallel.correct
        assert abs(serial.checksum - parallel.checksum) < 1e-3

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            run_saxpy(0)

    def test_invalid_repeats(self):
        with pytest.raises(ValueError):
            run_saxpy(8, repeats=0)

    def test_report_contains_fom_markers(self):
        # Figure 8's regexes depend on these exact strings.
        report = run_saxpy(64).report()
        assert "Kernel done" in report
        assert "saxpy kernel time:" in report

    def test_cli_exit_code(self, capsys):
        assert saxpy_main(["-n", "256"]) == 0
        out = capsys.readouterr().out
        assert "Kernel done" in out

    def test_cli_rejects_a_malformed_argument_with_usage(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            saxpy_main(["-n", "abc"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: saxpy")
        assert "invalid int value: 'abc'" in err

    @given(st.integers(min_value=2, max_value=16))
    @settings(max_examples=10, deadline=None)
    def test_rank_invariant_correctness(self, ranks):
        res = run_saxpy(4096, n_ranks=ranks, repeats=1)
        assert res.correct


class TestStream:
    def test_rates_positive(self):
        res = run_stream(50_000, ntimes=3)
        assert res.valid
        for k in KERNELS:
            assert res.best_rates[k] > 0

    def test_validation_recurrence(self):
        # ntimes and dtype affect the final values; all must validate.
        assert run_stream(10_000, ntimes=2).valid
        assert run_stream(10_000, ntimes=6).valid
        assert run_stream(10_000, 10, dtype=np.float32).valid

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            run_stream(4)

    def test_single_iteration_rejected(self):
        with pytest.raises(ValueError):
            run_stream(10_000, ntimes=1)

    def test_report_format(self):
        rep = run_stream(10_000, ntimes=3).report()
        assert "Best Rate MB/s" in rep
        for k in KERNELS:
            assert k in rep
        assert "Solution Validates" in rep

    def test_cli(self, capsys):
        assert stream_main(["-n", "20000", "--ntimes", "3"]) == 0
        assert "Triad" in capsys.readouterr().out

    @pytest.mark.parametrize("dtype, ntimes, valid", [
        (np.float32, 32, True),
        (np.float32, 33, False),
        (np.float64, 262, True),
        (np.float64, 263, False),
    ])
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_overflowed_run_is_invalid(self, dtype, ntimes, valid):
        # The final values grow as 15**ntimes. Past dtype's range the arrays
        # and the expected values are all inf, which allclose alone passes.
        assert run_stream(64, ntimes, dtype=dtype).valid is valid

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_cli_invalid_exit_code(self, capsys):
        assert stream_main(["-n", "64", "--ntimes", "263"]) == 1
        assert "Solution INVALID" in capsys.readouterr().out

    def test_peak_memory_is_the_three_arrays(self):
        # Set-up and validation allocate nothing beyond the (3, n) block.
        n = 400_000
        run_stream(n, 3)
        tracemalloc.start()
        try:
            run_stream(n, 3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 3 * 8 * n + 64 * 1024


def _nudged(value, dtype, steps):
    """``value`` rounded to ``dtype``, then moved ``steps`` ulps."""
    x = np.array(value, dtype=dtype)
    direction = np.array(np.inf if steps > 0 else -np.inf, dtype=dtype)
    for _ in range(abs(steps)):
        x = np.nextafter(x, direction)
    return x[()]


@st.composite
def close_cases(draw):
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    width = 32 if dtype is np.float32 else 64
    expected = draw(st.one_of(
        st.floats(allow_nan=False, width=width),
        st.floats(allow_nan=False),
        st.sampled_from([0.0, 1.0, 2.0, 15.0 ** 10, np.inf, -np.inf]),
    ))
    special = st.sampled_from([np.nan, np.inf, -np.inf, 0.0, -0.0,
                               float(np.finfo(dtype).smallest_subnormal)])
    elements = [st.floats(width=width), special]
    values = []
    if np.isfinite(expected):
        tol = 1e-8 + 1e-5 * abs(expected)
        with np.errstate(over="ignore"):
            edges = [_nudged(expected + sign * tol, dtype, steps)
                     for sign in (-1, 1) for steps in range(-3, 4)]
            near = _nudged(expected, dtype, 0)
            inside = [v for v in edges + [near] if np.isclose(v, expected)]
        elements.append(st.sampled_from(edges + [near]))
        if inside and draw(st.booleans()):
            # All within tolerance but for at most one value at an edge, so
            # that passing arrays and near misses are both drawn often.
            values = draw(st.lists(st.sampled_from(inside), min_size=1,
                                   max_size=63))
            values += draw(st.lists(st.sampled_from(edges), max_size=1))
    if not values:
        values = draw(st.lists(st.one_of(*elements), min_size=1, max_size=64))
    with np.errstate(over="ignore"):
        return np.array(values, dtype=dtype), expected


class TestClose:
    @given(close_cases())
    @settings(max_examples=500, deadline=None)
    def test_matches_allclose(self, case):
        x, expected = case
        with np.errstate(all="ignore"):
            assert _close(x, expected) == bool(np.allclose(x, expected))
