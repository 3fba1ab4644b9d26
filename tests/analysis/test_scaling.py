"""Tests for scaling-study analysis helpers."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.scaling import classify_scaling, strong_scaling, weak_scaling


def ideal_strong(p_values, t1=100.0):
    return [(p, t1 / p) for p in p_values]


class TestStrongScaling:
    def test_ideal(self):
        table = strong_scaling(ideal_strong([1, 2, 4, 8]))
        assert [pt.speedup for pt in table] == [1.0, 2.0, 4.0, 8.0]
        assert all(pt.efficiency == pytest.approx(1.0) for pt in table)

    def test_amdahl_like(self):
        # 10% serial fraction
        series = [(p, 10.0 + 90.0 / p) for p in (1, 2, 4, 8, 16)]
        table = strong_scaling(series)
        assert table[-1].speedup < 16
        assert table[-1].efficiency < 1.0
        effs = [pt.efficiency for pt in table]
        assert all(b <= a + 1e-12 for a, b in zip(effs, effs[1:]))

    def test_baseline_not_p1(self):
        # Measurements starting at p=4 normalize to p=4.
        table = strong_scaling(ideal_strong([4, 8, 16]))
        assert table[0].speedup == 1.0
        assert table[1].efficiency == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ValueError, match="at least 2"):
            strong_scaling([(1, 1.0)])
        with pytest.raises(ValueError, match="positive"):
            strong_scaling([(1, 1.0), (2, -1.0)])
        with pytest.raises(ValueError, match="duplicate"):
            strong_scaling([(2, 1.0), (2, 2.0)])


class TestWeakScaling:
    def test_ideal_flat(self):
        table = weak_scaling([(p, 10.0) for p in (1, 2, 4, 8)])
        assert all(pt.efficiency == pytest.approx(1.0) for pt in table)

    def test_degrading(self):
        table = weak_scaling([(1, 10.0), (4, 12.0), (16, 20.0)])
        assert table[-1].efficiency == pytest.approx(0.5)


class TestClassify:
    def test_scales_well(self):
        result = classify_scaling(ideal_strong([1, 2, 4, 8, 16]))
        assert result["label"] == "scales well"
        assert result["scaling_limit_p"] == 16

    def test_scaling_limited(self):
        # saturates at p=4
        series = [(1, 100.0), (2, 50.0), (4, 26.0), (8, 25.0), (16, 25.0)]
        result = classify_scaling(series, efficiency_floor=0.5)
        assert result["label"] == "scaling limited"
        assert result["scaling_limit_p"] <= 8

    def test_slowdown(self):
        series = [(1, 100.0), (2, 120.0), (4, 150.0)]
        result = classify_scaling(series)
        assert result["label"] == "does not scale (slows down)"

    def test_bad_floor(self):
        with pytest.raises(ValueError):
            classify_scaling(ideal_strong([1, 2]), efficiency_floor=0.0)

    def test_real_amg_comm_model(self):
        """Classify the simulated AMG strong-scaling curve on cts1: the
        contended fabric must impose a scaling limit."""
        from repro.systems.performance import amg_cycle_model_seconds
        from repro.systems.registry import get_system

        cts1 = get_system("cts1")
        series = [
            (p, amg_cycle_model_seconds(10**6, 7 * 10**6, cts1, n_ranks=p))
            for p in (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024)
        ]
        result = classify_scaling(series, efficiency_floor=0.5)
        assert result["scaling_limit_p"] < 1024  # comm eventually dominates


@given(st.lists(st.integers(min_value=1, max_value=4096), min_size=2,
                max_size=8, unique=True))
@settings(max_examples=25, deadline=None)
def test_ideal_efficiency_is_one(ps):
    table = strong_scaling(ideal_strong(sorted(ps)))
    assert all(pt.efficiency == pytest.approx(1.0) for pt in table)


@given(st.floats(min_value=0.01, max_value=0.9))
@settings(max_examples=20, deadline=None)
def test_amdahl_efficiency_monotone(serial_fraction):
    series = [
        (p, serial_fraction * 100 + (1 - serial_fraction) * 100 / p)
        for p in (1, 2, 4, 8, 16, 32)
    ]
    effs = [pt.efficiency for pt in strong_scaling(series)]
    assert all(b <= a + 1e-9 for a, b in zip(effs, effs[1:]))
