"""Tests for the Quicksilver-class Monte Carlo transport proxy."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.benchmarks.quicksilver import main as qs_main, run_quicksilver


class TestPhysics:
    def test_conservation(self):
        res = run_quicksilver(50_000)
        assert res.absorbed + res.leaked == res.n_particles

    def test_mean_flight_length_is_one_mfp(self):
        """Flight lengths are Exp(Σt=1): the sample mean must converge to 1."""
        res = run_quicksilver(200_000)
        assert res.mean_flight_length == pytest.approx(1.0, rel=0.01)

    def test_thick_slab_absorbs_more(self):
        thin = run_quicksilver(50_000, slab_width_mfp=1.0)
        thick = run_quicksilver(50_000, slab_width_mfp=20.0)
        assert thick.absorbed / thick.n_particles > \
            thin.absorbed / thin.n_particles
        assert thin.leaked > thick.leaked

    def test_pure_absorber_has_one_segment_per_collision(self):
        """absorption_ratio=1: every collision kills the particle, so
        segments ≈ particles (plus the leakers' single flight)."""
        res = run_quicksilver(50_000, slab_width_mfp=50.0,
                              absorption_ratio=1.0)
        assert res.segments == res.n_particles

    def test_more_scattering_more_segments(self):
        scattery = run_quicksilver(20_000, absorption_ratio=0.1)
        absorby = run_quicksilver(20_000, absorption_ratio=0.9)
        assert scattery.segments > absorby.segments

    def test_deterministic_per_seed(self):
        a = run_quicksilver(10_000, seed=7)
        b = run_quicksilver(10_000, seed=7)
        assert (a.segments, a.absorbed, a.leaked) == \
            (b.segments, b.absorbed, b.leaked)

    def test_different_seeds_differ(self):
        a = run_quicksilver(10_000, seed=1)
        b = run_quicksilver(10_000, seed=2)
        assert a.segments != b.segments

    @pytest.mark.parametrize("kwargs", [
        {"n_particles": 0},
        {"slab_width_mfp": -1.0},
        {"absorption_ratio": 0.0},
        {"absorption_ratio": 1.5},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            run_quicksilver(**{"n_particles": 100, **kwargs})

    @given(st.floats(min_value=0.1, max_value=0.9),
           st.floats(min_value=2.0, max_value=30.0))
    @settings(max_examples=10, deadline=None)
    def test_conservation_property(self, absorption, slab):
        res = run_quicksilver(5_000, slab_width_mfp=slab,
                              absorption_ratio=absorption)
        assert res.absorbed + res.leaked == res.n_particles
        assert res.segments >= res.n_particles


class TestHarness:
    def test_report_markers(self):
        rep = run_quicksilver(1_000).report()
        assert "Figure Of Merit:" in rep
        assert "MC done" in rep

    def test_parallel_mode(self):
        serial = run_quicksilver(20_000, n_ranks=1)
        parallel = run_quicksilver(20_000, n_ranks=8)
        # identical physics, communication cost added
        assert parallel.segments == serial.segments
        assert parallel.fom_segments_per_second > 0

    def test_cli(self, capsys):
        assert qs_main(["-n", "2000"]) == 0
        assert "MC done" in capsys.readouterr().out

    def test_through_full_benchpark_stack(self, tmp_path):
        """quicksilver/openmp on cts1 end to end, like §4's benchmarks."""
        from repro.core.driver import benchpark_setup

        session = benchpark_setup("quicksilver/openmp", "cts1", tmp_path / "ws")
        results = session.run_all()
        assert all(e["status"] == "SUCCESS" for e in results["experiments"])
        foms = {f["name"] for e in results["experiments"]
                for f in e["figures_of_merit"]}
        assert "fom_segments" in foms

    def test_installed_via_spack(self, tmp_path):
        from repro.spack.concretizer import Concretizer
        from repro.spack.installer import Installer
        from repro.spack.store import Store

        spec = Concretizer().concretize("quicksilver")
        assert spec.variants["openmp"] is True
        results = Installer(Store(tmp_path / "s")).install(spec)
        assert any(r.spec.name == "quicksilver" for r in results)
