"""Tests for Extra-P model fitting and Thicket ensembles (§5, Figure 14)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.caliper import CaliperSession
from repro.analysis.extrap import (
    Measurement,
    PerformanceModel,
    fit_model,
    fit_multi_term_model,
)
from repro.analysis.thicket import Ensemble, ThicketError


def _profile(nprocs, seconds, system="cts1"):
    class Clock:
        t = 0.0

        def __call__(self):
            return self.t

    clock = Clock()
    s = CaliperSession(clock=clock)
    s.begin("MPI_Bcast")
    clock.t += seconds
    s.end("MPI_Bcast")
    return s.flush(metadata={"nprocs": nprocs, "system": system})


class TestExtrapFitting:
    def test_linear_recovery(self):
        """The Figure 14 case: y = -0.64 + 0.047·p must be recovered."""
        ps = [2, 64, 256, 1024, 2048, 3456]
        ms = [Measurement(p, -0.6355857931 + 0.04660217702 * p) for p in ps]
        model = fit_model(ms)
        assert model.i == 1.0 and model.j == 0
        assert model.c1 == pytest.approx(0.04660217702, rel=1e-6)
        assert model.c0 == pytest.approx(-0.6355857931, rel=1e-4)
        assert "p^(1)" in str(model)

    def test_log_recovery(self):
        ps = [2, 4, 8, 16, 64, 256, 1024]
        ms = [Measurement(p, 1.0 + 0.5 * np.log2(p)) for p in ps]
        model = fit_model(ms)
        assert (model.i, model.j) == (0.0, 1)

    def test_plogp_recovery(self):
        ps = [2, 4, 8, 16, 64, 256]
        ms = [Measurement(p, 3.0 + 0.01 * p * np.log2(p)) for p in ps]
        model = fit_model(ms)
        assert (model.i, model.j) == (1.0, 1)

    def test_sqrt_recovery(self):
        ps = [4, 16, 64, 256, 1024]
        ms = [Measurement(p, 2.0 + 0.3 * np.sqrt(p)) for p in ps]
        model = fit_model(ms)
        assert model.i == pytest.approx(0.5)

    def test_constant_data(self):
        ms = [Measurement(p, 5.0) for p in (2, 4, 8, 16)]
        model = fit_model(ms)
        np.testing.assert_allclose(model.predict([32, 1024]), 5.0, rtol=1e-6)

    def test_repeats_averaged(self):
        ms = [Measurement(2, 1.9), Measurement(2, 2.1),
              Measurement(4, 4.0), Measurement(8, 8.0), Measurement(16, 16.0)]
        model = fit_model(ms)
        assert model.i == 1.0
        assert model.c1 == pytest.approx(1.0, rel=0.05)

    def test_too_few_points_falls_back_to_constant(self):
        # Degenerate series (fewer than 3 distinct process counts) resolve
        # to the constant model instead of raising: continuous pipelines
        # fit whatever history exists.
        model = fit_model([Measurement(2, 1.0), Measurement(4, 2.0)])
        assert model.is_constant
        assert model.c0 == pytest.approx(1.5)

    def test_single_point_is_constant(self):
        model = fit_model([Measurement(8, 3.0)])
        assert model.is_constant
        np.testing.assert_allclose(model.predict([1, 64]), 3.0)

    def test_repeated_x_values_are_constant(self):
        # All measurements at one process count: the design matrix would be
        # rank-deficient; the mean is the only defensible model.
        model = fit_model([Measurement(4, 1.0), Measurement(4, 3.0),
                           Measurement(4, 5.0)])
        assert model.is_constant
        assert model.c0 == pytest.approx(3.0)

    def test_no_measurements_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            fit_model([])

    def test_nonpositive_p_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            fit_model([Measurement(0, 1.0), Measurement(2, 1.0), Measurement(4, 1.0)])

    @pytest.mark.parametrize("fit", [fit_model, fit_multi_term_model])
    @pytest.mark.parametrize("field", ["p", "value"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_nonfinite_measurement_rejected(self, fit, field, bad):
        ms = [(2.0, 1.0), (4.0, 2.0), (8.0, 3.0), (16.0, 4.0)]
        ms[1] = (bad, 2.0) if field == "p" else (4.0, bad)
        with pytest.raises(ValueError, match="finite.*Measurement"):
            fit(ms)

    def test_tuple_input(self):
        model = fit_model([(2, 2.0), (4, 4.0), (8, 8.0), (16, 16.0)])
        assert model.i == 1.0

    def test_tuple_and_measurement_inputs_fit_equal_models(self):
        pairs = [(2.0, 1.0), (4.0, 2.0), (8.0, 4.0)]
        assert fit_model(pairs) == fit_model(
            [Measurement(p, v) for p, v in pairs])

    def test_mutating_a_model_leaves_the_next_fit_alone(self):
        ms = [Measurement(p, -0.64 + 0.047 * p)
              for p in (2, 8, 32, 128, 512, 2048)]
        model = fit_model(ms)
        expected = str(model)
        model.c0 = 12345.0
        model.measurements.clear()
        again = fit_model(ms)
        assert str(again) == expected and again.measurements
        multi = fit_multi_term_model(ms)
        multi.terms.clear()
        assert fit_multi_term_model(ms).terms

    def test_restricted_exponent_space_honoured(self):
        # sqrt data: the full space finds p^(0.5), a linear-only space
        # must settle for p^(1)
        ms = [Measurement(p, 1.0 + 2.0 * p ** 0.5) for p in (2, 8, 32, 128)]
        full = fit_model(ms)
        assert (full.i, full.j) == (0.5, 0)
        restricted = fit_model(ms, exponents=[(1.0, 0)])
        assert (restricted.i, restricted.j) == (1.0, 0)

    def test_model_string_figure14_format(self):
        model = PerformanceModel(c0=-0.6355857931, c1=0.0466021770, i=1.0, j=0)
        text = str(model)
        assert text.startswith("-0.6355857931")
        assert text.endswith("* p^(1)")

    def test_predict_vectorized(self):
        model = PerformanceModel(c0=1.0, c1=2.0, i=1.0, j=0)
        np.testing.assert_allclose(model.predict([1, 2, 3]), [3.0, 5.0, 7.0])

    @given(st.floats(min_value=0.001, max_value=10.0),
           st.floats(min_value=-5.0, max_value=5.0),
           st.sampled_from([0.5, 1.0, 2.0]))
    @settings(max_examples=25, deadline=None)
    def test_exact_data_recovered(self, c1, c0, i):
        ps = [2, 4, 8, 16, 32, 128, 512]
        ms = [Measurement(p, c0 + c1 * p**i) for p in ps]
        model = fit_model(ms)
        pred = model.predict(ps)
        actual = np.array([m.value for m in ms])
        # the chosen hypothesis must reproduce the data essentially exactly
        scale = np.max(np.abs(actual)) or 1.0
        assert np.max(np.abs(pred - actual)) / scale < 1e-6


class TestThicket:
    def _ensemble(self):
        profiles = [
            _profile(p, 0.01 * p) for p in (2, 4, 8, 16, 64)
        ] + [_profile(8, 0.08)]
        return Ensemble(profiles)

    def test_empty_rejected(self):
        with pytest.raises(ThicketError):
            Ensemble([])

    def test_region_names(self):
        assert self._ensemble().region_names() == ["MPI_Bcast"]

    def test_metric_per_profile(self):
        ens = self._ensemble()
        values = ens.metric("MPI_Bcast")
        assert len(values) == len(ens)

    def test_metadata_table(self):
        ens = self._ensemble()
        assert {"nprocs", "system"} <= set(ens.metadata_columns())

    def test_filter(self):
        ens = self._ensemble()
        small = ens.filter(lambda md: md["nprocs"] <= 8)
        assert len(small) == 4

    def test_filter_all_removed(self):
        with pytest.raises(ThicketError, match="every profile"):
            self._ensemble().filter(lambda md: False)

    def test_groupby(self):
        groups = self._ensemble().groupby("nprocs")
        assert set(groups) == {2, 4, 8, 16, 64}
        assert len(groups[8]) == 2

    def test_groupby_missing_key(self):
        with pytest.raises(ThicketError, match="missing metadata"):
            self._ensemble().groupby("ghost")

    def test_stats(self):
        stats = self._ensemble().stats("MPI_Bcast")
        assert stats["count"] == 6
        assert stats["min"] <= stats["mean"] <= stats["max"]

    def test_stats_unknown_region(self):
        with pytest.raises(ThicketError, match="absent"):
            self._ensemble().stats("MPI_Allreduce")

    def test_metric_unknown_region_names_alternatives(self):
        # the error names both the missing region and what does exist
        with pytest.raises(ThicketError, match="MPI_Allreduce.*MPI_Bcast"):
            self._ensemble().metric("MPI_Allreduce")

    def test_stats_frame_matches_per_region_stats(self):
        ens = self._ensemble()
        frame = ens.stats_frame()
        for region in ens.region_names():
            expected = ens.stats(region)
            got = frame[region]
            assert got["count"] == expected["count"]
            for key in ("mean", "std", "min", "max"):
                assert got[key] == pytest.approx(expected[key])

    def test_model_scaling_figure14_pipeline(self):
        """Thicket → Extra-P bridge recovers the linear bcast model."""
        ens = Ensemble([_profile(p, -0.001 + 0.01 * p)
                        for p in (2, 8, 32, 128, 512, 2048)])
        model = ens.model_scaling("MPI_Bcast", scale_key="nprocs")
        assert model.i == 1.0
        assert model.c1 == pytest.approx(0.01, rel=1e-3)


class TestDashboard:
    def test_render_grid(self):
        from repro.analysis.dashboard import render_grid

        out = render_grid(
            ["saxpy", "amg2023"], ["cts1", "ats2"],
            {("saxpy", "cts1"): 1.5, ("amg2023", "ats2"): 2.0},
            title="FOM",
        )
        assert "saxpy" in out and "ats2" in out and "—" in out

    def test_render_series_with_model(self):
        from repro.analysis.dashboard import render_series

        out = render_series([1, 2], [1.0, 2.0], model=[1.1, 1.9])
        assert "model" in out

    def test_render_series_length_mismatch(self):
        from repro.analysis.dashboard import render_series

        with pytest.raises(ValueError):
            render_series([1], [1.0, 2.0])

    def test_ascii_plot(self):
        from repro.analysis.dashboard import ascii_plot

        xs = list(range(1, 20))
        ys = [2.0 * x for x in xs]
        out = ascii_plot(xs, ys, model_ys=[2.0 * x + 0.1 for x in xs])
        assert "o" in out and "*" in out
        assert "measured" in out

    def test_ascii_plot_empty(self):
        from repro.analysis.dashboard import ascii_plot

        with pytest.raises(ValueError):
            ascii_plot([], [])


class TestMultiTermModels:
    def test_two_term_recovery(self):
        import numpy as np
        from repro.analysis.extrap import fit_multi_term_model

        ps = [2, 4, 8, 16, 32, 64, 256, 1024]
        ms = [Measurement(p, 1.0 + 2.0 * p + 30.0 * np.log2(p)) for p in ps]
        model = fit_multi_term_model(ms)
        assert len(model.terms) == 2
        assert model.smape < 0.01
        exps = {(i, j) for _, i, j in model.terms}
        assert (1.0, 0) in exps and (0.0, 1) in exps
        assert model.predict([2048])[0] == pytest.approx(
            1.0 + 2.0 * 2048 + 30.0 * 11, rel=1e-6)

    def test_single_term_data_stays_single(self):
        from repro.analysis.extrap import fit_multi_term_model

        ms = [Measurement(p, -0.64 + 0.047 * p)
              for p in (2, 8, 32, 128, 512, 2048)]
        model = fit_multi_term_model(ms)
        assert len(model.terms) == 1  # occam: no spurious second term

    def test_max_terms_one_equals_fit_model(self):
        from repro.analysis.extrap import fit_multi_term_model

        ms = [Measurement(p, 3.0 * p) for p in (2, 4, 8, 16)]
        single = fit_model(ms)
        multi = fit_multi_term_model(ms, max_terms=1)
        assert multi.c0 == pytest.approx(single.c0)
        assert multi.terms[0][0] == pytest.approx(single.c1)

    def test_invalid_max_terms(self):
        from repro.analysis.extrap import fit_multi_term_model

        with pytest.raises(ValueError):
            fit_multi_term_model([Measurement(2, 1.0)], max_terms=0)

    def test_str_format(self):
        import numpy as np
        from repro.analysis.extrap import fit_multi_term_model

        ps = [2, 4, 8, 16, 32, 128]
        ms = [Measurement(p, 5.0 + p + np.log2(p)) for p in ps]
        model = fit_multi_term_model(ms)
        assert "p^(" in str(model)
