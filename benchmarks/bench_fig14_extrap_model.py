"""F14 — Figure 14: Extra-P model of MPI_Bcast on the CTS architecture.

The paper's only measured-data figure: red dots are MPI_Bcast total-time
measurements on CTS at increasing process counts (up to ~3456), the blue
line is the Extra-P model

    -0.6355857931034596 + 0.04660217702356169 * p^(1)

— i.e. **linear in p**.  We regenerate the pipeline end to end:

1. run the OSU bcast workload on the simulated cts1 interconnect at the
   same process counts (cts1 uses the 'contended' collective model —
   DESIGN.md §3 substitution);
2. profile each run with Caliper + Adiak metadata, compose with Thicket;
3. fit the PMNF model with Extra-P;
4. assert the *shape* matches the paper: a dominant p^(1) term, near-zero
   constant relative to the largest measurement, R² ≈ 1.

Absolute coefficients differ (our α/β are not CTS's real NIC parameters);
the paper-vs-measured comparison lives in EXPERIMENTS.md.
"""

import pytest

from repro.analysis.caliper import CaliperSession
from repro.analysis.dashboard import ascii_plot, render_series
from repro.analysis.extrap import fit_model
from repro.analysis.thicket import Ensemble
from repro.benchmarks.osu import run_collective
from repro.systems.registry import get_system

#: process counts matching Figure 14's x-axis (0..3456)
NPROCS = (2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 3456)
MESSAGE_BYTES = 1 << 20
PAPER_MODEL = "-0.6355857931034596 + 0.04660217702356169 * p^(1)"


def _measure(p: int) -> float:
    cts1 = get_system("cts1")
    result = run_collective(
        "bcast", n_ranks=p, max_size=MESSAGE_BYTES, iterations=10,
        interconnect=cts1.interconnect, verify=False,
    )
    return result.total_seconds


def _profiles():
    profiles = []
    for p in NPROCS:
        seconds = _measure(p)
        clock = iter((0.0, seconds))
        session = CaliperSession(clock=lambda it=clock: next(it))
        session.begin("MPI_Bcast")
        session.end("MPI_Bcast")
        profiles.append(session.flush(metadata={"nprocs": p, "system": "cts1"}))
    return profiles


def test_figure14_extrap_model(benchmark, artifact):
    profiles = _profiles()
    ensemble = Ensemble(profiles)

    model = benchmark(ensemble.model_scaling, "MPI_Bcast", "nprocs")

    # --- shape assertions against the paper ---------------------------------
    # Figure 14's model is c0 + c1 * p^(1): linear, no log factor.
    assert model.i == 1.0, f"expected p^(1), fitted {model.term_str()}"
    assert model.j == 0, f"expected no log term, fitted {model.term_str()}"
    assert model.c1 > 0
    # constant term negligible vs the largest measurement (paper: -0.64 vs ~160)
    largest = max(m.value for m in model.measurements)
    assert abs(model.c0) < 0.05 * largest
    assert model.r_squared > 0.999

    xs = [m.p for m in model.measurements]
    ys = [m.value for m in model.measurements]
    artifact("fig14_extrap_model", "\n".join([
        "Figure 14: Extra-P model for MPI_Bcast on CTS (reproduced)",
        "",
        f"paper model:    {PAPER_MODEL}",
        f"measured model: {model}",
        f"SMAPE: {model.smape:.4f}%   R^2: {model.r_squared:.6f}",
        "",
        render_series(xs, ys, x_label="nprocs", y_label="total_time_mean",
                      model=list(model.predict(xs))),
        "",
        ascii_plot(xs, ys, model_ys=list(model.predict(xs))),
    ]))


def test_figure14_contrast_binomial_fabric():
    """Control experiment: the same workload on ats4's binomial-tree fabric
    must NOT fit a linear model — the linearity is a property of CTS's
    contended network, not of the benchmark."""
    ats4 = get_system("ats4")
    measurements = []
    for p in NPROCS:
        result = run_collective("bcast", n_ranks=p, max_size=MESSAGE_BYTES,
                                iterations=10, interconnect=ats4.interconnect,
                                verify=False)
        measurements.append((p, result.total_seconds))
    model = fit_model(measurements)
    assert not (model.i == 1.0 and model.j == 0), (
        f"ats4 unexpectedly fitted a linear model: {model}"
    )
    assert model.j >= 1 or model.i < 1.0  # logarithmic-ish


@pytest.mark.parametrize("subset", [NPROCS[:6], NPROCS[3:9], NPROCS[-6:]])
def test_figure14_model_stable_across_measurement_windows(subset):
    """Extra-P models should not depend on which window of scales was
    measured (a robustness property the paper's methodology relies on)."""
    measurements = [(p, _measure(p)) for p in subset]
    model = fit_model(measurements)
    assert model.i == 1.0 and model.j == 0
