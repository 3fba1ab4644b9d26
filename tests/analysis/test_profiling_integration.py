"""Integration: Caliper-annotated AMG runs → Thicket ensemble → Extra-P —
the complete §5 analysis pipeline over real benchmark executions."""

import pytest

from repro.analysis import adiak
from repro.analysis.caliper import CaliperSession
from repro.analysis.thicket import Ensemble
from repro.benchmarks.amg import run_amg


@pytest.fixture(autouse=True)
def clean_adiak():
    adiak.clear()
    yield
    adiak.clear()


def profile_amg(n: int, run_id: int):
    """One Caliper-profiled AMG run with Adiak metadata."""
    session = CaliperSession()
    adiak.value("problem_size", n)
    adiak.value("run", run_id)
    with session.activate():
        result = run_amg(problem=1, n=n)
    return session.flush(), result


class TestAnnotatedAmg:
    def test_region_tree_structure(self):
        profile, _ = profile_amg(8, 0)
        regions = profile.regions()
        assert set(regions) == {
            "amg2023", "amg2023/problem", "amg2023/setup", "amg2023/solve"
        }

    def test_inclusive_exceeds_children(self):
        profile, _ = profile_amg(8, 0)
        regions = profile.regions()
        total = regions["amg2023"].inclusive
        parts = (regions["amg2023/problem"].inclusive
                 + regions["amg2023/setup"].inclusive
                 + regions["amg2023/solve"].inclusive)
        assert total >= parts
        assert regions["amg2023"].exclusive >= 0

    def test_profiling_does_not_change_results(self):
        session = CaliperSession()
        with session.activate():
            with_profiling = run_amg(problem=1, n=8)
        session.flush()
        without = run_amg(problem=1, n=8)
        assert with_profiling.stats.iterations == without.stats.iterations
        assert with_profiling.nnz == without.nnz

    def test_adiak_metadata_attached(self):
        profile, _ = profile_amg(10, 3)
        assert profile.metadata["problem_size"] == 10
        assert profile.metadata["run"] == 3


class TestEnsembleOverRuns:
    def test_thicket_composes_amg_profiles(self):
        profiles = [profile_amg(n, i)[0] for i, n in enumerate((6, 8, 10))]
        ens = Ensemble(profiles)
        assert len(ens) == 3
        stats = ens.stats("amg2023/setup")
        assert stats["count"] == 3
        assert stats["mean"] > 0

    def test_setup_time_grows_with_problem_size(self):
        profiles = [profile_amg(n, i)[0] for i, n in enumerate((6, 14))]
        ens = Ensemble(profiles)
        values = ens.metric("amg2023/setup")
        assert values[1] > values[0]

    def test_groupby_problem_size(self):
        profiles = [profile_amg(n, i)[0]
                    for i, n in enumerate((8, 8, 10))]
        groups = Ensemble(profiles).groupby("problem_size")
        assert len(groups[8]) == 2
        assert len(groups[10]) == 1

    def test_tree_display(self):
        profiles = [profile_amg(8, i)[0] for i in range(2)]
        text = Ensemble(profiles).tree()
        assert "amg2023" in text
        assert "  setup" in text
        assert "mean" in text

    def test_extrap_over_profiled_scaling(self):
        """Fit setup time vs problem DOFs — Extra-P on Caliper data, as §5
        proposes, over genuinely measured solver runs."""
        profiles = []
        for i, n in enumerate((6, 8, 10, 12, 14)):
            p, result = profile_amg(n, i)
            p.metadata["dofs"] = result.n_rows
            profiles.append(p)
        model = Ensemble(profiles).model_scaling(
            "amg2023/setup", scale_key="dofs")
        # AMG setup is ~linear in DOFs; allow any ≥-linear polynomial but
        # reject a constant fit.
        assert not model.is_constant
        assert model.predict([20**3]) > model.predict([6**3])
