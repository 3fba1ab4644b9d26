"""The campaign workspace: a continuous-benchmarking campaign sets its
workspace up once and runs every cold epoch into ``epoch-N/`` against it.

* *Differential* — each epoch's records equal those of a fresh set-up and
  run of that epoch in its own directory (the per-epoch path, kept here as
  the oracle only), except the measured value and the two variables that
  name the shared script.
* *Invalidation* — set-up runs again exactly when one of its inputs
  changes, and the epoch after an edit runs against the edited input, even
  when a result cache shared with an unedited run holds that epoch.
* *Resume* — a campaign resumed from its journal sets up again on its
  first cold epoch and then matches the uninterrupted run.
* *Memo* — the set-up key, hashed again only when its inputs change,
  equals a fresh fingerprint of those inputs after any edit, and an edit to
  what analysis reads (figures of merit, success criteria) is not replayed.
"""

import dataclasses
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.continuous import ContinuousBenchmarking
from repro.core.driver import benchpark_setup
from repro.perf import ContentStore, fingerprint
from repro.ramble.application import FigureOfMeritDef
from repro.ramble.apps import builtin_applications
from repro.ramble.workspace import Workspace
from repro.spack import repository
from repro.spack.repository import Repository, builtin_repo
from repro.spack.version import Version
from repro.systems.executor import SystemExecutor
from repro.systems.failures import Degradation, FailureSchedule
from repro.systems.registry import SYSTEMS, get_system

EPOCHS = 4
#: variables naming the rendered script, which every epoch shares
SCRIPT_KEYS = ("execute_experiment", "batch_submit")
#: manifest keys the loop adds to each record
LOOP_TAGS = ("epoch", "attempts", "flaky")


def _normalized(variables, root: Path) -> dict:
    return {k: v.replace(f"{root}/", "") for k, v in variables.items()
            if k not in SCRIPT_KEYS + LOOP_TAGS}


def _records(campaign, root: Path, epoch=None) -> list:
    """Every record without its measured value, paths relative to
    ``root`` (a campaign's records already name paths relative to its
    workdir)."""
    return [(r.experiment, r.fom_name, r.units, _normalized(r.manifest, root))
            for r in campaign.db.query()
            if epoch is None or r.manifest["epoch"] == str(epoch)]


def _replayed(campaign) -> set:
    """The epochs the campaign replayed from its result cache."""
    return {int(r.manifest["epoch"]) for r in campaign.db.query()
            if r.manifest.get("cached") == "true"}


def _setup_visits(campaign) -> int:
    region = campaign.session.regions().get("epoch:setup")
    return region.visits if region is not None else 0


class TestDifferential:
    @pytest.mark.parametrize(
        "experiment", ["stream/openmp", "amg2023/openmp", "saxpy/openmp"])
    def test_epochs_match_a_fresh_setup_per_epoch(self, tmp_path, experiment):
        schedule = FailureSchedule([
            (2, Degradation("bad-dimm", memory_bw_factor=0.5))])
        campaign = ContinuousBenchmarking(
            experiment, "cts1", tmp_path / "campaign", schedule=schedule,
        ).run(EPOCHS)
        assert _setup_visits(campaign) == 1

        for epoch in range(EPOCHS):
            system = schedule.system_at(get_system("cts1"), epoch)
            oracle = benchpark_setup(
                experiment, "cts1", tmp_path / "oracle" / f"epoch-{epoch}",
            ).run_all(executor=SystemExecutor(system, epoch=epoch))
            expected = [
                (exp["name"], fom["name"], fom["units"], exp["status"],
                 _normalized(exp["variables"], tmp_path / "oracle"))
                for exp in oracle["experiments"]
                for fom in exp["figures_of_merit"]]
            epoch_dir = campaign.workdir / f"epoch-{epoch}"
            ran = json.loads((epoch_dir / "results.latest.json").read_text())
            status = {e["name"]: e["status"] for e in ran["experiments"]}
            got = [(name, fom, units, status[name], manifest)
                   for name, fom, units, manifest in _records(
                       campaign, tmp_path / "campaign", epoch)]
            assert expected and got == expected, f"epoch {epoch}"
            assert set(status.values()) == {"SUCCESS"}

            # the epoch's directory holds its logs and results only; the
            # script every epoch ran is the set-up workspace's
            files = {p.relative_to(epoch_dir).as_posix()
                     for p in epoch_dir.rglob("*") if p.is_file()}
            assert files == {"results.latest.json"} | {
                f"experiments/{e['application']}/{e['workload']}/"
                f"{e['name']}/{e['name']}.out" for e in ran["experiments"]}
            for record in campaign.db.query():
                assert record.manifest["execute_experiment"].startswith(
                    "workspace/experiments/")


# -- invalidation ------------------------------------------------------------
EXPERIMENT, SYSTEM = "saxpy/openmp", "cts1"


def _software(campaign) -> str:
    """The software the campaign's experiments ran against, as the
    reopened campaign workspace records it."""
    experiments = Workspace(campaign.workspace_dir).experiments
    return " ".join(str(s) for s in experiments[0].env_specs)


def _edit_recipe(mp, n: int):
    """Re-register the builtin cmake recipe with a newer version, which
    saxpy's unpinned build dependency then picks up."""
    repo = builtin_repo()
    edited = Repository(repo.namespace)
    for name in repo.all_package_names():
        edited.register(repo.get_class(name))
    cmake = type("Cmake", (repo.get_class("cmake"),), {})
    cmake.versions[Version(f"3.28.{n}")] = {
        "sha256": None, "preferred": False, "deprecated": False}
    edited.register(cmake)
    mp.setattr(repository, "_builtin", edited)
    return lambda campaign: f"cmake@3.28.{n}" in _software(campaign)


def _edit_packages(mp, n: int):
    """Point the system's mvapich2 external at another version."""
    packages = get_system(SYSTEM).packages_config
    entry = dict(packages["mvapich2"], externals=[{
        "spec": f"mvapich2@2.4.{n}", "prefix": f"/opt/mvapich2-2.4.{n}"}])
    mp.setitem(packages, "mvapich2", entry)
    return lambda campaign: f"mvapich2@2.4.{n}" in _software(campaign)


def _edit_descriptor(mp, n: int):
    """Change the system's batch submit command."""
    submit = f"sbatch --comment=edit{n} {{execute_experiment}}"
    mp.setitem(SYSTEMS, SYSTEM, dataclasses.replace(
        get_system(SYSTEM), batch_submit=submit))

    def reflected(campaign):
        records = [r for r in campaign.db.query()
                   if r.manifest["epoch"] == str(campaign.epochs_run - 1)]
        return bool(records) and all(
            f"--comment=edit{n} " in r.manifest["batch_submit"]
            for r in records)

    return reflected


EDITS = {
    "recipe": _edit_recipe,
    "packages": _edit_packages,
    "descriptor": _edit_descriptor,
    "none": lambda mp, n: (lambda campaign: True),
}


class TestInvalidation:
    @settings(max_examples=8, deadline=None)
    @given(st.lists(st.sampled_from(sorted(EDITS)), min_size=1, max_size=3))
    def test_setup_reruns_exactly_when_an_input_changes(self, edits):
        """The campaign shares a result cache with an unedited run of the
        same epochs: the epochs before the first edit replay it, and every
        later epoch runs cold against its edited inputs."""
        first = next((n for n, edit in enumerate(edits, start=1)
                      if edit != "none"), len(edits) + 1)
        with tempfile.TemporaryDirectory() as d, \
                pytest.MonkeyPatch.context() as mp:
            shared = ContentStore("epoch-results")
            ContinuousBenchmarking(EXPERIMENT, SYSTEM, Path(d) / "unedited",
                                   result_cache=shared).run(1 + len(edits))
            campaign = ContinuousBenchmarking(
                EXPERIMENT, SYSTEM, Path(d) / "edited", result_cache=shared)
            campaign.run_epoch()
            for n, edit in enumerate(edits, start=1):
                reflected = EDITS[edit](mp, n)
                campaign.run_epoch()
                if n >= first:
                    assert reflected(campaign), f"epoch {n} ignored {edit!r}"
            assert _replayed(campaign) == set(range(first))
            changed = sum(edit != "none" for edit in edits)
            assert _setup_visits(campaign) == changed

    def test_resumed_campaign_sets_up_again_then_matches(self, tmp_path):
        ContinuousBenchmarking(EXPERIMENT, SYSTEM, tmp_path / "killed").run(2)
        resumed = ContinuousBenchmarking(EXPERIMENT, SYSTEM,
                                         tmp_path / "killed")
        assert resumed.epochs_run == 2 and _setup_visits(resumed) == 0
        resumed.run_until(EPOCHS)
        assert _setup_visits(resumed) == 1

        whole = ContinuousBenchmarking(
            EXPERIMENT, SYSTEM, tmp_path / "whole").run(EPOCHS)
        assert (_records(resumed, tmp_path / "killed")
                == _records(whole, tmp_path / "whole"))


# -- the set-up key memo -----------------------------------------------------
def _saxpy():
    return builtin_applications().get("saxpy")


def _edit_nested_packages(mp, n: int):
    """Move the mvapich2 external's prefix, inside its entry."""
    external = get_system(SYSTEM).packages_config["mvapich2"]["externals"][0]
    mp.setitem(external, "prefix", f"/opt/mvapich2-edit{n}")


def _edit_compilers(mp, n: int):
    """Move the first compiler's C compiler, inside its entry."""
    mp.setitem(get_system(SYSTEM).compilers[0]["paths"], "cc",
               f"/usr/tce/bin/gcc-edit{n}")


def _edit_variable_default(mp, n: int):
    """Change saxpy's problem-size default on the shared definition."""
    variable = _saxpy().workloads["problem"].variables["n"]
    mp.setattr(variable, "default", str(n + 1))


def _edit_fom_units(mp, n: int):
    """Change the bandwidth FOM's units on its shared definition."""
    mp.setattr(_saxpy().figures_of_merit["bandwidth"], "units", f"GB/s/{n}")


def _edit_fom_regex(mp, n: int):
    """Replace the bandwidth FOM with one whose regex differs."""
    mp.setitem(_saxpy().figures_of_merit, "bandwidth", FigureOfMeritDef(
        "bandwidth", rf"saxpy bandwidth:{' ' * n}(?P<bw>[0-9.eE+-]+) GB/s",
        "bw", units="GB/s"))


def _edit_equal_copy(mp, n: int):
    """Store an equal copy of an entry: a new object, the same value."""
    packages = get_system(SYSTEM).packages_config
    mp.setitem(packages, "mvapich2", json.loads(json.dumps(
        packages["mvapich2"])))


def _edit_int_to_float(mp, n: int):
    """Replace the system with one whose core count is an equal number of
    the other type: 36 becomes 36.0, and 36.0 becomes 36 again."""
    desc = get_system(SYSTEM)
    cores = desc.cores_per_node
    mp.setitem(SYSTEMS, SYSTEM, dataclasses.replace(
        desc, cores_per_node=float(cores) if isinstance(cores, int)
        else int(cores)))


def _edit_bool_to_int(mp, n: int):
    """Store an equal number of the other type in place: the mvapich2
    entry's ``buildable: false`` becomes 0, and 0 becomes false again."""
    entry = get_system(SYSTEM).packages_config["mvapich2"]
    value = entry["buildable"]
    mp.setitem(entry, "buildable",
               int(value) if isinstance(value, bool) else bool(value))


MEMO_EDITS = dict(EDITS, **{
    "nested-packages": _edit_nested_packages,
    "compilers": _edit_compilers,
    "variable-default": _edit_variable_default,
    "fom-units": _edit_fom_units,
    "fom-regex": _edit_fom_regex,
    "equal-copy": _edit_equal_copy,
    "int-to-float": _edit_int_to_float,
    "bool-to-int": _edit_bool_to_int,
})


class TestSetupKeyMemo:
    @settings(max_examples=10, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(sorted(MEMO_EDITS)),
                              st.sampled_from(["key", "epoch"])),
                    min_size=1, max_size=6))
    def test_memo_equals_a_fresh_fingerprint(self, steps):
        """Edits in place, nested or by replacement, interleaved with key
        look-ups and epochs: the memoized key always equals a fresh
        fingerprint of the inputs."""
        with tempfile.TemporaryDirectory() as d, \
                pytest.MonkeyPatch.context() as mp:
            campaign = ContinuousBenchmarking(EXPERIMENT, SYSTEM, d)
            keys = [campaign._setup_key()]
            for n, (edit, call) in enumerate(steps, start=1):
                MEMO_EDITS[edit](mp, n)
                if call == "epoch":
                    campaign.run_epoch()
                keys.append(campaign._setup_key())
                assert keys[-1] == fingerprint(campaign._setup_inputs()), \
                    f"stale set-up key after {edit!r}"
            assert _setup_visits(campaign) <= len(set(keys))

    @pytest.mark.parametrize("edit", ["int-to-float", "bool-to-int"])
    def test_equal_value_of_another_type_is_hashed(self, tmp_path,
                                                   monkeypatch, edit):
        """``36`` → ``36.0`` and ``False`` → ``0`` compare equal but encode
        differently: the memo must hash them again, not keep the old key."""
        campaign = ContinuousBenchmarking(EXPERIMENT, SYSTEM, tmp_path)
        before = campaign._setup_key()
        MEMO_EDITS[edit](monkeypatch, 1)
        after = campaign._setup_key()
        assert after == fingerprint(campaign._setup_inputs())
        assert after != before

    @pytest.mark.parametrize("edit", ["units", "criterion"])
    def test_analysis_edit_is_not_replayed(self, tmp_path, monkeypatch, edit):
        """A shared store filled before an edit to a figure of merit or a
        success criterion holds results analyzed under the old definition:
        a campaign after the edit runs cold, as a fresh one would."""
        shared = ContentStore("epoch-results")
        ContinuousBenchmarking(EXPERIMENT, SYSTEM, tmp_path / "filled",
                               result_cache=shared).run(2)
        if edit == "units":
            monkeypatch.setattr(_saxpy().figures_of_merit["bandwidth"],
                                "units", "furlongs/fortnight")
        else:
            monkeypatch.setattr(_saxpy().success_criteria["pass"], "match",
                                r"Kernel (done|finished)")
        warm = ContinuousBenchmarking(EXPERIMENT, SYSTEM, tmp_path / "warm",
                                      result_cache=shared).run(2)
        fresh = ContinuousBenchmarking(EXPERIMENT, SYSTEM,
                                       tmp_path / "fresh").run(2)
        assert _replayed(warm) == set()
        assert (_records(warm, tmp_path / "warm")
                == _records(fresh, tmp_path / "fresh"))
        if edit == "units":
            assert {r.units for r in warm.db.query(fom_name="bandwidth")} \
                == {"furlongs/fortnight"}
