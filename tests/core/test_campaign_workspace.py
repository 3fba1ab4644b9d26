"""The campaign workspace: a continuous-benchmarking campaign sets its
workspace up once and runs every cold epoch into ``epoch-N/`` against it.

* *Differential* — each epoch's records equal those of a fresh set-up and
  run of that epoch in its own directory (the per-epoch path, kept here as
  the oracle only), except the measured value and the two variables that
  name the shared script.
* *Invalidation* — set-up runs again exactly when one of its inputs
  changes, and the epoch after an edit runs against the edited input.
* *Resume* — a campaign resumed from its journal sets up again on its
  first cold epoch and then matches the uninterrupted run.
"""

import dataclasses
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.continuous import ContinuousBenchmarking
from repro.core.driver import benchpark_setup
from repro.ramble import Workspace
from repro.ramble.modifiers import Modifier
from repro.spack import repository
from repro.spack.repository import Repository, builtin_repo
from repro.spack.version import Version
from repro.systems import SYSTEMS, SystemExecutor, get_system
from repro.systems.failures import Degradation, FailureSchedule

EPOCHS = 4
#: variables naming the rendered script, which every epoch shares
SCRIPT_KEYS = ("execute_experiment", "batch_submit")
#: manifest keys the loop adds to each record
LOOP_TAGS = ("epoch", "attempts", "flaky")


def _normalized(variables, root: Path) -> dict:
    return {k: v.replace(str(root), "<root>") for k, v in variables.items()
            if k not in SCRIPT_KEYS + LOOP_TAGS}


def _records(campaign, root: Path, epoch=None) -> list:
    """Every record without its measured value, paths relative to
    ``root``."""
    return [(r.experiment, r.fom_name, r.units, _normalized(r.manifest, root))
            for r in campaign.db.query()
            if epoch is None or r.manifest["epoch"] == str(epoch)]


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
                    str(campaign.workspace_dir / "experiments"))

    def test_modifier_env_key_stays_in_its_epoch(self, tmp_path, monkeypatch):
        """A modifier active in epoch 0 writes ``env_*`` keys into that
        epoch's experiments; epoch 1 runs copies of the set-up experiments
        and must not see them."""

        class Tag(Modifier):
            def env_vars(self, experiment):
                return {"EPOCH0_ONLY": "set"}

        run, calls = Workspace.run, []

        def run_tagging_first(self, executor, modifiers=()):
            calls.append(self.path)
            return run(self, executor, [Tag()] if len(calls) == 1 else modifiers)

        monkeypatch.setattr(Workspace, "run", run_tagging_first)
        campaign = ContinuousBenchmarking(
            "stream/openmp", "cts1", tmp_path).run(2)
        epoch0 = [r.manifest for r in campaign.db.query()
                  if r.manifest["epoch"] == "0"]
        epoch1 = [r.manifest for r in campaign.db.query()
                  if r.manifest["epoch"] == "1"]
        assert epoch0 and all(m["env_EPOCH0_ONLY"] == "set" for m in epoch0)
        assert epoch1 and not any("env_EPOCH0_ONLY" in m for m in epoch1)


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
        with tempfile.TemporaryDirectory() as d, \
                pytest.MonkeyPatch.context() as mp:
            campaign = ContinuousBenchmarking(EXPERIMENT, SYSTEM, d)
            campaign.run_epoch()
            for n, edit in enumerate(edits, start=1):
                reflected = EDITS[edit](mp, n)
                campaign.run_epoch()
                assert reflected(campaign), f"epoch {n} ignored edit {edit!r}"
            changed = sum(edit != "none" for edit in edits)
            assert _setup_visits(campaign) == 1 + changed

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
