"""Tests for workspace archives (functional reproducibility, §5/§7.1)."""

import json

import pytest

from repro.ramble.archive import (
    ArchiveError,
    archive_workspace,
    load_archive,
    manifest_hash,
    restore_workspace,
    save_archive,
)
from repro.ramble.workspace import Workspace
from repro.systems.executor import LocalExecutor


def _config(n_values=("256", "512")):
    return {
        "ramble": {
            "variables": {"mpi_command": "", "n_ranks": "1"},
            "applications": {"saxpy": {"workloads": {"problem": {
                "experiments": {"saxpy_{n}": {
                    "variables": {"n": list(n_values)},
                    "matrices": [["n"]],
                }}
            }}}},
        }
    }


@pytest.fixture
def ws(tmp_path):
    ws = Workspace.create(tmp_path / "ws", config=_config())
    ws.setup()
    return ws


class TestArchive:
    def test_bundle_contents(self, ws):
        bundle = archive_workspace(ws)
        assert bundle["archive_version"] == 1
        assert len(bundle["experiments"]) == 2
        assert "manifest_hash" in bundle
        assert "results" not in bundle  # not analyzed yet

    def test_results_included_after_analyze(self, ws):
        ws.run(LocalExecutor())
        ws.analyze()
        bundle = archive_workspace(ws)
        assert bundle["results"]["experiments"]

    def test_manifest_hash_ignores_results(self, ws):
        before = archive_workspace(ws)
        ws.run(LocalExecutor())
        ws.analyze()
        after = archive_workspace(ws)
        assert before["manifest_hash"] == after["manifest_hash"]

    def test_manifest_hash_tracks_specification(self, tmp_path):
        a = Workspace.create(tmp_path / "a", config=_config())
        a.setup()
        b = Workspace.create(tmp_path / "b", config=_config(("999",)))
        b.setup()
        assert (manifest_hash(archive_workspace(a))
                != manifest_hash(archive_workspace(b)))

    def test_same_spec_same_hash(self, tmp_path):
        a = Workspace.create(tmp_path / "a", config=_config())
        a.setup()
        b = Workspace.create(tmp_path / "b", config=_config())
        b.setup()
        assert (manifest_hash(archive_workspace(a))
                == manifest_hash(archive_workspace(b)))


class TestRoundTrip:
    def test_save_load(self, ws, tmp_path):
        bundle = archive_workspace(ws)
        path = save_archive(bundle, tmp_path / "archive.json")
        loaded = load_archive(path)
        assert loaded["manifest_hash"] == bundle["manifest_hash"]

    def test_tampered_archive_rejected(self, ws, tmp_path):
        bundle = archive_workspace(ws)
        path = save_archive(bundle, tmp_path / "archive.json")
        data = json.loads(path.read_text())
        data["config"]["ramble"]["variables"]["n_ranks"] = "9999"
        path.write_text(json.dumps(data))
        with pytest.raises(ArchiveError, match="hash mismatch"):
            load_archive(path)

    def test_wrong_version_rejected(self, ws, tmp_path):
        bundle = archive_workspace(ws)
        bundle["archive_version"] = 99
        path = save_archive(bundle, tmp_path / "archive.json")
        with pytest.raises(ArchiveError, match="unsupported"):
            load_archive(path)

    def test_restore_reproduces_experiment_set(self, ws, tmp_path):
        """The paper's functional-reproducibility property: a collaborator
        restoring the archive regenerates the identical experiments."""
        bundle = archive_workspace(ws)
        restored = restore_workspace(bundle, tmp_path / "restored")
        experiments = restored.setup()
        assert [e.name for e in experiments] == \
            [e["name"] for e in bundle["experiments"]]
        # variables match too (modulo absolute paths)
        for new, old in zip(experiments, bundle["experiments"]):
            assert new.variables["n"] == old["variables"]["n"]

    def test_restored_workspace_runs(self, ws, tmp_path):
        bundle = archive_workspace(ws)
        restored = restore_workspace(bundle, tmp_path / "restored")
        restored.setup()
        restored.run(LocalExecutor())
        results = restored.analyze()
        assert all(e["status"] == "SUCCESS" for e in results["experiments"])

    def test_incomplete_bundle_rejected(self, tmp_path):
        with pytest.raises(ArchiveError, match="missing"):
            restore_workspace({"experiments": []}, tmp_path / "x")


from hypothesis import given, settings, strategies as st


@given(st.lists(st.integers(min_value=16, max_value=4096), min_size=1,
                max_size=4, unique=True))
@settings(max_examples=10, deadline=None)
def test_archive_restore_reproducibility_property(tmp_path_factory, ns):
    """Property: for any experiment matrix, archive→restore→setup yields
    exactly the archived experiment set (functional reproducibility)."""
    config = _config(tuple(str(n) for n in ns))
    ws = Workspace.create(tmp_path_factory.mktemp("a") / "ws", config=config)
    ws.setup()
    bundle = archive_workspace(ws)
    restored = restore_workspace(bundle, tmp_path_factory.mktemp("b") / "ws")
    experiments = restored.setup()
    assert [e.name for e in experiments] == \
        [e["name"] for e in bundle["experiments"]]
    assert manifest_hash(archive_workspace(restored)) == \
        bundle["manifest_hash"]
