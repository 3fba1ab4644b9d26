"""Cache-invalidation precision (the correctness half of content addressing).

Changing exactly one input — one ``variables.yaml`` value, one package
recipe, one ``ramble.yaml`` parameter — must invalidate exactly the
fingerprints derived from that input: no stale reuse (the touched input's
fingerprint changes) and no over-invalidation (everything untouched keeps
its fingerprint, and reverting the edit restores the original digest).
"""

import yaml

from repro.core.layout import generate_benchpark_tree
from repro.perf import fingerprint, fingerprint_file
from repro.ramble.workspace import Workspace
from repro.spack.concretizer import (
    Concretizer,
    clear_concretization_memo,
    concretization_memo,
)
from repro.spack.config import ConfigScope, Configuration
from repro.spack.package import Package
from repro.spack.repository import RepoPath, Repository, builtin_repo
from repro.spack.version import Version

CONFIG_FILES = ("compilers.yaml", "packages.yaml", "spack.yaml", "variables.yaml")


def _make_pkg(class_name: str, variant_default: bool = False):
    """A minimal dynamically-defined package (no source on disk — the
    signature still covers its declared metadata)."""
    cls = type(class_name, (Package,), {})
    cls.versions[Version("1.0")] = {
        "sha256": None, "preferred": False, "deprecated": False,
    }
    from repro.spack.variant import VariantDef

    cls.variants["shared"] = VariantDef("shared", default=variant_default)
    return cls


class TestVariablesYamlInvalidation:
    def test_one_value_invalidates_only_that_file(self, tmp_path):
        root = generate_benchpark_tree(
            tmp_path, systems=["cts1"], benchmarks=["stream"]
        )
        cfg_dir = root / "configs" / "cts1"
        before = {f: fingerprint_file(cfg_dir / f) for f in CONFIG_FILES}

        variables_path = cfg_dir / "variables.yaml"
        data = yaml.safe_load(variables_path.read_text())
        section = data.get("variables", data)
        key = sorted(section)[0]
        section[key] = f"{section[key]}-modified"
        variables_path.write_text(yaml.safe_dump(data, sort_keys=False))

        after = {f: fingerprint_file(cfg_dir / f) for f in CONFIG_FILES}
        assert after["variables.yaml"] != before["variables.yaml"]
        for f in CONFIG_FILES:
            if f != "variables.yaml":
                assert after[f] == before[f], f"{f} must not be invalidated"


class TestPackageRecipeInvalidation:
    def test_recipe_change_invalidates_only_its_repo(self):
        overlay = Repository("overlay")
        overlay.register(_make_pkg("Widget", variant_default=False))
        other = Repository("other")
        other.register(_make_pkg("Gadget"))

        overlay_before = overlay.fingerprint()
        other_before = other.fingerprint()
        builtin_before = builtin_repo().fingerprint()
        path_before = RepoPath(overlay, other).fingerprint()

        # edit one recipe: flip a variant default (re-registration models
        # the recipe file changing on disk)
        overlay.register(_make_pkg("Widget", variant_default=True))

        assert overlay.fingerprint() != overlay_before
        assert RepoPath(overlay, other).fingerprint() != path_before
        # untouched repos keep their fingerprints — no over-invalidation
        assert other.fingerprint() == other_before
        assert builtin_repo().fingerprint() == builtin_before

    def test_overlay_order_matters(self):
        a = Repository("a")
        a.register(_make_pkg("Widget"))
        b = Repository("b")
        b.register(_make_pkg("Gadget"))
        assert RepoPath(a, b).fingerprint() != RepoPath(b, a).fingerprint()

    def test_recipe_change_misses_concretization_memo(self):
        """A recipe edit must re-solve; solving again unchanged must hit."""
        repo = Repository("builtin-view")
        for name, cls in builtin_repo()._packages.items():
            repo._packages[name] = cls
        clear_concretization_memo()
        memo = concretization_memo()

        c1 = Concretizer(repo_path=RepoPath(repo))
        first = c1.concretize("saxpy")
        assert memo.stats()["misses"] == 1

        # identical inputs → hit, identical solution
        again = Concretizer(repo_path=RepoPath(repo)).concretize("saxpy")
        assert memo.stats()["hits"] >= 1
        assert again.dag_hash() == first.dag_hash()

        # register one new recipe → repo fingerprint changes → miss
        misses_before = memo.stats()["misses"]
        repo.register(_make_pkg("Widget"))
        Concretizer(repo_path=RepoPath(repo)).concretize("saxpy")
        assert memo.stats()["misses"] == misses_before + 1


class TestConfigInvalidation:
    def test_one_config_value_changes_memo_key(self):
        clear_concretization_memo()
        memo = concretization_memo()
        base = Configuration(ConfigScope(
            "site", {"packages": {"saxpy": {"variants": "+openmp"}}}
        ))
        solved = Concretizer(config=base).concretize("saxpy")
        assert solved.variants["openmp"] is True

        # identical configuration (fresh objects) → hit
        same = Configuration(ConfigScope(
            "site", {"packages": {"saxpy": {"variants": "+openmp"}}}
        ))
        Concretizer(config=same).concretize("saxpy")
        assert memo.stats()["hits"] == 1

        # one changed value → different fingerprint → miss (re-solve)
        changed = Configuration(ConfigScope(
            "site", {"packages": {"saxpy": {"variants": "~openmp"}}}
        ))
        assert changed.fingerprint() != base.fingerprint()
        resolved = Concretizer(config=changed).concretize("saxpy")
        assert resolved.variants["openmp"] is False
        assert memo.stats()["misses"] == 2


class TestRambleYamlInvalidation:
    CONFIG = {
        "ramble": {
            "variables": {"n_repeats": "1", "mpi_command": "mpirun"},
            "applications": {"saxpy": {"workloads": {}}},
        }
    }

    def test_one_parameter_invalidates_and_revert_restores(self, tmp_path):
        ws = Workspace.create(tmp_path, config=self.CONFIG)
        fp_config = fingerprint(ws.read_config())
        fp_template = fingerprint_file(ws.template_path)

        edited = ws.read_config()
        edited["ramble"]["variables"]["n_repeats"] = "5"
        ws.write_config(edited)
        assert fingerprint(ws.read_config()) != fp_config
        # the template was not touched — no over-invalidation
        assert fingerprint_file(ws.template_path) == fp_template

        reverted = ws.read_config()
        reverted["ramble"]["variables"]["n_repeats"] = "1"
        ws.write_config(reverted)
        assert fingerprint(ws.read_config()) == fp_config
