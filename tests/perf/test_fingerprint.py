"""Tests for the content-addressing primitives: fingerprint and
ContentStore.

The differential tests check the encoder against the canonical-tree walker
it replaced (``fingerprint_oracle``): two inputs share a fingerprint exactly
when the walker's canonical texts of them are equal.
"""

import dataclasses
import importlib
import importlib.util
import inspect
import sys
from pathlib import Path
from typing import Any

from hypothesis import given, settings, strategies as st

from repro.perf import (
    ContentStore,
    fingerprint,
    fingerprint_file,
    package_signature,
)
from repro.spack.concretizer import Concretizer, clear_concretization_memo
from repro.spack.repository import builtin_repo

from .fingerprint_oracle import canonical_text

# the package attribute of this name is the function
fingerprint_module = importlib.import_module("repro.perf.fingerprint")


class TestFingerprint:
    def test_deterministic(self):
        for obj in (None, 42, "text", [1, 2], {"a": 1}, {1, 2, 3}):
            assert fingerprint(obj) == fingerprint(obj)

    def test_distinct_inputs_distinct_digests(self):
        digests = {fingerprint(o)
                   for o in (1, "1", [1], {"a": 1}, {"a": 2}, Path("1"))}
        assert len(digests) == 6

    def test_map_order_insensitive(self):
        assert fingerprint({"a": 1, "b": 2}) == fingerprint({"b": 2, "a": 1})

    def test_set_order_insensitive_list_order_sensitive(self):
        assert fingerprint({3, 1, 2}) == fingerprint({1, 2, 3})
        # 0 and 8 share a hash slot, so these sets iterate in opposite orders
        assert list({0, 8}) != list({8, 0})
        assert fingerprint({0, 8}) == fingerprint({8, 0})
        assert fingerprint([1, 2, 3]) != fingerprint([3, 2, 1])

    def test_length_parameter(self):
        assert len(fingerprint("x")) == 16
        long = fingerprint("x", length=64)
        assert len(long) == 64 and long.startswith(fingerprint("x"))

    def test_file_content_addressed(self, tmp_path):
        a = tmp_path / "a.yaml"
        b = tmp_path / "renamed.yaml"
        a.write_text("n_nodes: 4\n")
        b.write_text("n_nodes: 4\n")
        # same bytes, different name/location → same fingerprint
        assert fingerprint_file(a) == fingerprint_file(b)
        b.write_text("n_nodes: 8\n")
        assert fingerprint_file(a) != fingerprint_file(b)
        missing = tmp_path / "nope.yaml"
        assert fingerprint_file(missing) == {"__path__": str(missing)}

    def test_concrete_spec_fingerprints(self):
        clear_concretization_memo()
        c = Concretizer()
        s1 = c.concretize("saxpy+openmp")
        clear_concretization_memo()  # s2 is a second solve, not a lookup
        s2 = c.concretize("saxpy+openmp")
        s3 = c.concretize("saxpy~openmp")
        assert fingerprint(s1) == fingerprint(s2)
        assert fingerprint(s1) != fingerprint(s3)

    def test_package_signature_covers_recipe(self):
        cls = builtin_repo().get_class("saxpy")
        sig = package_signature(cls)
        assert sig["name"] == "saxpy"
        assert "openmp" in sig["variants"]
        assert sig["versions"]
        assert sig["source"] is not None
        assert fingerprint(cls) == fingerprint({"__package__": sig})
        assert fingerprint(cls) != fingerprint(
            builtin_repo().get_class("stream"))


#: ``builtin_repo().fingerprint()`` when every recipe's source was read
#: through ``inspect.getsource``
BUILTIN_REPO_DIGEST = "7e9d895b208fb9a6"


class TestClassSource:
    """Recipe sources come from one parse per module, and equal what
    ``inspect.getsource`` gives, so no digest moves."""

    def test_equals_inspect_for_every_builtin_recipe(self):
        repo = builtin_repo()
        names = repo.all_package_names()
        assert len(names) == 20
        for name in names:
            cls = repo.get_class(name)
            assert (fingerprint_module._class_source(cls)
                    == inspect.getsource(cls)), name

    def test_builtin_repo_digest_unchanged(self):
        fresh = type(builtin_repo())(builtin_repo().namespace)
        for name in builtin_repo().all_package_names():
            fresh.register(builtin_repo().get_class(name))
        assert fresh.fingerprint() == BUILTIN_REPO_DIGEST

    def test_one_parse_per_module(self, monkeypatch):
        parses = []
        parse = fingerprint_module.ast.parse
        monkeypatch.setattr(fingerprint_module.ast, "parse",
                            lambda text: parses.append(1) or parse(text))
        monkeypatch.setattr(fingerprint_module, "_class_sources", {})
        repo = builtin_repo()
        for name in repo.all_package_names():
            package_signature(repo.get_class(name))
        assert len(parses) == 1

    def test_unplaced_class_falls_back_to_inspect(self):
        class Local:  # defined in a function: no module-level definition
            x = 1

        assert (fingerprint_module._class_source(Local)
                == inspect.getsource(Local))
        made = type("Made", (), {"__module__": __name__})
        for source in (fingerprint_module._class_source, inspect.getsource):
            try:
                source(made)
            except OSError:
                continue
            raise AssertionError(f"{source.__name__} found a source")

    def test_edited_file_is_read_again(self, tmp_path, monkeypatch):
        path = tmp_path / "recipe_mod.py"
        path.write_text("class Recipe:\n    x = 1\n")
        spec = importlib.util.spec_from_file_location("recipe_mod", path)
        module = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, "recipe_mod", module)
        spec.loader.exec_module(module)
        before = fingerprint_module._class_source(module.Recipe)
        path.write_text("class Recipe:\n    x = 12345\n")
        after = fingerprint_module._class_source(module.Recipe)
        assert before == "class Recipe:\n    x = 1\n"
        assert after == "class Recipe:\n    x = 12345\n"
        assert after == inspect.getsource(module.Recipe)


@dataclasses.dataclass
class Pair:
    first: Any
    second: Any


_SCALARS = (st.none() | st.booleans() | st.integers() | st.floats()
            | st.text(max_size=4) | st.binary(max_size=4)
            | st.text("ab/", max_size=3).map(Path))
#: what a set can hold: scalars, tuples and frozensets of them
_HASHABLE = st.recursive(
    _SCALARS, lambda inner: st.tuples(inner, inner)
    | st.frozensets(inner, max_size=3), max_leaves=6)
#: mapping keys obey the input rule: ``str``, no leading ``__``
_KEYS = st.text(max_size=4).filter(lambda k: not k.startswith("__"))
_VALUES = st.recursive(
    _SCALARS, lambda inner: st.lists(inner, max_size=3)
    | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(_KEYS, inner, max_size=3)
    | st.sets(_HASHABLE, max_size=3)
    | st.builds(Pair, inner, inner), max_leaves=12)


def _rebuilt(value, leaf):
    """``value`` with every container rebuilt and every leaf — a scalar,
    set or frozenset, depth first — replaced by ``leaf(index, old)``."""
    count = -1

    def walk(v):
        nonlocal count
        if isinstance(v, dict):
            return {k: walk(x) for k, x in v.items()}
        if isinstance(v, (list, tuple)):
            return type(v)(walk(x) for x in v)
        if isinstance(v, Pair):
            return Pair(walk(v.first), walk(v.second))
        count += 1
        return leaf(count, v)

    return walk(value)


def _reordered(value, data):
    """``value`` with the items of every dict and set inserted in a drawn
    order."""
    if isinstance(value, dict):
        items = data.draw(st.permutations(list(value.items())))
        return {k: _reordered(v, data) for k, v in items}
    if isinstance(value, (set, frozenset)):
        items = data.draw(st.permutations(list(value)))
        return type(value)(_reordered(v, data) for v in items)
    if isinstance(value, (list, tuple)):
        return type(value)(_reordered(v, data) for v in value)
    if isinstance(value, Pair):
        return Pair(_reordered(value.first, data),
                    _reordered(value.second, data))
    return value


def _agree(a, b) -> bool:
    """Assert the encoder and the walker agree on whether ``a`` and ``b``
    are the same input; return whether they are."""
    same = canonical_text(a) == canonical_text(b)
    assert (fingerprint(a) == fingerprint(b)) == same, (a, b)
    return same


class TestEncoderAgainstWalker:
    @settings(max_examples=200, deadline=None)
    @given(_VALUES, _VALUES)
    def test_independent_inputs(self, a, b):
        _agree(a, b)
        _agree(a, a)

    @settings(max_examples=100, deadline=None)
    @given(_VALUES, st.data())
    def test_reordered_dicts(self, a, data):
        assert _agree(a, _reordered(a, data))

    @settings(max_examples=200, deadline=None)
    @given(_VALUES, st.data())
    def test_one_leaf_changed(self, a, data):
        leaves = []
        _rebuilt(a, lambda i, old: leaves.append(old))
        if not leaves:
            return
        target = data.draw(st.integers(0, len(leaves) - 1))
        # any scalar, or the old leaf's text (1 -> "1", Path("a") -> "a")
        new = data.draw(_SCALARS | st.just(str(leaves[target])))
        _agree(a, _rebuilt(a, lambda i, old: new if i == target else old))


class TestContentStore:
    def test_hit_miss_accounting(self):
        store = ContentStore("t")
        assert store.get("k") is None
        store.put("k", {"v": 1})
        assert store.get("k") == {"v": 1}
        s = store.stats()
        assert (s["hits"], s["misses"], s["puts"]) == (1, 1, 1)
        assert s["lookups"] == 2 and s["hit_rate"] == 0.5

    def test_peek_does_not_count(self):
        store = ContentStore("t")
        store.put("k", 1)
        assert store.peek("k") == 1
        assert store.peek("absent") is None
        s = store.stats()
        assert s["hits"] == 0 and s["misses"] == 0

    def test_contains_len_clear(self):
        store = ContentStore("t")
        store.put("k", 1)
        assert "k" in store and len(store) == 1
        store.clear()
        assert "k" not in store and len(store) == 0
        assert store.stats()["lookups"] == 0
