"""Tests for the content-addressing primitives: fingerprint and
ContentStore."""

from repro.perf import (
    ContentStore,
    canonicalize,
    fingerprint,
    fingerprint_file,
    package_signature,
)
from repro.spack import Concretizer
from repro.spack.concretizer import clear_concretization_memo
from repro.spack.repository import builtin_repo


class TestFingerprint:
    def test_deterministic(self):
        for obj in (None, 42, "text", [1, 2], {"a": 1}, {1, 2, 3}):
            assert fingerprint(obj) == fingerprint(obj)

    def test_distinct_inputs_distinct_digests(self):
        digests = {fingerprint(o) for o in (1, "1", [1], {"a": 1}, {"a": 2})}
        assert len(digests) == 5

    def test_map_order_insensitive(self):
        assert fingerprint({"a": 1, "b": 2}) == fingerprint({"b": 2, "a": 1})

    def test_set_order_insensitive_list_order_sensitive(self):
        assert fingerprint({3, 1, 2}) == fingerprint({1, 2, 3})
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
        c = Concretizer(memoize=False)
        s1 = c.concretize("saxpy+openmp")
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
        assert canonicalize(cls) == {"__package__": sig}


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

    def test_snapshot_restore_cumulative_stats(self):
        first = ContentStore("life1")
        first.put("k", "v")
        first.get("k")
        first.get("gone")
        second = ContentStore("life2").restore(dict(first.items()),
                                               first.stats())
        assert second.peek("k") == "v"
        # baseline carries the prior life's counters
        s = second.stats()
        assert (s["hits"], s["misses"], s["puts"]) == (1, 1, 1)
        second.get("k")
        assert second.stats()["hits"] == 2  # cumulative across lives

    def test_snapshot_roundtrips_through_json(self):
        import json

        store = ContentStore("t")
        store.put("k", {"nested": [1, "two"]})
        entries = json.loads(json.dumps(dict(store.items())))
        restored = ContentStore("t2").restore(entries)
        assert restored.peek("k") == {"nested": [1, "two"]}
        assert restored.stats()["puts"] == 0  # restoring is not a put
