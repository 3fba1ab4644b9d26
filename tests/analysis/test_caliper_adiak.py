"""Tests for the Caliper and Adiak substrates (§5)."""

from contextlib import ExitStack

import pytest

from repro.analysis import adiak
from repro.analysis.caliper import (
    CaliperSession,
    Profile,
    active_session,
    annotate,
    region,
)


@pytest.fixture(autouse=True)
def clean_adiak():
    adiak.clear()
    yield
    adiak.clear()


class FakeClock:
    """Deterministic clock for profile tests."""

    def __init__(self):
        self.t = 0.0

    def tick(self, dt):
        self.t += dt

    def __call__(self):
        return self.t


class TestCaliper:
    def test_nested_regions_tree(self):
        clock = FakeClock()
        s = CaliperSession(clock=clock)
        s.begin("main")
        clock.tick(1.0)
        s.begin("solve")
        clock.tick(2.0)
        s.end("solve")
        clock.tick(0.5)
        s.end("main")
        profile = s.flush()
        regions = profile.regions()
        assert regions["main"].inclusive == pytest.approx(3.5)
        assert regions["main/solve"].inclusive == pytest.approx(2.0)
        assert regions["main"].exclusive == pytest.approx(1.5)

    def test_flushed_tree_has_no_negative_exclusive(self):
        clock = FakeClock()
        s = CaliperSession(clock=clock)
        for name, dt in (("setup", 1.0), ("solve", 2.0)):
            with s.region(name):
                clock.tick(dt)
                with s.region("inner"):
                    clock.tick(0.5)
        tree = s.flush().to_dict()["tree"]
        assert tree["inclusive"] == pytest.approx(4.0)

        def nodes(node):
            yield node
            for child in node["children"]:
                yield from nodes(child)

        assert all(n["exclusive"] >= 0 for n in nodes(tree))

    def test_visit_counts(self):
        s = CaliperSession(clock=FakeClock())
        for _ in range(3):
            with s.region("loop"):
                pass
        profile = s.flush()
        assert profile.regions()["loop"].visits == 3

    def test_live_regions_before_flush(self):
        s = CaliperSession(clock=FakeClock())
        assert s.regions() == {}
        with s.region("outer"):
            with s.region("inner"):
                pass
            # an open region is already visible, with its visit counted
            assert s.regions()["outer"].visits == 1
        assert sorted(s.regions()) == ["outer", "outer/inner"]
        s.flush()
        assert s.regions() == {}

    def test_mismatched_end_raises(self):
        s = CaliperSession()
        s.begin("a")
        with pytest.raises(RuntimeError, match="mismatched"):
            s.end("b")

    def test_end_without_begin(self):
        s = CaliperSession()
        with pytest.raises(RuntimeError, match="without matching begin"):
            s.end("ghost")

    def test_flush_with_open_region(self):
        s = CaliperSession()
        s.begin("open")
        with pytest.raises(RuntimeError, match="open regions"):
            s.flush()

    def test_decorator(self):
        s = CaliperSession(clock=FakeClock())

        @annotate()
        def work():
            return 42

        @annotate("named")
        def other():
            return work()

        with s.activate():
            assert work() == 42
            assert other() == 42
        assert set(s.flush().regions()) == {"work", "named", "named/work"}

    def test_exception_still_closes_region(self):
        s = CaliperSession(clock=FakeClock())
        with pytest.raises(ValueError):
            with s.region("risky"):
                raise ValueError("boom")
        profile = s.flush()  # no open regions
        assert "risky" in profile.regions()

    def test_runtime_report_format(self):
        clock = FakeClock()
        s = CaliperSession(clock=clock)
        with s.region("main"):
            clock.tick(1.0)
        report = s.flush().runtime_report()
        assert "main" in report
        assert "Time (incl)" in report

    def test_profile_roundtrip(self):
        clock = FakeClock()
        s = CaliperSession(clock=clock)
        with s.region("a"):
            clock.tick(1.0)
            with s.region("b"):
                clock.tick(2.0)
        profile = s.flush(metadata={"system": "cts1"})
        again = Profile.from_dict(profile.to_dict())
        assert again.metadata["system"] == "cts1"
        assert again.regions()["a/b"].inclusive == pytest.approx(2.0)

    def test_region_records_into_active_session(self):
        s = CaliperSession(clock=FakeClock())
        with s.activate() as active:
            assert active is s and active_session() is s
            with region("outer"):
                with region("inner"):
                    pass
        assert active_session() is None
        regions = s.flush().regions()
        assert set(regions) == {"outer", "outer/inner"}
        assert regions["outer/inner"].visits == 1

    def test_flush_merges_adiak_metadata(self):
        adiak.value("nprocs", 64)
        s = CaliperSession(clock=FakeClock())
        with s.region("x"):
            pass
        profile = s.flush(metadata={"run": 1})
        assert profile.metadata["nprocs"] == 64
        assert profile.metadata["run"] == 1


class TestActiveSession:
    """The one channel: module-level annotations go to the innermost
    active session, and nowhere when none is active."""

    def test_nothing_recorded_without_an_active_session(self):
        s = CaliperSession(clock=FakeClock())

        @annotate("decorated")
        def work():
            return 7

        assert active_session() is None
        with region("loose"):
            assert work() == 7
        with s.activate():
            pass
        assert s.regions() == {}
        assert s.flush().regions() == {}

    def test_nested_activations(self):
        outer, inner = CaliperSession(), CaliperSession()
        with outer.activate():
            with region("a"):
                with inner.activate():
                    assert active_session() is inner
                    with region("b"):
                        pass
                    with outer.activate():  # re-activation nests too
                        with region("c"):
                            pass
                    assert active_session() is inner
                assert active_session() is outer
        assert active_session() is None
        assert set(outer.flush().regions()) == {"a", "a/c"}
        assert set(inner.flush().regions()) == {"b"}

    def test_region_ends_on_the_session_it_began_on(self):
        first, second = CaliperSession(), CaliperSession()
        with ExitStack() as open_regions:
            with first.activate():
                open_regions.enter_context(region("spans"))
            with second.activate():
                with region("inside"):
                    pass
                open_regions.close()  # "spans" ends while second is active
        assert first.regions()["spans"].visits == 1
        assert set(second.regions()) == {"inside"}
        first.flush()  # no open region left on either
        second.flush()

    def test_decorated_exception_closes_region(self):
        s = CaliperSession(clock=FakeClock())

        @annotate("risky")
        def boom():
            raise ValueError("boom")

        with s.activate():
            with pytest.raises(ValueError):
                boom()
        assert active_session() is None
        assert s.flush().regions()["risky"].visits == 1

    def test_activation_ends_on_exception(self):
        s = CaliperSession()
        with pytest.raises(KeyError):
            with s.activate():
                raise KeyError("x")
        assert active_session() is None


class TestAdiak:
    def test_value_and_collect(self):
        adiak.value("compiler", "gcc@12.1.1")
        assert adiak.collected()["compiler"] == "gcc@12.1.1"

    def test_overwrite(self):
        adiak.value("k", 1)
        adiak.value("k", 2)
        assert adiak.collected()["k"] == 2

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            adiak.value("", 1)

    def test_collect_default_has_host_facts(self):
        facts = adiak.collect_default()
        assert "hostname" in facts
        assert "python" in facts

    def test_clear(self):
        adiak.value("x", 1)
        adiak.clear()
        assert adiak.collected() == {}
