"""Tests for the Caliper and Adiak substrates (§5)."""

import pytest

from repro.analysis import adiak
from repro.analysis.caliper import CaliperSession, Profile, region


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

        @s.annotate()
        def work():
            return 42

        assert work() == 42
        assert "work" in s.flush().regions()

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

    def test_global_session_region(self):
        from repro.analysis.caliper import global_session

        with region("global_work"):
            pass
        profile = global_session().flush()
        assert "global_work" in profile.regions()

    def test_flush_merges_adiak_metadata(self):
        adiak.value("nprocs", 64)
        s = CaliperSession(clock=FakeClock())
        with s.region("x"):
            pass
        profile = s.flush(metadata={"run": 1})
        assert profile.metadata["nprocs"] == 64
        assert profile.metadata["run"] == 1


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
