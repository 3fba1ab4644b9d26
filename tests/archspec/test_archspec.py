"""Tests for the mini-archspec substrate (§3.1.3)."""

import pytest
from hypothesis import given, strategies as st

from repro.archspec.database import TARGETS, compatible_targets, get_target
from repro.archspec.detect import detect_from_cpuinfo, detect_from_features, detect_host
from repro.archspec.microarch import Microarchitecture, UnsupportedMicroarchitecture


class TestDatabase:
    def test_paper_system_targets_exist(self):
        # cts1 = Intel Xeon, ats2 = Power9, ats4 = AMD Trento
        for name in ("broadwell", "cascadelake", "power9le", "zen3_trento"):
            assert get_target(name).name == name

    def test_unknown_target(self):
        with pytest.raises(UnsupportedMicroarchitecture):
            get_target("quantum9000")

    def test_families(self):
        assert get_target("cascadelake").family.name == "x86_64"
        assert get_target("power9le").family.name == "ppc64le"
        assert get_target("a64fx").family.name == "aarch64"

    def test_every_target_has_unique_family(self):
        for uarch in TARGETS.values():
            assert uarch.family.name in ("x86_64", "ppc64le", "aarch64")

    def test_dag_is_acyclic(self):
        for uarch in TARGETS.values():
            assert uarch not in uarch.ancestors


class TestCompatibilityOrder:
    def test_zen3_runs_x86_64(self):
        assert get_target("zen3") >= get_target("x86_64")
        assert not (get_target("x86_64") >= get_target("zen3"))

    def test_cross_family_incomparable(self):
        z, p = get_target("zen3"), get_target("power9le")
        assert not (z >= p)
        assert not (p >= z)

    def test_sibling_incomparable(self):
        # icelake (Intel) and zen3 (AMD) share ancestors, but neither runs
        # the other's tuned binaries.
        i, z = get_target("icelake"), get_target("zen3")
        assert not (i >= z) and not (z >= i)

    def test_features_accumulate(self):
        assert "avx2" in get_target("zen3")  # inherited from x86_64_v3
        assert "sse2" in get_target("cascadelake")

    def test_compatible_targets_ordered(self):
        compat = compatible_targets("cascadelake")
        assert compat[0].name == "cascadelake"
        assert compat[-1].name == "x86_64"

    def test_string_equality(self):
        assert get_target("zen3") == "zen3"


class TestOptimizationFlags:
    def test_gcc_zen3(self):
        assert get_target("zen3").optimization_flags("gcc", "12.1.1") == \
            "-march=znver3 -mtune=znver3"

    def test_old_gcc_falls_back_to_zen2(self):
        assert "znver2" in get_target("zen3").optimization_flags("gcc", "9.4.0")

    def test_too_old_compiler_raises(self):
        with pytest.raises(UnsupportedMicroarchitecture):
            get_target("zen3").optimization_flags("gcc", "4.8.5")

    def test_unknown_compiler_falls_back_to_ancestor(self):
        # zen3 has no 'intel' entry; x86_64 root does.
        flags = get_target("zen3").optimization_flags("intel", "2021.6.0")
        assert flags == "-xSSE2"

    def test_power9_flags(self):
        assert "power9" in get_target("power9le").optimization_flags("gcc", "8.3.1")

    def test_trento_inherits_zen3_flags(self):
        assert "znver3" in get_target("zen3_trento").optimization_flags("gcc", "12.1.1")


class TestDetection:
    def test_detect_from_features_picks_most_specific(self):
        zen3 = get_target("zen3")
        detected = detect_from_features("AuthenticAMD", zen3.features)
        assert detected.name in ("zen3", "zen3_trento")

    def test_detect_partial_features(self):
        feats = get_target("x86_64_v3").features
        detected = detect_from_features("GenuineIntel", feats)
        assert detected >= get_target("x86_64_v3") or detected == get_target("x86_64_v3")

    def test_detect_vendor_filters(self):
        feats = get_target("zen3").features | get_target("icelake").features
        amd = detect_from_features("AuthenticAMD", feats)
        assert amd.vendor in ("AuthenticAMD", "generic")

    def test_detect_empty_features_gives_family_root(self):
        assert detect_from_features("GenuineIntel", []).name == "x86_64"

    def test_detect_from_cpuinfo_x86(self):
        text = (
            "vendor_id : AuthenticAMD\n"
            "flags : " + " ".join(sorted(get_target("zen2").features)) + "\n"
        )
        assert detect_from_cpuinfo(text).name == "zen2"

    def test_detect_from_cpuinfo_power9(self):
        assert detect_from_cpuinfo("cpu : POWER9 (raw)\n").name == "power9le"

    def test_detect_from_cpuinfo_aarch64(self):
        text = "Features : " + " ".join(sorted(get_target("a64fx").features)) + "\n"
        detected = detect_from_cpuinfo(text)
        assert detected.family.name == "aarch64"

    def test_detect_host_runs(self):
        assert isinstance(detect_host(), Microarchitecture)


# -- property-based -------------------------------------------------------

target_names = st.sampled_from(sorted(TARGETS))


@given(target_names)
def test_ge_reflexive(name):
    u = get_target(name)
    assert u >= u


@given(target_names, target_names)
def test_ge_antisymmetric(a, b):
    ua, ub = get_target(a), get_target(b)
    if ua >= ub and ub >= ua:
        assert ua == ub


@given(target_names, target_names, target_names)
def test_ge_transitive(a, b, c):
    ua, ub, uc = get_target(a), get_target(b), get_target(c)
    if ua >= ub and ub >= uc:
        assert ua >= uc


@given(target_names)
def test_features_superset_of_ancestors(name):
    u = get_target(name)
    for anc in u.ancestors:
        assert anc.features <= u.features


@given(target_names)
def test_detection_roundtrip(name):
    """Detecting from a target's own vendor+features returns a target at
    least as capable (never a strictly weaker one in another branch)."""
    u = get_target(name)
    detected = detect_from_features(u.vendor, u.features, family=u.family.name)
    assert detected >= u
