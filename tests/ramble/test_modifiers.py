"""Tests for modifiers (§4.5's hardware counters etc.) and their wiring
into the workspace run/analyze pipeline."""

from repro.analysis.caliper import CaliperSession, region
from repro.ramble.modifiers import (
    CaliperModifier,
    HardwareCountersModifier,
    Modifier,
)
from repro.ramble.workspace import Workspace
from repro.systems.executor import LocalExecutor


def saxpy_config():
    return {
        "ramble": {
            "variables": {"mpi_command": "", "n_ranks": "1"},
            "applications": {"saxpy": {"workloads": {"problem": {
                "experiments": {"saxpy_{n}": {"variables": {"n": "512"}}}
            }}}},
        }
    }


class TestHardwareCountersModifier:
    def test_extra_output_format(self, tmp_path):
        ws = Workspace.create(tmp_path / "ws", config=saxpy_config())
        ws.setup()
        exp = ws.experiments[0]
        text = HardwareCountersModifier().extra_output(exp, "")
        assert "counter cycles:" in text
        assert "counter flops:" in text

    def test_deterministic_per_experiment(self, tmp_path):
        ws = Workspace.create(tmp_path / "ws", config=saxpy_config())
        ws.setup()
        exp = ws.experiments[0]
        mod = HardwareCountersModifier()
        assert mod.extra_output(exp, "") == mod.extra_output(exp, "")

    def test_foms_extractable(self):
        mod = HardwareCountersModifier()
        foms = mod.figures_of_merit()
        names = {f.name for f in foms}
        assert names == {"hwc_cycles", "hwc_instructions", "hwc_flops"}
        sample = "counter cycles: 1234567\n"
        cycles = [f for f in foms if f.name == "hwc_cycles"][0]
        assert cycles.extract(sample) == ["1234567"]

    def test_end_to_end_through_workspace(self, tmp_path):
        """Table 1 row 5's System column: optional hardware counters flow
        from modifier to analyzed FOMs."""
        ws = Workspace.create(tmp_path / "ws", config=saxpy_config())
        ws.setup()
        ws.run(LocalExecutor(), modifiers=[HardwareCountersModifier()])
        results = ws.analyze()
        record = results["experiments"][0]
        assert record["status"] == "SUCCESS"  # app criteria unaffected
        fom_names = {f["name"] for f in record["figures_of_merit"]}
        assert "hwc_cycles" in fom_names
        assert "kernel_time" in fom_names  # app FOMs still extracted

    def test_custom_counter_set(self):
        mod = HardwareCountersModifier(counters=("cycles",))
        assert [f.name for f in mod.figures_of_merit()] == ["hwc_cycles"]


class TestBaseModifier:
    def test_defaults_are_noops(self, tmp_path):
        ws = Workspace.create(tmp_path / "ws", config=saxpy_config())
        ws.setup()
        exp = ws.experiments[0]
        mod = Modifier()
        assert mod.env_vars(exp) == {}
        assert mod.wrap_command("x") == "x"
        assert mod.extra_output(exp, "y") == ""
        assert mod.figures_of_merit() == []

    def test_caliper_modifier_env(self, tmp_path):
        ws = Workspace.create(tmp_path / "ws", config=saxpy_config())
        ws.setup()
        env = CaliperModifier().env_vars(ws.experiments[0])
        assert "CALI_CONFIG" in env

    def test_env_vars_recorded_on_experiment(self, tmp_path):
        ws = Workspace.create(tmp_path / "ws", config=saxpy_config())
        ws.setup()
        ws.run(LocalExecutor(), modifiers=[CaliperModifier()])
        assert ws.experiments[0].variables["env_CALI_CONFIG"] == \
            "runtime-report,profile"


class TestCaliperModifierLog:
    """The log a Caliper-modified run writes depends on whether a session
    records the run, never on what the process flushed before."""

    @staticmethod
    def _log(path) -> str:
        ws = Workspace.create(path, config=saxpy_config())
        ws.setup()
        ws.run(LocalExecutor(), modifiers=[CaliperModifier()])
        return ws.experiments[0].log_file.read_text()

    @staticmethod
    def _masked(log: str) -> str:
        # the kernel's own timings differ from run to run
        return "\n".join(line for line in log.splitlines()
                         if "time" not in line.lower()
                         and "bandwidth" not in line.lower())

    def test_same_log_whatever_ran_before(self, tmp_path):
        fresh = self._log(tmp_path / "fresh")
        session = CaliperSession()
        with session.activate():
            with region("earlier"):
                pass
            recorded = self._log(tmp_path / "recorded")
        session.flush()
        with region("stray"):
            pass
        after_flush = self._log(tmp_path / "after-flush")
        assert self._masked(after_flush) == self._masked(fresh)
        assert "caliper profile attached" not in fresh
        with session.activate():
            recorded_again = self._log(tmp_path / "recorded-again")
        assert self._masked(recorded_again) == self._masked(recorded)
        assert recorded.endswith("# caliper profile attached\n")
