"""Tests for success criteria: fom_comparison mode and experiment-level
criteria declared in ramble.yaml (§4.5, Table 1 row 5)."""

import pytest

from repro.ramble import Workspace
from repro.ramble.application import (
    ApplicationError,
    SuccessCriterionDef,
    _eval_comparison,
)
from repro.systems import LocalExecutor


class TestEvalComparison:
    @pytest.mark.parametrize("expr,expected", [
        ("3 > 2", True),
        ("2 > 3", False),
        ("1.5 <= 1.5", True),
        ("10 != 10", False),
        ("1 < 2 < 3", True),
        ("1 < 3 < 2", False),
        ("2 + 2 == 4", True),
        ("10 / 4 > 2", True),
        ("-1 < 0", True),
        ("3 > 2 and 1 < 2", True),
        ("3 > 2 and 2 < 1", False),
        ("0 > 1 or 2 > 1", True),
    ])
    def test_expressions(self, expr, expected):
        assert _eval_comparison(expr) is expected

    def test_rejects_function_calls(self):
        with pytest.raises(ApplicationError):
            _eval_comparison("__import__('os').getpid() > 0")

    def test_rejects_names(self):
        with pytest.raises(ApplicationError):
            _eval_comparison("x > 1")

    def test_rejects_garbage(self):
        with pytest.raises(ApplicationError, match="bad success formula"):
            _eval_comparison(">>>")


class TestFomComparisonCriterion:
    def test_passes_when_formula_holds(self):
        crit = SuccessCriterionDef("fast", mode="fom_comparison",
                                   fom_name="bandwidth",
                                   formula="{value} > 0.5")
        assert crit.check_fom([1.2, 0.8])

    def test_fails_when_any_value_violates(self):
        crit = SuccessCriterionDef("fast", mode="fom_comparison",
                                   fom_name="bandwidth",
                                   formula="{value} > 0.5")
        assert not crit.check_fom([1.2, 0.1])

    def test_fails_with_no_values(self):
        crit = SuccessCriterionDef("fast", mode="fom_comparison",
                                   fom_name="bandwidth", formula="{value} > 0")
        assert not crit.check_fom([])

    def test_requires_fom_name_and_formula(self):
        with pytest.raises(ApplicationError, match="needs fom_name"):
            SuccessCriterionDef("bad", mode="fom_comparison")

    def test_mode_guards(self):
        string_crit = SuccessCriterionDef("s", mode="string", match="x")
        with pytest.raises(ApplicationError):
            string_crit.check_fom([1])
        fom_crit = SuccessCriterionDef("f", mode="fom_comparison",
                                       fom_name="x", formula="{value} > 0")
        with pytest.raises(ApplicationError):
            fom_crit.check_text("x")


def _config(success_criteria):
    return {
        "ramble": {
            "variables": {"mpi_command": "", "n_ranks": "1"},
            "applications": {"saxpy": {"workloads": {"problem": {
                "experiments": {"saxpy_{n}": {
                    "variables": {"n": "2048"},
                    "success_criteria": success_criteria,
                }}
            }}}},
        }
    }


class TestExperimentLevelCriteria:
    def test_fom_comparison_from_ramble_yaml_passes(self, tmp_path):
        ws = Workspace.create(tmp_path / "ws", config=_config([
            {"name": "bw_floor", "mode": "fom_comparison",
             "fom_name": "bandwidth", "formula": "{value} > 0.0001"},
        ]))
        ws.setup()
        ws.run(LocalExecutor())
        record = ws.analyze()["experiments"][0]
        assert record["status"] == "SUCCESS"
        names = {c["criterion"]: c["passed"] for c in record["success_criteria"]}
        assert names["bw_floor"] is True
        assert names["pass"] is True  # application's own criterion still runs

    def test_impossible_threshold_fails_experiment(self, tmp_path):
        ws = Workspace.create(tmp_path / "ws", config=_config([
            {"name": "bw_absurd", "mode": "fom_comparison",
             "fom_name": "bandwidth", "formula": "{value} > 100000000"},
        ]))
        ws.setup()
        ws.run(LocalExecutor())
        record = ws.analyze()["experiments"][0]
        assert record["status"] == "FAILED"

    def test_criteria_survive_reopening(self, tmp_path):
        Workspace.create(tmp_path / "ws", config=_config([
            {"name": "bw_absurd", "mode": "fom_comparison",
             "fom_name": "bandwidth", "formula": "{value} > 100000000"},
        ])).setup()
        ws = Workspace(tmp_path / "ws")
        ws.run(LocalExecutor())
        record = ws.analyze()["experiments"][0]
        assert record["status"] == "FAILED"
        assert {c["criterion"] for c in record["success_criteria"]} == {
            "pass", "bw_absurd"}

    def test_extra_string_criterion(self, tmp_path):
        ws = Workspace.create(tmp_path / "ws", config=_config([
            {"name": "verified", "mode": "string", "match": "PASSED"},
        ]))
        ws.setup()
        ws.run(LocalExecutor())
        record = ws.analyze()["experiments"][0]
        assert record["status"] == "SUCCESS"

    def test_missing_fom_fails(self, tmp_path):
        ws = Workspace.create(tmp_path / "ws", config=_config([
            {"name": "ghost", "mode": "fom_comparison",
             "fom_name": "nonexistent_fom", "formula": "{value} > 0"},
        ]))
        ws.setup()
        ws.run(LocalExecutor())
        record = ws.analyze()["experiments"][0]
        assert record["status"] == "FAILED"
