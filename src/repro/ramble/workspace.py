"""Ramble workspaces — the five-command lifecycle of Figure 5.

A workspace is "a self contained directory representing a set of
experiments" (§3.2).  Layout::

    <workspace>/
      configs/ramble.yaml            # primary configuration (Figure 10)
      configs/execute_experiment.tpl # template script (Figure 13)
      experiments/index.json         # the set-up experiments, for reopening
      experiments/<app>/<workload>/<experiment>/   # one dir per experiment
          execute_experiment         # rendered batch script
          <experiment>.out           # execution log (after `ramble on`)
      software/                      # mini-Spack store for this workspace
      results.latest.json            # analysis output

Set-up happens once; the experiments then run any number of times.  A
run may go into the workspace itself or, through :meth:`Workspace.rerooted`,
into another directory: a continuous-benchmarking campaign sets one
workspace up and runs each epoch into ``epoch-N/``, which then holds only
that run's ``experiments/.../<experiment>.out`` logs and its
``results.latest.json`` — the rendered scripts and the software store stay
in the one set-up workspace.

The five commands map to methods:

=====================  ==========================
``workspace create``   :meth:`Workspace.create`
``workspace edit``     :meth:`Workspace.write_config` (programmatic edit)
``workspace setup``    :meth:`Workspace.setup`
``ramble on``          :meth:`Workspace.run`
``workspace analyze``  :meth:`Workspace.analyze`
=====================  ==========================
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence

import yaml

from repro.analysis.caliper import annotate
from repro.spack.spec import Spec

from .application import SuccessCriterionDef
from .apps import ApplicationRepository, builtin_applications
from .expander import Expander
from .matrices import expand_matrix
from .software import merge_spack_sections, resolve_environment
from .templates import DEFAULT_EXECUTE_TEMPLATE, render_template

__all__ = ["Workspace", "Experiment", "WorkspaceError", "rerooted_keys"]


def rerooted_keys(variables: Mapping[str, str], run_dir: str,
                  script: str) -> List[str]:
    """The variables a run moved out of ``run_dir`` rewrites: every one
    naming that run directory, except those naming the rendered
    ``script``, which stays in the set-up workspace.
    :meth:`Workspace.rerooted` and a campaign's journal derive a run's
    paths by this one rule."""
    return [k for k, v in variables.items()
            if run_dir in v and script not in v]


class WorkspaceError(RuntimeError):
    pass


@dataclass
class Experiment:
    """One concrete experiment generated during setup."""

    name: str
    application: str
    workload: str
    variables: Dict[str, str]
    run_dir: Path
    script_path: Path
    env_specs: List[Spec] = field(default_factory=list)
    #: experiment-specific success criteria from ramble.yaml (§4.5)
    success_criteria: List[SuccessCriterionDef] = field(default_factory=list)

    @property
    def log_file(self) -> Path:
        return self.run_dir / f"{self.name}.out"

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "application": self.application,
            "workload": self.workload,
            "variables": dict(self.variables),
            "run_dir": str(self.run_dir),
            "env_specs": [{"spec": s.to_node_dict(deps=True),
                           "concrete": s.concrete} for s in self.env_specs],
            "success_criteria": [vars(c) for c in self.success_criteria],
        }

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "Experiment":
        run_dir = Path(d["run_dir"])
        return cls(
            name=d["name"],
            application=d["application"],
            workload=d["workload"],
            variables=d["variables"],
            run_dir=run_dir,
            script_path=run_dir / "execute_experiment",
            env_specs=[Spec.from_node_dict(s["spec"], concrete=s["concrete"])
                       for s in d.get("env_specs", [])],
            success_criteria=[SuccessCriterionDef(**c)
                              for c in d.get("success_criteria", [])],
        )


class Workspace:
    """A Ramble workspace rooted at a directory."""

    CONFIG = "ramble.yaml"
    TEMPLATE = "execute_experiment.tpl"

    def __init__(self, path: Path | str):
        self.path = Path(path)
        if not self.config_path.exists():
            raise WorkspaceError(
                f"{self.path} is not a ramble workspace (no configs/{self.CONFIG}); "
                f"use Workspace.create()"
            )
        self.apps: ApplicationRepository = builtin_applications()
        self.experiments: List[Experiment] = []
        self._load_experiment_index()

    # ------------------------------------------------------------------
    # workspace create
    # ------------------------------------------------------------------
    @classmethod
    def create(cls, path: Path | str,
               config: Optional[Mapping[str, Any]] = None,
               template: str = DEFAULT_EXECUTE_TEMPLATE) -> "Workspace":
        path = Path(path)
        (path / "configs").mkdir(parents=True, exist_ok=True)
        (path / "experiments").mkdir(exist_ok=True)
        (path / "software").mkdir(exist_ok=True)
        config = dict(config) if config else {"ramble": {"applications": {}}}
        (path / "configs" / cls.CONFIG).write_text(
            yaml.safe_dump(config, sort_keys=False)
        )
        (path / "configs" / cls.TEMPLATE).write_text(template)
        return cls(path)

    @property
    def config_path(self) -> Path:
        return self.path / "configs" / self.CONFIG

    @property
    def template_path(self) -> Path:
        return self.path / "configs" / self.TEMPLATE

    @property
    def experiments_dir(self) -> Path:
        return self.path / "experiments"

    @property
    def software_dir(self) -> Path:
        return self.path / "software"

    # ------------------------------------------------------------------
    # workspace edit (programmatic)
    # ------------------------------------------------------------------
    def read_config(self) -> Dict[str, Any]:
        data = yaml.safe_load(self.config_path.read_text()) or {}
        if "ramble" not in data:
            raise WorkspaceError(f"{self.config_path}: missing top-level 'ramble:'")
        return data

    def write_config(self, config: Mapping[str, Any]) -> None:
        if "ramble" not in config:
            raise WorkspaceError("workspace config must have a top-level 'ramble:'")
        self.config_path.write_text(yaml.safe_dump(dict(config), sort_keys=False))

    # ------------------------------------------------------------------
    # workspace setup
    # ------------------------------------------------------------------
    @annotate("workspace.setup")
    def setup(self, spack_runtime=None,
              extra_variables: Optional[Mapping[str, Any]] = None
              ) -> List[Experiment]:
        """Generate all experiment directories, render their scripts, and
        (if a spack runtime is provided) install required software.

        ``spack_runtime`` is anything with ``concretize_together(specs)``
        and ``install(spec)`` — usually
        :class:`repro.core.runtime.SpackRuntime`.
        """
        ramble = self.read_config()["ramble"]
        spack_section = self._merged_spack_section(ramble)
        template = self.template_path.read_text()

        self.experiments = []
        applications = ramble.get("applications") or {}
        if not applications:
            raise WorkspaceError("ramble.yaml defines no applications")
        for app_name, app_cfg in applications.items():
            app_cls = self.apps.get(app_name)
            for wl_name, wl_cfg in (app_cfg.get("workloads") or {}).items():
                self._setup_workload(
                    app_cls, wl_name, wl_cfg or {}, ramble, spack_section,
                    template, spack_runtime, dict(extra_variables or {}),
                )
        self._save_experiment_index()
        return list(self.experiments)

    def _merged_spack_section(self, ramble: Mapping[str, Any]) -> Dict[str, Any]:
        """Combine included system spack config (Fig 10 line 3) with the
        workspace's own spack section."""
        system_side: Dict[str, Any] = {}
        for include in ramble.get("include") or []:
            inc_path = (self.path / include).resolve() if not Path(include).is_absolute() else Path(include)
            if inc_path.name == "spack.yaml" and inc_path.exists():
                data = yaml.safe_load(inc_path.read_text()) or {}
                system_side = data.get("spack", data)
        return merge_spack_sections(system_side, ramble.get("spack") or {})

    def _included_variables(self, ramble: Mapping[str, Any]) -> Dict[str, Any]:
        """Variables from included variables.yaml files (Figure 12)."""
        out: Dict[str, Any] = {}
        for include in ramble.get("include") or []:
            inc_path = (self.path / include).resolve() if not Path(include).is_absolute() else Path(include)
            if inc_path.name == "variables.yaml" and inc_path.exists():
                data = yaml.safe_load(inc_path.read_text()) or {}
                out.update(data.get("variables", data) or {})
        return out

    def _setup_workload(self, app_cls, wl_name: str, wl_cfg: Mapping[str, Any],
                        ramble: Mapping[str, Any], spack_section: Dict[str, Any],
                        template: str, spack_runtime,
                        extra_variables: Dict[str, Any]) -> None:
        app_name = app_cls.app_name()
        workload = app_cls.get_workload(wl_name)

        # Variable precedence (low → high): application defaults,
        # included variables.yaml, workspace-level variables, workload
        # variables, experiment variables, harness extras.
        base: Dict[str, Any] = {n: v.default for n, v in workload.variables.items()}
        base.update(self._included_variables(ramble))
        base.update(ramble.get("variables") or {})
        base.update(wl_cfg.get("variables") or {})

        # Workload env_vars (Figure 10 lines 14-16: env_vars: set:
        # OMP_NUM_THREADS: '{n_threads}') become export lines in the batch
        # script, expanded per experiment.
        env_vars_cfg: Dict[str, Any] = dict(
            (wl_cfg.get("env_vars") or {}).get("set") or {}
        )

        experiments_cfg = wl_cfg.get("experiments") or {}
        if not experiments_cfg:
            raise WorkspaceError(
                f"{app_name}/{wl_name}: no experiments defined"
            )

        # §3.2.3: "Downloading source and input files" — materialize the
        # application's declared inputs into the workspace (simulated
        # download: the file records its source URL and is content-stable).
        inputs_dir = self.path / "inputs" / app_name
        for input_name, meta in (app_cls.inputs or {}).items():
            inputs_dir.mkdir(parents=True, exist_ok=True)
            target = inputs_dir / input_name
            if not target.exists():
                target.write_text(
                    f"# simulated download\n# source: {meta.get('url', '')}\n"
                    f"# description: {meta.get('description', '')}\n"
                )

        env_specs: List[Spec] = []
        if spack_section.get("environments"):
            env_name = app_name if app_name in (spack_section["environments"]) \
                else next(iter(spack_section["environments"]))
            env_specs = resolve_environment(spack_section, env_name)
            if spack_runtime is not None:
                concrete = spack_runtime.concretize_together(env_specs)
                for spec in concrete:
                    spack_runtime.install(spec)
                env_specs = concrete

        for exp_template_name, exp_cfg in experiments_cfg.items():
            exp_vars = dict(base)
            exp_vars.update((exp_cfg or {}).get("variables") or {})
            # Harness-supplied extras have the last word (precedence doc in
            # _setup_workload's caller).
            exp_vars.update(extra_variables)
            matrices = (exp_cfg or {}).get("matrices") or []
            criteria = [
                SuccessCriterionDef(
                    name=c.get("name", f"criterion{i}"),
                    mode=c.get("mode", "string"),
                    match=c.get("match", ""),
                    file=c.get("file", "{log_file}"),
                    fom_name=c.get("fom_name", ""),
                    formula=c.get("formula", ""),
                )
                for i, c in enumerate((exp_cfg or {}).get("success_criteria") or [])
            ]
            vectors = expand_matrix(exp_vars, matrices)
            for vector in vectors:
                self._materialize_experiment(
                    app_cls, wl_name, exp_template_name, vector, template,
                    env_specs, criteria, env_vars_cfg,
                )

    def _materialize_experiment(self, app_cls, wl_name: str,
                                name_template: str, vector: Dict[str, Any],
                                template: str, env_specs: List[Spec],
                                success_criteria: Optional[List[SuccessCriterionDef]] = None,
                                env_vars: Optional[Dict[str, Any]] = None,
                                ) -> None:
        app_name = app_cls.app_name()
        variables = dict(vector)
        # Derived defaults Ramble computes when absent.
        if "n_ranks" not in variables and {"processes_per_node", "n_nodes"} <= set(variables):
            variables["n_ranks"] = "{processes_per_node}*{n_nodes}"
        variables.setdefault("n_nodes", "1")
        variables.setdefault("n_ranks", "1")
        variables.setdefault("n_threads", "1")
        variables.setdefault("batch_time", "30")
        variables.setdefault("mpi_command", "")
        variables.setdefault("batch_submit", "bash {execute_experiment}")
        variables.setdefault("batch_nodes", "#SBATCH -N {n_nodes}")
        variables.setdefault("batch_ranks", "#SBATCH -n {n_ranks}")
        variables.setdefault("batch_timeout", "#SBATCH -t {batch_time}:00")
        variables.setdefault("spack_setup", "# spack environment loaded")

        expander = Expander(variables)
        exp_name = expander.expand(name_template)
        run_dir = self.experiments_dir / app_name / wl_name / exp_name
        run_dir.mkdir(parents=True, exist_ok=True)

        variables["experiment_name"] = exp_name
        variables["experiment_run_dir"] = str(run_dir)
        variables["application_name"] = app_name
        variables["workload_name"] = wl_name
        variables["log_file"] = str(run_dir / f"{exp_name}.out")
        variables["execute_experiment"] = str(run_dir / "execute_experiment")

        # The experiment's command: every executable of the workload, with
        # the mpi launcher prefix for use_mpi executables (Figure 13's
        # {command}).
        expander = Expander(variables)
        commands = []
        for var_name, var_value in (env_vars or {}).items():
            value = expander.expand(str(var_value))
            commands.append(f"export {var_name}={value}")
            variables[f"env_{var_name}"] = value
        for exe in app_cls.commands_for(wl_name):
            prefix = f"{variables['mpi_command']} " if exe.use_mpi else ""
            commands.append(
                expander.expand(f"{prefix}{exe.command} >> {{log_file}} 2>&1")
            )
        variables["command"] = "\n".join(commands)

        script = render_template(template, variables)
        script_path = run_dir / "execute_experiment"
        script_path.write_text(script)
        script_path.chmod(0o755)

        flat = {k: str(Expander(variables).expand(str(v))) for k, v in variables.items()}
        self.experiments.append(
            Experiment(
                name=exp_name,
                application=app_name,
                workload=wl_name,
                variables=flat,
                run_dir=run_dir,
                script_path=script_path,
                env_specs=env_specs,
                success_criteria=list(success_criteria or []),
            )
        )

    def rerooted(self, root: Path | str) -> "Workspace":
        """This set-up workspace, run into ``root``: copies of its
        experiments with their run directories, their logs and every
        variable naming them moved under ``root/experiments/``, and
        analysis writing ``root/results.latest.json``.  The rendered
        scripts and the software stay shared, so the variables naming a
        script keep its path.  Each copy owns its ``variables`` dict, so a
        run's modifiers never leak into the set-up experiments."""
        view = copy.copy(self)
        view.path = Path(root)
        view.experiments = []
        for exp in self.experiments:
            run_dir = view.experiments_dir / exp.run_dir.relative_to(
                self.experiments_dir)
            run_dir.mkdir(parents=True, exist_ok=True)
            old, variables = str(exp.run_dir), dict(exp.variables)
            for k in rerooted_keys(variables, old, str(exp.script_path)):
                variables[k] = variables[k].replace(old, str(run_dir))
            view.experiments.append(replace(
                exp, variables=variables, run_dir=run_dir))
        return view

    # ------------------------------------------------------------------
    # ramble on
    # ------------------------------------------------------------------
    def run(self, executor, modifiers: Sequence = ()) -> List[Dict[str, Any]]:
        """Execute every experiment through an executor (``ramble on``).

        ``executor`` is anything with
        ``execute(experiment) -> {returncode, stdout, seconds}`` — see
        :class:`repro.systems.executor.LocalExecutor` and friends.

        ``modifiers`` (§4.5) wrap each run: their env vars are recorded and
        their ``extra_output`` is appended to the experiment log so their
        figures of merit can be extracted at analysis time.
        """
        if not self.experiments:
            raise WorkspaceError("workspace has no experiments; run setup() first")
        self._active_modifiers = list(modifiers)
        outcomes = []
        for exp in self.experiments:
            result = executor.execute(exp)
            stdout = result.get("stdout", "")
            for modifier in modifiers:
                for key, value in modifier.env_vars(exp).items():
                    exp.variables[f"env_{key}"] = value
                extra = modifier.extra_output(exp, stdout)
                if extra:
                    stdout += ("" if stdout.endswith("\n") else "\n") + extra
            exp.log_file.write_text(stdout)
            outcomes.append({"experiment": exp.name, **result})
        return outcomes

    # ------------------------------------------------------------------
    # workspace analyze
    # ------------------------------------------------------------------
    @annotate("fom.analyze")
    def analyze(self) -> Dict[str, Any]:
        """Extract figures of merit and evaluate success criteria
        (``ramble workspace analyze``); writes results.latest.json."""
        from .analysis import analyze_experiment

        if not self.experiments:
            raise WorkspaceError("workspace has no experiments; run setup() first")
        modifiers = getattr(self, "_active_modifiers", [])
        extra_foms = [f for m in modifiers for f in m.figures_of_merit()]
        results = {
            "workspace": str(self.path),
            "experiments": [
                analyze_experiment(self.apps.get(e.application), e,
                                   extra_foms=extra_foms)
                for e in self.experiments
            ],
        }
        (self.path / "results.latest.json").write_text(
            json.dumps(results, sort_keys=True, separators=(",", ":"))
        )
        return results

    # ------------------------------------------------------------------
    # persistence of the experiment index
    # ------------------------------------------------------------------
    def _index_path(self) -> Path:
        return self.path / "experiments" / "index.json"

    def _save_experiment_index(self) -> None:
        self._index_path().write_text(
            json.dumps([e.to_dict() for e in self.experiments], indent=2)
        )

    def _load_experiment_index(self) -> None:
        if not self._index_path().exists():
            return
        self.experiments = [Experiment.from_dict(d) for d in
                            json.loads(self._index_path().read_text())]
