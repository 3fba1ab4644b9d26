"""Differential test of the process-wide concretization memo.

A memoized ``concretize_together`` must answer exactly as a fresh solve of
the same inputs: the same concrete DAGs, or the same error type.  Each
Hypothesis draw walks one concretizer through a sequence of random edits to
every solver input (``packages`` preferences, externals and
``buildable: false``, the compiler registry, the default target,
``unify``, the roots, and re-registered builtin recipes), solving after
every edit with the memo kept warm from all earlier steps.  Each step is
then solved again from scratch, after ``clear_concretization_memo()``, by a
concretizer built anew from a snapshot of that step's inputs.
"""

import copy
import functools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.spack.compiler import Compiler, CompilerRegistry
from repro.spack.concretizer import Concretizer, clear_concretization_memo
from repro.spack.config import ConfigScope, Configuration
from repro.spack.parser import parse_spec
from repro.spack.repository import RepoPath, Repository, builtin_repo
from repro.spack.spec import CompilerSpec, SpecError
from repro.spack.variant import VariantDef
from repro.spack.version import Version

#: root lists; under ``unify`` the first three solve differently (a shared
#: hypre+openmp, a conflict, a shared caliper~adiak) than root by root
ROOT_SETS = [
    ("hypre+openmp", "amg2023"), ("stream", "stream~openmp"),
    ("caliper~adiak", "amg2023+caliper"), ("saxpy",),
    ("saxpy~openmp", "osu-micro-benchmarks"), ("amg2023+caliper",),
    ("quicksilver", "saxpy ^openmpi"), ("amg2023 %gcc", "hypre@2.26.0"),
]
COMPILERS = ["gcc@12.1.1", "gcc@10.3.1", "intel@2021.6.0", "clang@14.0.6"]
TARGETS = ["x86_64", "broadwell", "power9le"]


def _edited(name, edit):
    """A re-registrable copy of builtin recipe ``name`` with one edit."""
    base = builtin_repo().get_class(name)
    cls = type(base.__name__, (base,), {})
    if edit == "new-version":
        cls.versions[Version("3.28.0")] = {
            "sha256": None, "preferred": False, "deprecated": False}
    elif edit == "flip-openmp":
        cls.variants["openmp"] = VariantDef(
            "openmp", default=not cls.variants["openmp"].default)
    elif edit == "new-dependency":
        cls.dependencies["python"] = [{
            "spec": parse_spec("python"), "when": parse_spec("+openmp"),
            "type": ("build",)}]
    return cls


#: (package, edit) -> edited class; one class object per edit, so that
#: registering it again restores an earlier repository state
RECIPE_EDITS = {
    ("cmake", "new-version"): _edited("cmake", "new-version"),
    ("saxpy", "flip-openmp"): _edited("saxpy", "flip-openmp"),
    ("hypre", "new-dependency"): _edited("hypre", "new-dependency"),
}

PACKAGE_EDITS = st.one_of(
    st.tuples(st.just("providers"), st.sampled_from(
        ["mvapich2", "openmpi", "cray-mpich", "spectrum-mpi"])),
    st.tuples(st.just("version"), st.sampled_from([
        ("cmake", "3.20.0"), ("cmake", "3.26"), ("hypre", "2.24.0"),
        ("mvapich2", "2.3.6"), ("adiak", "0.2.2")])),
    st.tuples(st.just("variants"), st.sampled_from([
        ("saxpy", "~openmp"), ("hypre", "+openmp"), ("caliper", "~mpi"),
        ("openblas", "threads=openmp"), ("amg2023", "+caliper")])),
    st.tuples(st.just("externals"), st.sampled_from([
        ("mvapich2", "mvapich2@2.3.7"), ("openmpi", "openmpi@4.1.5"),
        ("intel-oneapi-mkl", "intel-oneapi-mkl@2022.1.0"),
        ("cmake", "cmake@3.26.3")])),
    st.tuples(st.just("not-buildable"), st.sampled_from(
        ["mvapich2", "openblas", "cmake", "adiak"])),
    st.tuples(st.just("compiler"), st.sampled_from(
        ["gcc", "intel", "gcc@10.3.1", "clang@14.0.6"])),
    st.tuples(st.just("drop"), st.sampled_from(
        ["mpi", "all", "cmake", "mvapich2", "saxpy", "hypre"])),
)

EDITS = st.one_of(
    st.tuples(st.just("packages"), PACKAGE_EDITS),
    st.tuples(st.just("compilers"), st.lists(
        st.sampled_from(COMPILERS), unique=True, max_size=3)),
    st.tuples(st.just("target"), st.sampled_from(TARGETS)),
    st.tuples(st.just("unify"), st.booleans()),
    st.tuples(st.just("roots"), st.sampled_from(ROOT_SETS)),
    st.tuples(st.just("recipe"), st.sampled_from(sorted(RECIPE_EDITS))),
    st.tuples(st.just("revert-recipe"), st.sampled_from(
        sorted({name for name, _ in RECIPE_EDITS}))),
    st.just(("none", None)),
)


def _edit_packages(packages, edit):
    kind, arg = edit
    if kind == "providers":
        packages["mpi"] = {"providers": {"mpi": [arg]}}
    elif kind == "version":
        packages.setdefault(arg[0], {})["version"] = [arg[1]]
    elif kind == "variants":
        packages.setdefault(arg[0], {})["variants"] = arg[1]
    elif kind == "externals":
        name = arg[1].split("@")[0]
        packages.setdefault(arg[0], {})["externals"] = [
            {"spec": arg[1], "prefix": f"/opt/{name}"}]
    elif kind == "not-buildable":
        packages.setdefault(arg, {})["buildable"] = False
    elif kind == "compiler":
        packages.setdefault("all", {})["compiler"] = [arg]
    else:
        packages.pop(arg, None)


@functools.lru_cache(maxsize=None)
def _repository(edits):
    """A repository of the builtin recipes with ``edits`` (frozen
    ``{package: edit}`` items) applied, built once per set of edits:
    hashing recipes is slow, and only the memo has to be cold for a fresh
    solve."""
    builtin, edited = builtin_repo(), dict(edits)
    repo = Repository(builtin.namespace)
    for name in builtin.all_package_names():
        repo.register(RECIPE_EDITS.get((name, edited.get(name)),
                                        builtin.get_class(name)))
    return repo


def _registry(compilers):
    return CompilerRegistry(
        Compiler(CompilerSpec.parse(c)) for c in compilers)


def _outcome(concretizer, roots, unify):
    try:
        solved = concretizer.concretize_together(list(roots), unify=unify)
    except SpecError as err:
        return type(err)
    return [spec.to_node_dict(deps=True) for spec in solved]


class TestConcretizationMemo:
    @settings(max_examples=25, deadline=None)
    @given(st.lists(EDITS, min_size=1, max_size=8))
    def test_memo_answers_as_a_fresh_solve(self, edits):
        builtin = builtin_repo()
        repo = Repository(builtin.namespace)
        for name in builtin.all_package_names():
            repo.register(builtin.get_class(name))
        recipes = {}
        packages = {}
        scope = ConfigScope("site", {"packages": packages})
        concretizer = Concretizer(config=Configuration(scope),
                                  repo_path=RepoPath(repo),
                                  compilers=_registry(COMPILERS[:1]))
        state = {"compilers": COMPILERS[:1], "target": "x86_64",
                 "unify": True, "roots": ROOT_SETS[0]}

        clear_concretization_memo()
        steps = []
        for kind, arg in edits:
            # edit the inputs of the one concretizer the memo serves
            if kind == "packages":
                _edit_packages(packages, arg)
            elif kind == "compilers":
                state["compilers"] = arg
                concretizer.compilers = _registry(arg)
            elif kind == "target":
                state["target"] = concretizer.default_target = arg
            elif kind in ("unify", "roots"):
                state[kind] = arg
            elif kind == "recipe":
                recipes[arg[0]] = arg[1]
                repo.register(RECIPE_EDITS[arg])
            elif kind == "revert-recipe":
                recipes.pop(arg, None)
                repo.register(builtin.get_class(arg))
            memoized = _outcome(concretizer, state["roots"], state["unify"])
            steps.append((copy.deepcopy(packages), dict(state),
                          dict(recipes), memoized))

        for packages_then, state_then, recipes_then, memoized in steps:
            recipes_then = frozenset(recipes_then.items())
            fresh = Concretizer(
                config=Configuration(ConfigScope(
                    "site", {"packages": packages_then})),
                repo_path=RepoPath(_repository(recipes_then)),
                compilers=_registry(state_then["compilers"]),
                default_target=state_then["target"])
            clear_concretization_memo()
            assert _outcome(fresh, state_then["roots"],
                            state_then["unify"]) == memoized
