"""F1b/F1c — Figure 1b/1c: the nine-step Benchpark workflow, end to end.

Runs ``benchpark $experiment $system $workspace`` for saxpy/openmp on cts1
and drives all nine steps (clone → workspace config → ramble setup → Spack
builds → script rendering → execution → analysis), asserting each step
fires in the paper's order.  Benchmarks the complete workflow.
"""

from repro.core.driver import WORKFLOW_STEPS, benchpark_setup


def test_figure1c_nine_step_workflow(benchmark, artifact, tmp_path_factory):
    def full_workflow():
        ws = tmp_path_factory.mktemp("ws")
        session = benchpark_setup("saxpy/openmp", "cts1", ws)
        results = session.run_all()
        return session, results

    session, results = benchmark.pedantic(full_workflow, rounds=3, iterations=1)

    # Steps 2..9 executed in the paper's order (step 1, the git clone, is
    # the user's action of obtaining this repository).
    assert session.steps == WORKFLOW_STEPS[1:]

    # The workflow produced the Figure 10 experiment matrix and every
    # experiment extracted its FOMs successfully.
    assert len(results["experiments"]) == 8
    assert all(e["status"] == "SUCCESS" for e in results["experiments"])

    lines = ["Figure 1c workflow trace (saxpy/openmp on cts1):", ""]
    lines += [f"  {step}" for step in [WORKFLOW_STEPS[0]] + session.steps]
    lines.append("")
    lines.append(f"experiments: {[e['name'] for e in results['experiments']]}")
    artifact("fig1c_workflow_trace", "\n".join(lines))


def test_workflow_is_functionally_reproducible(tmp_path_factory):
    """Same inputs → same experiment set and same concretized software —
    the property the whole paper is arguing for."""
    def run():
        ws = tmp_path_factory.mktemp("ws")
        session = benchpark_setup("saxpy/openmp", "cts1", ws)
        session.setup()
        names = sorted(e.name for e in session.workspace.experiments)
        hashes = sorted(
            r.spec.dag_hash() for r in session.runtime.store.all_records()
        )
        return names, hashes

    first, second = run(), run()
    assert first[0] == second[0], "experiment sets differ between runs"
    assert first[1] == second[1], "concretized software differs between runs"
