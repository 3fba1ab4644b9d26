"""F10 — Figure 10: the ramble.yaml experiment matrix.

The paper's example defines list variables processes_per_node=[8,4],
n_nodes=[1,2], n_threads=[2,4], n=[512,1024] with a ``size_threads`` matrix
crossing (n × n_threads).  Matrix variables cross (4 combos), the remaining
list variables zip (2 combos) → exactly 8 experiments, with n_ranks derived
as processes_per_node · n_nodes.  Benchmarks matrix expansion at Figure 10
scale and at campaign scale (hundreds of experiments).
"""

from repro.ramble.matrices import expand_matrix
from repro.ramble.workspace import Workspace

FIGURE10_VARIABLES = {
    "processes_per_node": ["8", "4"],
    "n_nodes": ["1", "2"],
    "n_threads": ["2", "4"],
    "n": ["512", "1024"],
    "n_ranks": "{processes_per_node}*{n_nodes}",
    "batch_time": "120",
}
FIGURE10_MATRICES = [{"size_threads": ["n", "n_threads"]}]


def test_figure10_expansion(benchmark, artifact):
    vectors = benchmark(expand_matrix, FIGURE10_VARIABLES, FIGURE10_MATRICES)
    assert len(vectors) == 8

    crossed = {(v["n"], v["n_threads"]) for v in vectors}
    assert crossed == {("512", "2"), ("512", "4"),
                       ("1024", "2"), ("1024", "4")}
    zipped = {(v["processes_per_node"], v["n_nodes"]) for v in vectors}
    assert zipped == {("8", "1"), ("4", "2")}

    lines = ["Figure 10 experiment matrix "
             "(saxpy_{n}_{n_nodes}_{n_ranks}_{n_threads}):", ""]
    for v in vectors:
        ranks = int(v["processes_per_node"]) * int(v["n_nodes"])
        lines.append(f"  saxpy_{v['n']}_{v['n_nodes']}_{ranks}_{v['n_threads']}")
    artifact("fig10_experiment_matrix", "\n".join(lines))


def test_figure10_through_workspace(tmp_path):
    """The same matrix through the full workspace: 8 rendered scripts with
    derived rank counts."""
    config = {
        "ramble": {
            "variables": {"mpi_command": "srun -N {n_nodes} -n {n_ranks}",
                          "n_ranks": "{processes_per_node}*{n_nodes}"},
            "applications": {"saxpy": {"workloads": {"problem": {
                "experiments": {
                    "saxpy_{n}_{n_nodes}_{n_ranks}_{n_threads}": {
                        "variables": {k: v for k, v in FIGURE10_VARIABLES.items()
                                      if k not in ("n_ranks", "batch_time")},
                        "matrices": FIGURE10_MATRICES,
                    }
                }}}}},
        }
    }
    ws = Workspace.create(tmp_path / "ws", config=config)
    experiments = ws.setup()
    assert len(experiments) == 8
    names = {e.name for e in experiments}
    # paper's naming scheme with the derived n_ranks values
    assert "saxpy_512_1_8_2" in names
    assert "saxpy_1024_2_8_4" in names
    for e in experiments:
        assert f"-n {e.variables['n_ranks']} " in e.script_path.read_text()


def test_campaign_scale_expansion(benchmark):
    """Matrix expansion must stay fast at continuous-benchmarking scale."""
    variables = {
        "n": [str(2 ** k) for k in range(9, 17)],       # 8 sizes
        "n_threads": ["1", "2", "4", "8"],              # 4 thread counts
        "n_nodes": [str(2 ** k) for k in range(6)],     # 6 node counts
        "trial": ["1", "2", "3"],                       # 3 repeats
    }
    matrices = [["n", "n_threads", "n_nodes", "trial"]]
    vectors = benchmark(expand_matrix, variables, matrices)
    assert len(vectors) == 8 * 4 * 6 * 3
