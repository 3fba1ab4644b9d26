"""T1 — regenerate Table 1: Components of Benchpark.

The paper's Table 1 maps six benchmarking components × three orthogonal
axes to concrete artifacts.  We regenerate the table from the live
component registry and verify every cell is actually implemented by a
module of this repository (introspective check), then benchmark the
verification sweep itself.
"""

from repro.core.components import render_table1, verify_cells


def test_table1_regeneration(benchmark, artifact):
    table = benchmark(render_table1)
    artifact("table1_components", table)

    # Paper fidelity: the exact artifact names from Table 1 appear in the
    # regenerated table, row by row.
    assert "package.py" in table
    assert "archspec (Sec. 3.1.3)" in table
    assert "ramble.yaml: spack" in table
    assert "application.py" in table
    assert "variables.yaml" in table
    assert "ramble.yaml: experiments" in table
    assert "ramble.yaml: success_criteria" in table
    assert ".gitlab-ci.yml" in table
    assert "Hubcast" in table
    assert "Benchpark executable" in table


def test_table1_all_cells_implemented(benchmark):
    cells = benchmark(verify_cells)
    assert len(cells) == 18
    assert all(cells.values()), {k: v for k, v in cells.items() if not v}
