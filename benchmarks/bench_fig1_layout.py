"""F1a — regenerate Figure 1a: the Benchpark directory structure.

Generates the four-subdirectory repository tree (benchpark/, configs/,
experiments/, repo/) for the paper's three systems and two benchmarks,
validates it against the Figure 1a layout, and renders the ASCII listing.
Benchmarks full tree generation.
"""

from repro.core.layout import generate_benchpark_tree, render_tree, validate_tree


def test_figure1a_tree(benchmark, artifact, tmp_path_factory):
    def generate():
        # a fixed basename, so the listing's first line does not follow
        # pytest's temp-directory numbering
        root = tmp_path_factory.mktemp("bp") / "benchpark"
        return generate_benchpark_tree(
            root,
            systems=["cts1", "ats2", "ats4"],
            benchmarks=["saxpy", "amg2023"],
        )

    root = benchmark(generate)
    problems = validate_tree(root, systems=["cts1", "ats2", "ats4"],
                             benchmarks=["saxpy", "amg2023"])
    assert problems == []

    listing = render_tree(root)
    artifact("fig1a_directory_tree", listing)

    # Figure 1a's named entries.
    for line in ("benchpark", "configs", "experiments", "repo",
                 "compilers.yaml", "packages.yaml", "spack.yaml",
                 "variables.yaml", "ramble.yaml", "execute_experiment.tpl",
                 "application.py", "package.py", "repo.yaml"):
        assert line in listing, f"Figure 1a entry {line!r} missing"

    # Figure 1a shows amg2023 with cuda/openmp/rocm variants (lines 21-30).
    for variant in ("cuda", "openmp", "rocm"):
        assert (root / "experiments" / "amg2023" / variant).is_dir()
