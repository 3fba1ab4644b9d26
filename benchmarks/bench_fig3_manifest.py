"""F3 — Figure 3: the spack.yaml environment manifest.

    spack:
      specs: [amg2023+caliper]
      concretizer:
        unify: true
      view: true

Round-trips the paper's manifest through the Environment implementation and
checks ``unify: true`` semantics (shared dependency solutions) versus
``unify: false``.  Benchmarks unified concretization of a two-root env.
"""

import yaml

from repro.spack.concretizer import Concretizer
from repro.spack.environment import Environment


FIGURE3_MANIFEST = """\
spack:
  specs: [amg2023+caliper]
  concretizer:
    unify: true
  view: true
"""


def test_figure3_manifest_roundtrip(artifact, tmp_path):
    env_dir = tmp_path / "env"
    env_dir.mkdir()
    (env_dir / "spack.yaml").write_text(FIGURE3_MANIFEST)
    env = Environment(env_dir)

    assert [s.format() for s in env.user_specs] == ["amg2023+caliper"]
    assert env.unify is True

    roots = env.concretize(Concretizer())
    assert roots[0].variants["caliper"] is True
    artifact("fig3_manifest", FIGURE3_MANIFEST + "\nconcretized: "
             + roots[0].format(deps=True))


def test_unify_semantics(benchmark, tmp_path_factory):
    concretizer = Concretizer()

    def unified():
        env = Environment.create(
            tmp_path_factory.mktemp("env"),
            specs=["saxpy", "amg2023+caliper"], unify=True,
        )
        return env.concretize(concretizer)

    roots = benchmark(unified)
    # unify: true → both roots share one cmake and one mpi solution
    assert roots[0]["cmake"].dag_hash() == roots[1]["cmake"].dag_hash()
    assert roots[0]["mvapich2"].dag_hash() == roots[1]["mvapich2"].dag_hash()
