"""repro.perf — the incremental, content-addressed pipeline substrate.

Two primitives shared by every layer of the reproduction:

* :func:`fingerprint` — canonical content hashing of pipeline inputs
  (specs, configs, recipes, experiment definitions);
* :class:`ContentStore` — a content-addressed cache with hit/miss
  statistics that a campaign journal persists and restores.

Built on them: memoized concretization (:mod:`repro.spack.concretizer`),
critical-path-charged DAG installs (:mod:`repro.spack.installer`), cached
CI jobs (:mod:`repro.ci.pipeline`), and epoch-level result reuse
(:mod:`repro.core.continuous`).  Stage timings are Caliper regions
(:mod:`repro.analysis.caliper`).
"""

from .content_store import ContentStore
from .fingerprint import canonicalize, fingerprint, fingerprint_file, package_signature

__all__ = [
    "ContentStore",
    "canonicalize",
    "fingerprint",
    "fingerprint_file",
    "package_signature",
]
