"""repro.perf — the incremental, content-addressed pipeline substrate.

Two primitives shared by every layer of the reproduction:

* :func:`fingerprint` — content hashing of pipeline inputs (specs,
  configs, recipes, experiments) in one JSON encoder pass; mapping keys
  are ``str`` and never start with ``__``;
* :class:`ContentStore` — a content-addressed cache with hit/miss
  statistics for one process life; a campaign journal persists the
  entries its own epochs ingested, each on that epoch's line, and puts
  them back on resume.

Built on them: memoized concretization (:mod:`repro.spack.concretizer`)
and epoch-level result reuse (:mod:`repro.core.continuous`).  Stage timings are Caliper regions on the
active session (:mod:`repro.analysis.caliper`); every ``fingerprint`` call
is one.
"""

from .content_store import ContentStore
from .fingerprint import fingerprint, fingerprint_file, package_signature

__all__ = [
    "ContentStore",
    "fingerprint",
    "fingerprint_file",
    "package_signature",
]
