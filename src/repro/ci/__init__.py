"""CI automation substrate (paper §3.3, Figure 6): in-memory GitHub/GitLab
services, Hubcast secure mirroring, the Jacamar setuid executor, pipeline
parsing/execution, the S3-like object store, and the metrics database.

Import each name from the module that defines it (for example
``from repro.ci.metricsdb import MetricsDatabase``), so a campaign that only
stores metrics never loads the CI services.
"""
