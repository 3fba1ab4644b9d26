"""Benchpark — the paper's primary contribution: the component model
(Table 1), repository layout (Figure 1a), the driver and nine-step workflow
(Figure 1c), the per-system Spack runtime, and the CLI.

Import each name from the module that defines it (for example
``from repro.core.continuous import ContinuousBenchmarking``).
"""
