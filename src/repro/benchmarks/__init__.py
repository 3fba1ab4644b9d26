"""Runnable benchmark implementations (paper §4): saxpy, AMG2023 (a real
smoothed-aggregation AMG solver), STREAM, and OSU-style collectives —
all executing real NumPy/SciPy numerics, with SimMPI supplying collective
semantics and modeled communication time.

Each kernel is its own module, imported only when it runs: a STREAM epoch
never loads SciPy, which only :mod:`repro.benchmarks.amg` needs.
"""
