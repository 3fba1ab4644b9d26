"""Simulated HPC systems substrate: descriptors for the paper's systems
(cts1/ats2/ats4 + cloud), the batch scheduler, executors, and analytic
MPI + kernel performance models.

Import each name from the module that defines it (for example
``from repro.systems.registry import get_system``).
"""
