"""Mini-Spack: the reproducible-build substrate (paper §3.1).

The four primary components the paper enumerates each have a module: the
Spec syntax (:mod:`~repro.spack.spec`, :mod:`~repro.spack.parser`), the
concretizer (:mod:`~repro.spack.concretizer`), package files
(:mod:`~repro.spack.package`), and the installation engine
(:mod:`~repro.spack.installer`) — plus environments, configuration, and the
binary cache.  Import each name from the module that defines it.
"""
