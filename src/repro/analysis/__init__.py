"""Analysis stack (paper §5): Caliper profiles, Adiak metadata, Thicket
ensembles, Extra-P scaling models, and the results dashboard.

Import each name from the module that defines it.  The timing channel,
:mod:`repro.analysis.caliper`, uses only the standard library, so layers
that annotate regions load no NumPy.
"""
