"""Mini-archspec: microarchitecture detection, labeling and reasoning
(paper §3.1.3, reference [7]).

Import each name from the module that defines it: the target database
(:mod:`~repro.archspec.database`), host detection
(:mod:`~repro.archspec.detect`) and :class:`Microarchitecture`
(:mod:`~repro.archspec.microarch`).
"""
