"""Mini-Ramble: the reproducible-run substrate (paper §3.2).

Application DSL (Figure 8), variable expansion, experiment matrices
(Figure 10), workspaces (Figure 5 lifecycle), template rendering
(Figure 13), FOM analysis (§4.5), and modifiers.  Import each name from
the module that defines it.
"""
