"""Names of the solver profiles.

A leaf module, free of numpy and scipy, so the CLI, the op bodies and
the heuristic path can name a profile without loading the solver
stack; :mod:`repro.milp.branch_bound` re-exports these names and
describes what each profile does.
"""

PROFILE_FAST = "fast"
PROFILE_CLASSIC = "classic"
#: Search profiles accepted by
#: :class:`~repro.milp.branch_bound.BranchBoundSolver`.
SOLVER_PROFILES = (PROFILE_FAST, PROFILE_CLASSIC)
DEFAULT_PROFILE = PROFILE_FAST
