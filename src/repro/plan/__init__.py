"""The deployment-plan artifact layer.

Every framework in the repo bottoms out in a
:class:`~repro.plan.artifact.DeploymentPlan`.  This package makes that
plan a first-class artifact:

* :mod:`repro.plan.artifact` — the immutable plan with cached metrics
  and constraint validation, and the shortest-path routing of its
  communicating pairs;
* :mod:`repro.plan.serialize` — canonical, versioned JSON round trips
  (``repro plan export`` / the runner's result cache);
* :mod:`repro.plan.diff` — structural plan comparison
  (``repro plan diff`` / migration disruption reports);
* :mod:`repro.plan.splice` — rebase/splice for warm replanning: carry
  surviving placements onto the current network and apply a delta
  solution with stage fitting and an ``A_max`` cap.
"""

from repro.plan.artifact import (
    DeploymentError,
    DeploymentPlan,
    MatPlacement,
)
from repro.plan.diff import PlacementChange, PlanDiff, diff_plans
from repro.plan.splice import rebase_plan, splice_plan
from repro.plan.serialize import (
    SCHEMA,
    SCHEMA_VERSION,
    PlanSchemaError,
    canonical_dumps,
    plan_fingerprint,
    plan_from_dict,
    plan_to_dict,
    read_plan,
    write_plan,
)

__all__ = [
    "SCHEMA",
    "SCHEMA_VERSION",
    "DeploymentError",
    "DeploymentPlan",
    "MatPlacement",
    "PlacementChange",
    "PlanDiff",
    "PlanSchemaError",
    "canonical_dumps",
    "diff_plans",
    "plan_fingerprint",
    "plan_from_dict",
    "plan_to_dict",
    "read_plan",
    "rebase_plan",
    "splice_plan",
    "write_plan",
]
