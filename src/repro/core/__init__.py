"""Hermes core: the paper's contribution.

The pipeline mirrors Figure 3:

1. :class:`ProgramAnalyzer` turns input programs into one merged,
   metadata-annotated TDG (Algorithm 1);
2. the optimization framework places every MAT on a pipeline stage of a
   programmable switch, either exactly (:class:`HermesMilp`, problem
   P#1 solved by HiGHS) or via the greedy heuristic
   (:class:`GreedyHeuristic`, Algorithm 2);
3. the result is a :class:`DeploymentPlan` whose inter-switch
   coordination cost is measured by :class:`CoordinationAnalysis`, and
   which the :class:`Backend` lowers to per-switch configurations.

:class:`Hermes` is the facade tying the steps together.

The MILP formulations are imported on first access (:mod:`repro.lazy`),
so a heuristic deploy never loads the solver stack.
"""

from repro.lazy import lazy_exports
from repro.plan.artifact import (
    DeploymentError,
    DeploymentPlan,
    MatPlacement,
)
from repro.core.stages import StageAssignmentError, assign_stages
from repro.core.analyzer import ProgramAnalyzer
from repro.core.replication import replicate_cheap_hubs, replication_cost
from repro.core.heuristic import GreedyHeuristic, split_tdg
from repro.core.coordination import CoordinationAnalysis, MetadataChannel
from repro.core.backend import Backend, SwitchConfig
from repro.core.verification import DataflowError, DataflowReport, verify_dataflow
from repro.core.explain import OverheadReport, explain_overhead
from repro.core.refine import refine_plan
from repro.core.hermes import Hermes, HermesResult

__getattr__ = lazy_exports(
    globals(),
    {
        "repro.core.delta": ("DeltaFormulation", "select_delta_candidates"),
        "repro.core.formulation": ("HermesMilp", "MilpFormulation"),
    },
)

__all__ = [
    "Backend",
    "CoordinationAnalysis",
    "DataflowError",
    "DataflowReport",
    "DeltaFormulation",
    "DeploymentError",
    "DeploymentPlan",
    "GreedyHeuristic",
    "Hermes",
    "HermesMilp",
    "HermesResult",
    "MatPlacement",
    "MetadataChannel",
    "MilpFormulation",
    "OverheadReport",
    "ProgramAnalyzer",
    "StageAssignmentError",
    "SwitchConfig",
    "assign_stages",
    "explain_overhead",
    "refine_plan",
    "replicate_cheap_hubs",
    "replication_cost",
    "select_delta_candidates",
    "split_tdg",
    "verify_dataflow",
]
