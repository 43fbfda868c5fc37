"""Comparison frameworks (§VI-A).

Every framework implements the common
:class:`~repro.baselines.base.DeploymentFramework` interface so the
experiment harness can sweep them uniformly:

ILP-based (first class, solved by the same branch & bound engine):

* ``MinStage`` — single-switch stage-minimizing deployment, extended to
  place programs on a switch chain one by one;
* ``Sonata`` — like MinStage but schedules the most resource-hungry
  programs first (query-cost ordering);
* ``Speed`` — network-wide deployment with TDG merging, optimizing
  packet-processing performance (end-to-end latency);
* ``Mtp`` — SPEED plus a per-switch MAT cap to avoid control-plane
  overload;
* ``Flightplan`` — program disaggregation across devices, minimizing
  the number of devices used (no cross-program merging);
* ``P4All`` — modular per-program deployment optimizing latency (no
  cross-program merging);
* ``HermesOptimal`` — the paper's "Optimal": P#1 solved exactly.

Heuristic (second class):

* ``Ffl`` / ``Ffls`` — first fit by level (and size) over the chain of
  programmable switches;
* ``HermesHeuristic`` — Algorithm 2.

None of the baselines optimizes the per-packet byte overhead — that is
the paper's point — so all of them are expected to produce larger
``A_max`` than Hermes.

The frameworks and :data:`~repro.baselines.frameworks.ALL_FRAMEWORKS`
are imported on first access (:mod:`repro.lazy`): the heuristic deploy
path imports :mod:`repro.baselines.base`, which must not load the ILP
frameworks' solver stack.
"""

from repro.lazy import lazy_exports
from repro.baselines.base import (
    DeploymentFramework,
    FrameworkResult,
    build_switch_chain,
    schedule_on_chain,
)

__getattr__ = lazy_exports(
    globals(),
    {
        "repro.baselines.frameworks": ("ALL_FRAMEWORKS",),
        "repro.baselines.min_stage": ("MinStage",),
        "repro.baselines.sonata": ("Sonata",),
        "repro.baselines.ffl": ("Ffl",),
        "repro.baselines.ffls": ("Ffls",),
        "repro.baselines.speed": ("Speed",),
        "repro.baselines.mtp": ("Mtp",),
        "repro.baselines.flightplan": ("Flightplan",),
        "repro.baselines.p4all": ("P4All",),
        "repro.baselines.hermes_adapters": (
            "HermesHeuristic",
            "HermesOptimal",
        ),
    },
)

__all__ = [
    "ALL_FRAMEWORKS",
    "DeploymentFramework",
    "Ffl",
    "Ffls",
    "Flightplan",
    "FrameworkResult",
    "HermesHeuristic",
    "HermesOptimal",
    "MinStage",
    "Mtp",
    "P4All",
    "Sonata",
    "Speed",
    "build_switch_chain",
    "schedule_on_chain",
]
