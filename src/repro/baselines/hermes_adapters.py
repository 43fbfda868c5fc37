"""Hermes under the common framework interface.

``HermesHeuristic`` is the paper's contribution (Algorithm 2);
``HermesOptimal`` is the Gurobi-style exact configuration ("Optimal" in
the figures): P#1 warm-started from the greedy plan
(:meth:`~repro.core.formulation.HermesMilp.deploy_seeded`), solved by
HiGHS's branch-and-cut.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence, Tuple

from repro.baselines.base import DeploymentFramework
from repro.core.formulation import HermesMilp
from repro.core.heuristic import GreedyHeuristic
from repro.dataplane.program import Program
from repro.network.paths import PathEnumerator
from repro.network.topology import Network
from repro.plan.artifact import DeploymentPlan
from repro.tdg.graph import Tdg


class HermesHeuristic(DeploymentFramework):
    """Hermes with the greedy heuristic (the paper's default)."""

    name = "Hermes"
    merges = True

    def __init__(
        self,
        epsilon1: float = math.inf,
        epsilon2: Optional[int] = None,
    ) -> None:
        self.epsilon1 = epsilon1
        self.epsilon2 = epsilon2

    def _place(
        self,
        tdg: Tdg,
        programs: Sequence[Program],
        network: Network,
        paths: PathEnumerator,
    ) -> Tuple[DeploymentPlan, bool]:
        heuristic = GreedyHeuristic(
            epsilon1=self.epsilon1, epsilon2=self.epsilon2
        )
        return heuristic.deploy(tdg, network, paths), False


class HermesOptimal(DeploymentFramework):
    """Hermes' objective solved exactly ("Optimal" in the figures)."""

    name = "Optimal"
    merges = True

    def __init__(
        self,
        time_limit_s: float = 60.0,
        max_candidates: Optional[int] = 8,
        epsilon1: float = math.inf,
        epsilon2: Optional[int] = None,
    ) -> None:
        self.time_limit_s = time_limit_s
        self.max_candidates = max_candidates
        self.epsilon1 = epsilon1
        self.epsilon2 = epsilon2

    def _place(
        self,
        tdg: Tdg,
        programs: Sequence[Program],
        network: Network,
        paths: PathEnumerator,
    ) -> Tuple[DeploymentPlan, bool]:
        formulation = HermesMilp(
            epsilon1=self.epsilon1,
            epsilon2=self.epsilon2,
            max_candidates=self.max_candidates,
            time_limit_s=self.time_limit_s,
        )
        return formulation.deploy_seeded(tdg, network, paths)
