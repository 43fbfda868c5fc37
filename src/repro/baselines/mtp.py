"""MTP (Chen et al., INFOCOM'21).

MTP extends SPEED with control-plane-overload avoidance: a single
switch hosting too many measurement tasks floods its local agent with
rule updates and reports.  We model the guard as a per-switch cap on
hosted MATs, sized so the merged TDG spreads over at least three
switches, on top of SPEED's latency objective.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence, Tuple

from repro.baselines.speed import Speed
from repro.core.formulation import MilpFormulation
from repro.dataplane.program import Program
from repro.network.paths import PathEnumerator
from repro.network.topology import Network
from repro.plan.artifact import DeploymentPlan
from repro.tdg.graph import Tdg


class Mtp(Speed):
    """The MTP baseline: SPEED plus a per-switch MAT-count cap."""

    name = "MTP"

    def __init__(
        self,
        time_limit_s: float = 30.0,
        max_candidates: Optional[int] = 8,
        epsilon2: Optional[int] = None,
        spread_factor: int = 3,
    ) -> None:
        super().__init__(time_limit_s, max_candidates, epsilon2)
        if spread_factor < 1:
            raise ValueError("spread_factor must be >= 1")
        self.spread_factor = spread_factor
        self._mats_cap: Optional[int] = None

    def _formulation(self) -> MilpFormulation:
        return MilpFormulation(
            objective=self.objective,
            epsilon1=math.inf,
            epsilon2=self.epsilon2,
            max_candidates=self.max_candidates,
            time_limit_s=self.time_limit_s,
            max_mats_per_switch=self._mats_cap,
        )

    def _place(
        self,
        tdg: Tdg,
        programs: Sequence[Program],
        network: Network,
        paths: PathEnumerator,
    ) -> Tuple[DeploymentPlan, bool]:
        self._mats_cap = max(1, math.ceil(len(tdg) / self.spread_factor))
        return super()._place(tdg, programs, network, paths)
