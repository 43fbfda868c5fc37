"""The Hermes facade: programs + network in, deployment out.

Usage:

    from repro.core import Hermes
    result = Hermes().deploy(programs, network)
    print(result.plan.max_metadata_bytes(), result.solve_time_s)

``mode="heuristic"`` (default) runs Algorithm 2; ``mode="optimal"``
solves P#1 exactly (the paper's Gurobi-based "Optimal" configuration),
warm-started from the greedy plan as
:meth:`~repro.core.formulation.HermesMilp.deploy_seeded` describes.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from repro.core.analyzer import ProgramAnalyzer
from repro.core.heuristic import GreedyHeuristic
from repro.dataplane.program import Program
from repro.network.paths import PathEnumerator
from repro.network.topology import Network
from repro.plan.artifact import DeploymentPlan
from repro.tdg.graph import Tdg

MODE_HEURISTIC = "heuristic"
MODE_OPTIMAL = "optimal"


@dataclass
class HermesResult:
    """A deployment together with its provenance and timing.

    Attributes:
        plan: The validated deployment plan.
        tdg: The merged TDG that was deployed.
        mode: Which solver produced the plan.
        analyze_time_s: Program-analysis wall time (Algorithm 1).
        solve_time_s: Placement wall time (Algorithm 2 or P#1 solve).
        timed_out: Optimal mode only: the P#1 solve stopped on its
            limit or failed, so ``plan`` is the better of its
            incumbent and the greedy plan, not a proven optimum.
    """

    plan: DeploymentPlan
    tdg: Tdg
    mode: str
    analyze_time_s: float
    solve_time_s: float
    timed_out: bool = False

    @property
    def total_time_s(self) -> float:
        return self.analyze_time_s + self.solve_time_s

    @property
    def overhead_bytes(self) -> int:
        """The headline metric: per-packet byte overhead ``A_max``."""
        return self.plan.max_metadata_bytes()


class Hermes:
    """The end-to-end framework (Figure 3).

    Args:
        epsilon1: ``t_e2e`` bound in microseconds (Eq. 4); the
            evaluation uses loose bounds, the default is unbounded.
        epsilon2: Occupied-switch bound (Eq. 5).
        mode: ``"heuristic"`` (Algorithm 2) or ``"optimal"`` (P#1,
            solved by HiGHS).
        merge: Run SPEED-style TDG merging in the analyzer.
        time_limit_s: Solver budget for optimal mode.
        max_candidates: Candidate-switch cap for optimal mode.
        replicate_hubs: Hub-replication policy for heuristic mode
            (False | True | "auto"; see
            :mod:`repro.core.replication`).
    """

    def __init__(
        self,
        epsilon1: float = math.inf,
        epsilon2: Optional[int] = None,
        mode: str = MODE_HEURISTIC,
        merge: bool = True,
        time_limit_s: float = 60.0,
        max_candidates: Optional[int] = 8,
        replicate_hubs=False,
    ) -> None:
        if mode not in (MODE_HEURISTIC, MODE_OPTIMAL):
            raise ValueError(f"unknown mode {mode!r}")
        self.epsilon1 = epsilon1
        self.epsilon2 = epsilon2
        self.mode = mode
        self.analyzer = ProgramAnalyzer(merge=merge)
        self.time_limit_s = time_limit_s
        self.max_candidates = max_candidates
        self.replicate_hubs = replicate_hubs

    def analyze(self, programs: Sequence[Program]) -> Tdg:
        """Step 1 only: run the program analyzer."""
        return self.analyzer.analyze(programs)

    def deploy(
        self,
        programs: Sequence[Program],
        network: Network,
        paths: Optional[PathEnumerator] = None,
    ) -> HermesResult:
        """Run the full three-step workflow of Figure 3."""
        start = time.perf_counter()
        tdg = self.analyzer.analyze(programs)
        analyze_time = time.perf_counter() - start
        plan, solve_time, timed_out = self._place(tdg, network, paths)
        return HermesResult(
            plan=plan,
            tdg=tdg,
            mode=self.mode,
            analyze_time_s=analyze_time,
            solve_time_s=solve_time,
            timed_out=timed_out,
        )

    def deploy_tdg(
        self,
        tdg: Tdg,
        network: Network,
        paths: Optional[PathEnumerator] = None,
    ):
        """Steps 2-3 only: place an already-analyzed TDG.

        Returns ``(plan, solve_time_s)``; :meth:`deploy` also reports
        ``timed_out``.
        """
        plan, solve_time, _timed_out = self._place(tdg, network, paths)
        return plan, solve_time

    def _place(
        self,
        tdg: Tdg,
        network: Network,
        paths: Optional[PathEnumerator],
    ) -> Tuple[DeploymentPlan, float, bool]:
        """``(plan, solve_time_s, timed_out)`` for an analyzed TDG."""
        paths = paths or PathEnumerator(network)
        start = time.perf_counter()
        timed_out = False
        if self.mode == MODE_HEURISTIC:
            solver = GreedyHeuristic(
                epsilon1=self.epsilon1,
                epsilon2=self.epsilon2,
                replicate_hubs=self.replicate_hubs,
            )
            plan = solver.deploy(tdg, network, paths)
        else:
            from repro.core.formulation import HermesMilp

            formulation = HermesMilp(
                epsilon1=self.epsilon1,
                epsilon2=self.epsilon2,
                time_limit_s=self.time_limit_s,
                max_candidates=self.max_candidates,
            )
            plan, timed_out = formulation.deploy_seeded(
                tdg, network, paths
            )
        return plan, time.perf_counter() - start, timed_out
