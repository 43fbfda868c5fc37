"""Experiment harness: one module per paper figure/table.

| Module              | Paper artifact                                  |
|---------------------|--------------------------------------------------|
| ``fig2_motivation`` | Fig. 2 — FCT/goodput vs per-packet overhead      |
| ``exp1_testbed``    | Fig. 5 — testbed: overhead/time/FCT/goodput      |
| ``exp2_overhead``   | Fig. 6 — overhead across 10 WAN topologies       |
| ``exp3_exectime``   | Fig. 7 — execution time across 10 WAN topologies |
| ``exp4_endtoend``   | Fig. 8 — end-to-end impact at scale              |
| ``exp5_scalability``| Fig. 9 — scaling the number of programs          |
| ``exp6_resources``  | §VI Exp#6 — switch resource consumption          |
| ``exp7_churn``      | Exp#7 — disruption under churn (beyond paper)    |

Every module exposes a ``run(...)`` returning structured rows and a
``main()`` that prints the paper-style table; all are parameterized so
the benchmark suite can run them at reduced budgets.  Every ``run``
also accepts a ``runner=`` from :mod:`repro.experiments.runner` to fan
the sweep out across a process pool with result caching and a JSONL
telemetry journal.
"""

from repro.experiments.harness import (
    DeploymentRecord,
    default_frameworks,
    run_deployment_suite,
    run_single_deployment,
)
from repro.experiments.reporting import Table, format_series

__all__ = [
    "DeploymentRecord",
    "Table",
    "default_frameworks",
    "format_series",
    "run_deployment_suite",
    "run_single_deployment",
]
