"""The warm rung's differential corpus.

Warm (``incremental=True``) churn runs of two shapes, seeds 1-8: the
default event mix on ``real:10`` over ``wan:16:24:<seed>``, program
additions and removals included, and network-only churn of the repo
benchmark's shape, ``real:10`` over ``wan:20:30:7``.  Across the 16 runs
the warm rung rebases, splices delta solutions, fails to splice some and
escalates on blast radius; workload events escalate before it is asked.

Import it as a module (``from tests.runtime.warm_corpus import ...``);
it deliberately contains no tests of its own.
"""

from repro.runtime import Reconciler
from tests.runtime.test_reconciler_differential import (
    WARM,
    default_mix,
    network_only,
)

#: ``(label, make, seed)``: ``make(seed)`` returns the programs, the
#: network and the scenario of one run.
RUNS = [
    (f"{label}-{seed}", make, seed)
    for label, make in (
        ("default-mix", default_mix),
        ("network-only", network_only),
    )
    for seed in range(1, 9)
]


def replay_all():
    """Replay every run of :data:`RUNS` warm, in order."""
    for _label, make, seed in RUNS:
        programs, network, scenario = make(seed)
        Reconciler(programs, network, policy=WARM).run(scenario)
