"""The synthetic program generator as it was before it listed each MAT's
written and read dependency fields in one pass, kept as the tests'
reference model.

``repro.workloads.synthetic.synthetic_program`` now appends each
dependency field to its writer's and reader's lists as it draws it;
this code scanned every dependency for every MAT.  Both must consume
the same random stream and return programs that serialize byte for
byte alike.  ``legacy_synthetic_program`` and
``legacy_synthetic_programs`` are the old functions, copied, not
imported; the configuration, the shared preamble pool and the metadata
size catalog did not change and are imported.

Import it as a module (``from tests.workloads.synthetic_oracle import
...``); it deliberately contains no tests of its own.
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

from repro.dataplane.actions import Action, ActionPrimitive, no_op
from repro.dataplane.fields import Field, metadata_field
from repro.dataplane.mat import Mat
from repro.dataplane.program import Program
from repro.workloads.metadata_catalog import METADATA_SIZES
from repro.workloads.synthetic import (
    _HDR,
    _HDR_KEYS,
    SyntheticConfig,
    shared_preamble_pool,
)


def legacy_synthetic_program(
    name: str,
    seed: int,
    config: SyntheticConfig = SyntheticConfig(),
) -> Program:
    """Generate one synthetic program."""
    rng = random.Random(seed)
    num_mats = rng.randint(config.min_mats, config.max_mats)
    sizes = sorted(METADATA_SIZES.values())

    # Shared preamble: which pool MATs this program invokes, and which
    # of its own MATs consume their index fields.
    pool = shared_preamble_pool(config)
    shared: List[Tuple[Mat, Field]] = [
        entry
        for entry in pool
        if rng.random() < config.shared_probability
    ]
    consumes_shared: Dict[int, List[Field]] = {}
    for _mat, out_field in shared:
        for i in range(num_mats):
            if rng.random() < config.shared_attach_probability:
                consumes_shared.setdefault(i, []).append(out_field)

    # Decide the dependency structure first: ordered pairs (i, j), i<j.
    dep_fields: Dict[Tuple[int, int], Field] = {}
    for i in range(num_mats):
        for j in range(i + 1, num_mats):
            if rng.random() < config.dependency_probability:
                size_bytes = rng.choice(sizes)
                dep_fields[(i, j)] = metadata_field(
                    f"{name}.m{i}_to_m{j}", size_bytes * 8
                )

    mats: List[Mat] = [mat for mat, _field in shared]
    for i in range(num_mats):
        writes = [f for (src, _dst), f in dep_fields.items() if src == i]
        reads = [f for (_src, dst), f in dep_fields.items() if dst == i]
        match_fields: List[Field] = list(reads)
        match_fields.extend(consumes_shared.get(i, []))
        # Every MAT also matches a random header field, like real tables.
        match_fields.append(_HDR[rng.choice(_HDR_KEYS)])
        actions: List[Action] = []
        if writes:
            actions.append(
                Action(
                    "produce",
                    ActionPrimitive.MODIFY_FIELD,
                    reads=tuple(reads),
                    writes=tuple(writes),
                )
            )
        else:
            actions.append(no_op("consume"))
        demand = rng.uniform(config.min_demand, config.max_demand)
        mats.append(
            Mat(
                f"m{i}",
                match_fields=match_fields,
                actions=actions,
                capacity=rng.choice((256, 1024, 4096)),
                resource_demand=demand,
            )
        )
    return Program(name, mats)


def legacy_synthetic_programs(
    count: int,
    seed: int = 0,
    config: SyntheticConfig = SyntheticConfig(),
    name_prefix: str = "syn",
) -> List[Program]:
    """``count`` seeded synthetic programs (deterministic per seed)."""
    if count < 0:
        raise ValueError("count must be non-negative")
    return [
        legacy_synthetic_program(
            f"{name_prefix}{i}", seed * 10_000 + i, config
        )
        for i in range(count)
    ]
