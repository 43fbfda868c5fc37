"""Synthetic program generation (§VI-A).

Paper settings, reproduced exactly:

* per-MAT normalized per-stage resource consumption uniform in
  [10%, 50%];
* 10-20 MATs per program (uniform);
* each (ordered) MAT pair carries a dependency with probability 30%.

A dependency ``(i, j)`` is realized structurally: MAT ``i`` writes a
fresh metadata field that MAT ``j`` matches on — a match dependency
whose byte count is the field's size, drawn from the Table I size
distribution.  Generation is fully seeded.

In addition, programs draw shared *preamble* MATs from a small common
pool (hash/index computations every measurement program needs — the
redundancy §IV's merging exploits).  After SPEED-style merging these
become hub nodes with edges into many programs, so segments can no
longer be split apart for free: exactly the regime where minimizing the
cut bytes (Hermes) beats overhead-oblivious placement.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.dataplane.actions import Action, ActionPrimitive, no_op
from repro.dataplane.fields import Field, metadata_field, standard_headers
from repro.dataplane.mat import Mat
from repro.dataplane.program import Program
from repro.workloads.metadata_catalog import METADATA_SIZES

_HDR = standard_headers()
_HDR_KEYS = sorted(_HDR)


@dataclass(frozen=True)
class SyntheticConfig:
    """Generator knobs (defaults are the paper's settings)."""

    min_mats: int = 10
    max_mats: int = 20
    dependency_probability: float = 0.30
    min_demand: float = 0.10
    max_demand: float = 0.50
    shared_pool_size: int = 4
    shared_probability: float = 0.6
    shared_attach_probability: float = 0.25

    def __post_init__(self) -> None:
        if not 1 <= self.min_mats <= self.max_mats:
            raise ValueError("need 1 <= min_mats <= max_mats")
        if not 0.0 <= self.dependency_probability <= 1.0:
            raise ValueError("dependency_probability must be in [0, 1]")
        if not 0.0 < self.min_demand <= self.max_demand:
            raise ValueError("need 0 < min_demand <= max_demand")
        if self.shared_pool_size < 0:
            raise ValueError("shared_pool_size must be non-negative")
        if not 0.0 <= self.shared_probability <= 1.0:
            raise ValueError("shared_probability must be in [0, 1]")
        if not 0.0 <= self.shared_attach_probability <= 1.0:
            raise ValueError("shared_attach_probability must be in [0, 1]")


def shared_preamble_pool(config: SyntheticConfig) -> List[Tuple[Mat, Field]]:
    """The common hash/index MATs programs may share.

    Every call returns structurally identical MATs (deterministic
    construction), so instances drawn into different programs are
    redundant to the merger.
    """
    pool: List[Tuple[Mat, Field]] = []
    for k in range(config.shared_pool_size):
        out = metadata_field(f"shared.index{k}", 32)
        mat = Mat(
            f"shared_hash{k}",
            match_fields=[_HDR["ipv4.protocol"]],
            actions=[
                Action(
                    "compute",
                    ActionPrimitive.HASH,
                    reads=(
                        _HDR["ipv4.src_addr"],
                        _HDR["ipv4.dst_addr"],
                    ),
                    writes=(out,),
                )
            ],
            capacity=16,
            resource_demand=0.20,
        )
        pool.append((mat, out))
    return pool


def synthetic_program(
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

    # Decide the dependency structure first: ordered pairs (i, j), i<j,
    # each listed, in the order drawn, as a write of MAT i and a read
    # of MAT j.
    writes_of: List[List[Field]] = [[] for _ in range(num_mats)]
    reads_of: List[List[Field]] = [[] for _ in range(num_mats)]
    for i in range(num_mats):
        for j in range(i + 1, num_mats):
            if rng.random() < config.dependency_probability:
                size_bytes = rng.choice(sizes)
                dep_field = metadata_field(
                    f"{name}.m{i}_to_m{j}", size_bytes * 8
                )
                writes_of[i].append(dep_field)
                reads_of[j].append(dep_field)

    mats: List[Mat] = [mat for mat, _field in shared]
    for i, (writes, reads) in enumerate(zip(writes_of, reads_of)):
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


def synthetic_programs(
    count: int,
    seed: int = 0,
    config: SyntheticConfig = SyntheticConfig(),
    name_prefix: str = "syn",
) -> List[Program]:
    """``count`` seeded synthetic programs (deterministic per seed)."""
    if count < 0:
        raise ValueError("count must be non-negative")
    return [
        synthetic_program(f"{name_prefix}{i}", seed * 10_000 + i, config)
        for i in range(count)
    ]
