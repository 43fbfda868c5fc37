"""The reference job: the unit the benchmark's op times are given in.

The machine the benchmark was written on (2 vCPUs shared with other
tenants) runs Python code at anywhere from full to half speed, for
seconds to minutes at a time, in CPU time as much as in wall time.  A
slowdown stretches an op and a fixed job run next to it alike, so the
workloads report each op's time divided by this job's time, measured in
the same process just before and just after the op: the op's time in
*refs*.

The job is plain Python of the kind ``repro`` spends its time in (dicts,
lists, tuples, a heap, sorting and JSON), 3.5-7 ms on that machine.
Over eight runs of ``heuristic-deploy`` there, the median op's wall
time spread 0.17 (interquartile range over median) and its time in refs
0.03.  A pure integer loop does not work as the unit: its time moved by
0.05 while the ops' moved by 0.17.  Changing the job changes the unit of
every ``*_ref`` metric, so it must stay as it is.
"""

from __future__ import annotations

import gc
import heapq
import json
import random
import time


def reference_job() -> int:
    """Shortest paths over a fixed random graph, written out as JSON."""
    rng = random.Random(5)
    nodes = 400
    adjacency = {node: [] for node in range(nodes)}
    for _ in range(3 * nodes):
        u, v, weight = rng.randrange(nodes), rng.randrange(nodes), rng.random()
        adjacency[u].append((v, weight))
        adjacency[v].append((u, weight))
    dist = {0: 0.0}
    heap = [(0.0, 0)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        for v, weight in adjacency[u]:
            if d + weight < dist.get(v, float("inf")):
                dist[v] = d + weight
                heapq.heappush(heap, (d + weight, v))
    doc = [
        {"node": node, "dist": round(d, 6),
         "neighbours": sorted(v for v, _ in adjacency[node])}
        for node, d in sorted(dist.items())
    ]
    return len(json.dumps(doc, sort_keys=True))


def time_reference() -> float:
    """Seconds one run of :func:`reference_job` takes now.

    The garbage collector is paused for the run: the job leaves no
    garbage cycles, and a collection of the op's leftovers would charge
    the op's work to the unit.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        reference_job()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()
