#!/usr/bin/env python3
"""Software-defined measurement: ten sketches, one WAN.

The SDM scenario from the paper's introduction: administrators deploy
ten sketch algorithms at once; no single switch can host them all.
This example deploys the bundled sketch suite on a Table III WAN with
Hermes and with a first-fit baseline, then compares the per-packet byte
overhead, the end-to-end impact, and the resources saved by TDG
merging.

Run:  python examples/sdm_deployment.py
"""

from repro.baselines import Ffls, HermesHeuristic
from repro.core import CoordinationAnalysis
from repro.network import topology_zoo_wan
from repro.simulation import overhead_impact
from repro.workloads import sketch_programs


def main() -> None:
    programs = sketch_programs(10)
    network = topology_zoo_wan(3)
    standalone_units = sum(p.total_resource_demand for p in programs)

    print(
        f"deploying {len(programs)} sketches "
        f"({standalone_units:.1f} stage units) on {network.name} "
        f"({network.num_switches} switches, "
        f"{len(network.programmable_switches())} programmable)\n"
    )

    for framework in (HermesHeuristic(), Ffls()):
        result = framework.deploy(programs, network)
        plan = result.plan
        overhead = plan.max_metadata_bytes()
        fct_ratio, goodput_ratio = overhead_impact(overhead)
        merged_units = sum(m.resource_demand for m in result.tdg.mats)
        print(f"{framework.name}:")
        print(f"  per-packet byte overhead : {overhead} B")
        print(f"  occupied switches        : {plan.num_occupied_switches()}")
        print(f"  placement time           : {result.solve_time_s * 1e3:.1f} ms")
        print(f"  FCT impact (1024B pkts)  : {(fct_ratio - 1) * 100:+.1f}%")
        print(f"  goodput impact           : {(goodput_ratio - 1) * 100:+.1f}%")
        if framework.merges:
            saved = standalone_units - merged_units
            print(
                f"  merging saved            : {saved:.1f} stage units "
                f"({len(result.tdg)} MATs after dedup)"
            )
        channels = CoordinationAnalysis(plan)
        worst = max(
            channels.channels.values(),
            key=lambda ch: ch.declared_bytes,
            default=None,
        )
        if worst is not None:
            print(
                f"  busiest channel          : {worst.source} -> "
                f"{worst.destination} carrying {worst.declared_bytes} B"
            )
        print()


if __name__ == "__main__":
    main()
