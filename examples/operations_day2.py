#!/usr/bin/env python3
"""Day-2 operations: packets, rules and a switch failure.

Deploys a flow-counting program across a line of small switches, then
walks through the runtime story a network operator lives with:

1. push packets through the deployment with the executable interpreter
   and watch the metadata piggyback across switches;
2. install runtime rules through the controller (with capacity
   accounting and an audit log);
3. fail the counting switch and let the lifecycle reconciler
   re-deploy, reporting which MATs move and what the new byte overhead
   is.

Run:  python examples/operations_day2.py
"""

from repro.control import Controller
from repro.core import Hermes
from repro.dataplane import (
    Mat,
    Program,
    counter_update,
    hash_compute,
    metadata_field,
    modify,
    standard_headers,
)
from repro.dataplane.rules import MatchKind, MatchSpec, Rule
from repro.network import linear_topology
from repro.runtime import EventKind, NetworkEvent, Reconciler, Scenario
from repro.simulation import PlanInterpreter


def build_program() -> Program:
    hdr = standard_headers()
    idx = metadata_field("fc.idx", 32)
    cnt = metadata_field("fc.cnt", 32)
    return Program(
        "flow_counter",
        [
            Mat(
                "hash",
                match_fields=[hdr["ipv4.protocol"]],
                actions=[
                    hash_compute(
                        idx, [hdr["ipv4.src_addr"], hdr["ipv4.dst_addr"]]
                    )
                ],
                capacity=16,
                resource_demand=0.6,
            ),
            Mat(
                "count",
                match_fields=[idx],
                actions=[counter_update(idx, cnt)],
                capacity=1024,
                resource_demand=0.9,
            ),
            Mat(
                "mark",
                match_fields=[cnt],
                actions=[modify(hdr["ipv4.dscp"], [cnt])],
                capacity=16,
                resource_demand=0.5,
            ),
        ],
    )


def install_udp_rule(controller: Controller) -> None:
    controller.install_rule(
        "flow_counter.hash",
        Rule(
            matches=(MatchSpec("ipv4.protocol", MatchKind.EXACT, 17),),
            action_name="hash_fc_idx",
        ),
    )


def main() -> None:
    # A ring survives any single switch failure; a line would not.
    network = linear_topology(4, num_stages=1, stage_capacity=1.0)
    network.connect("s3", "s0", latency_ms=0.001)
    programs = [build_program()]
    plan = Hermes().deploy(programs, network).plan
    print(
        f"deployed across {plan.occupied_switches()} "
        f"(A_max = {plan.max_metadata_bytes()} B)\n"
    )

    # 1. Packets through the interpreter.
    interpreter = PlanInterpreter(plan)
    packet = {
        "ipv4.src_addr": 0x0A000001,
        "ipv4.dst_addr": 0x0A000002,
        "ipv4.protocol": 6,
    }
    for i in range(3):
        trace = interpreter.run_packet(dict(packet))
    print(
        f"3 packets of one flow -> counter={trace.final_fields['fc.cnt']}, "
        f"dscp mark={trace.final_fields['ipv4.dscp']}"
    )
    print(f"  visit order: {' -> '.join(trace.visited_switches)}")

    # 2. Runtime rules through the controller.
    controller = Controller(plan)
    switch, stages = controller.resolve("flow_counter.hash")
    print(f"\ncontroller: flow_counter.hash lives on {switch} stages {stages}")
    install_udp_rule(controller)
    occupancy = controller.occupancy_report()["flow_counter.hash"]
    print(f"  installed UDP rule; table occupancy {occupancy[0]}/{occupancy[1]}")

    # 3. Fail the counting switch; the reconciler re-deploys on the
    # surviving network and rebinds a controller holding the same rule.
    victim = plan.switch_of("flow_counter.count")
    scenario = Scenario(
        name="day2",
        seed=0,
        workload_spec="flow_counter",
        topology_spec="ring:4",
        events=(NetworkEvent(1.0, EventKind.SWITCH_FAIL, victim),),
    )
    reconciled = Reconciler(
        programs, network, prepare_fn=install_udp_rule
    ).run(scenario)
    (outcome,) = reconciled.outcomes
    print(f"\nswitch {victim} failed:")
    for change in outcome.plan_diff.moved:
        source = (
            "(failed switch)"
            if change.old_switch == victim
            else change.old_switch
        )
        print(f"  move {change.mat_name}: {source} -> {change.new_switch}")
    print(
        f"  overhead {outcome.old_amax_bytes} B -> "
        f"{outcome.new_amax_bytes} B, disruption "
        f"{outcome.moves / len(plan.placements):.0%}"
    )
    print(f"  rules replayed: {outcome.rules_replayed}")

if __name__ == "__main__":
    main()
