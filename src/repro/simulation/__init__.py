"""End-to-end transmission simulation.

The paper's motivation (§II-B, Fig. 2) and end-to-end experiments
(Exp#1/#4/#5) measure how the per-packet byte overhead degrades flow
completion time (FCT) and goodput: metadata steals payload bytes from
the MTU, so applications need more packets — and more wire bytes — per
message.

This package provides both:

* a discrete-event, store-and-forward flow simulator
  (:class:`FlowSimulator`) that transmits every packet hop by hop; and
* a closed-form model of the same pipeline (:class:`BatchEngine`),
  cross-checked against the simulator in the test suite and used by
  the large parameter sweeps.
"""

from repro.simulation.events import EventQueue, Simulator
from repro.simulation.packet import Packet
from repro.simulation.flow import (
    Flow,
    MIN_PAYLOAD_BYTES,
    flow_pair,
    packetize,
    widened_mtu,
)
from repro.simulation.netsim import (
    FlowSimulator,
    HopSpec,
    uniform_path,
)
from repro.simulation.spec import (
    DiurnalLoad,
    FlowSpec,
    SimulationSpec,
    TrafficModel,
    hop_chain,
)
from repro.simulation.engine import (
    BatchEngine,
    Engine,
    ExactEngine,
    SimulationResult,
    get_engine,
    overhead_impact,
)
from repro.simulation.contention import (
    CONTENTION_FREE_LOAD,
    CONTENTION_REL_TOLERANCE,
    DEFAULT_LOAD,
    ContentionEngine,
)
from repro.simulation.metrics import FlowMetrics, normalized_against
from repro.simulation.traces import (
    TraceConfig,
    TraceFlow,
    TraceMetrics,
    evaluate_trace,
    generate_trace,
)
from repro.simulation.interpreter import (
    ExecutionTrace,
    MissingMetadataError,
    PlanInterpreter,
)

__all__ = [
    "BatchEngine",
    "CONTENTION_FREE_LOAD",
    "CONTENTION_REL_TOLERANCE",
    "ContentionEngine",
    "DEFAULT_LOAD",
    "Engine",
    "EventQueue",
    "ExactEngine",
    "ExecutionTrace",
    "Flow",
    "FlowMetrics",
    "FlowSimulator",
    "DiurnalLoad",
    "FlowSpec",
    "HopSpec",
    "MIN_PAYLOAD_BYTES",
    "MissingMetadataError",
    "Packet",
    "PlanInterpreter",
    "SimulationResult",
    "SimulationSpec",
    "Simulator",
    "TraceConfig",
    "TraceFlow",
    "TraceMetrics",
    "TrafficModel",
    "evaluate_trace",
    "flow_pair",
    "generate_trace",
    "get_engine",
    "hop_chain",
    "normalized_against",
    "overhead_impact",
    "packetize",
    "uniform_path",
    "widened_mtu",
]
