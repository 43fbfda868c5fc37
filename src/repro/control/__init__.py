"""Control-plane substrate.

The paper's backend "invokes the network controller to direct traffic
to correctly pass through a sequence of programmable switches" — the
control plane is the runtime half of network-wide deployment.  This
package provides it:

* :class:`Controller` — owns a deployed plan; resolves logical MAT
  names to their hosting switch, installs/removes rules with capacity
  accounting, and keeps an auditable event log;
* :func:`repro.control.migration.compute_moves` — reduces a
  re-deployment after switch failures (or administrative drains) to
  its move set: which MATs move where, whether their old host vanished,
  and which rules must be replayed.  The lifecycle reconciler
  (:class:`repro.runtime.Reconciler`) re-deploys and calls it.
"""

from repro.control.controller import (
    Controller,
    ControllerError,
    RebindReport,
    RuleEvent,
    TableHandle,
)
from repro.control.migration import MatMove, compute_moves

__all__ = [
    "Controller",
    "ControllerError",
    "MatMove",
    "RebindReport",
    "RuleEvent",
    "TableHandle",
    "compute_moves",
]
