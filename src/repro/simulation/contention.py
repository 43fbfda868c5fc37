"""Per-link output-queue contention at millions of flows.

The exact DES and the batch closed form both model flows
*independently*: every flow gets a private copy of its path, so
"heavy traffic" is additive arithmetic — no queueing, no shared-link
contention.  :class:`ContentionEngine` is the third engine: flows
bound to the same path contend for that path's bottleneck output
queue, the way a VOQ drains one (input, output) pair's traffic through
a single serializing port.

The model, in two layers:

1. **Uncontended base** — every flow's solo transmission, reproduced
   from the per-packet DES in closed form.  For ``N`` equal packets
   over hops with serialization times ``t_h`` and latencies ``l_h``,
   packet ``k`` departs hop ``h`` at ``sum(t) + sum(l) + (k-1) *
   max(t)`` (cumulative over the prefix of hops); the short last
   packet then follows an O(hops) max/add recurrence against the
   previous packet's departures.  This is *bit-compatible* with
   :class:`~repro.simulation.netsim.FlowSimulator` (worst observed
   relative delta ~5e-14, locked at 1e-6 by the differential suite)
   while vectorizing over every flow at once.

2. **Queueing wait** — each path's flows share one FIFO output queue
   at the path's bottleneck hop.  Flow ``i`` offers ``T_i`` seconds of
   serialization work (its total wire bytes at the bottleneck rate)
   and arrives ``T_{i-1} / load * u_i`` after its predecessor, where
   ``u_i`` is seeded jitter in ``[JITTER_LOW, JITTER_HIGH]`` (mean 1,
   so the long-run offered utilization is exactly ``load``).  The
   FIFO busy-period recurrence ``c_i = max(s_i, c_{i-1}) + T_i``
   vectorizes as a cumulative max over ``s_i - cumsum(T)`` — the
   NumPy event calendar — and the wait ``c_i - T_i - s_i`` adds to the
   flow's base FCT.

Because ``u_i >= JITTER_LOW``, any ``load <= JITTER_LOW`` spaces every
arrival beyond its predecessor's full service time: waits are exactly
zero and the engine degrades to the DES *structurally*, not just
approximately.  That threshold is exported as
:data:`CONTENTION_FREE_LOAD` and is what the differential tests pin.
Above it, bursts (runs of ``u_i < 1``) queue; waits grow monotonically
in ``load`` (arrival times scale as ``1/load`` with the jitter
sequence held fixed) and without bound past saturation.

The zero-overhead baseline twins ride the *same* arrival calendar with
their smaller work, so ``fct_ratio`` isolates what coordination
metadata costs *under congestion*: extra wire bytes inflate the queue,
not just the pipeline — the new result class this engine opens.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.simulation.engine import Engine, SimulationResult
from repro.simulation.flow import MIN_PAYLOAD_BYTES
from repro.simulation.spec import SimulationSpec

#: Offered bottleneck utilization used when neither the engine nor the
#: spec's :class:`~repro.simulation.spec.TrafficModel` pins one.
DEFAULT_LOAD = 0.5

#: Arrival jitter bounds.  The low bound doubles as the structural
#: contention-free threshold: at ``load <= JITTER_LOW`` every gap is at
#: least the predecessor's full service time, so no flow ever waits.
JITTER_LOW = 0.1
JITTER_HIGH = 1.9

#: Loads at or below this are provably wait-free: the engine's per-flow
#: FCT equals the exact DES (within float reassociation, far inside
#: 1e-6 relative).  The differential suite evaluates here.
CONTENTION_FREE_LOAD = JITTER_LOW

#: Relative tolerance of the contention engine's uncontended base FCT
#: against the per-packet exact DES.
CONTENTION_REL_TOLERANCE = 1e-6


class ContentionEngine(Engine):
    """Vectorized per-path output-queue contention.

    Args:
        load: Offered bottleneck utilization per path.  ``None`` defers
            to the spec's ``traffic.offered_load``, then
            :data:`DEFAULT_LOAD`.  Values above 1 model overload
            (queues grow without bound over the trace).
        seed: Seeds the arrival-jitter sequence; evaluation is a pure
            function of ``(spec, load, seed)``.
    """

    name = "contention"

    def __init__(self, load: Optional[float] = None, seed: int = 0) -> None:
        if load is not None and load <= 0:
            raise ValueError("load must be positive")
        self.load = load
        self.seed = seed

    def resolved_load(self, spec: SimulationSpec) -> float:
        """The utilization this evaluation runs at."""
        if self.load is not None:
            return self.load
        spec_load = getattr(spec.traffic, "offered_load", None)
        if spec_load:
            return spec_load
        return DEFAULT_LOAD

    def _evaluate(self, spec: SimulationSpec) -> SimulationResult:
        import numpy as np

        load = self.resolved_load(spec)
        tm = spec.traffic
        payload, hdr, mtu = tm.packet_payload_bytes, tm.header_bytes, tm.mtu

        num_hops = max(len(path) for path in spec.paths)
        num_paths = len(spec.paths)
        # Per-path hop constants, padded with one inert hop (tx factor
        # and latency 0) past every real chain so the runt recurrence
        # below delivers every flow on a padded column regardless of
        # its path length.
        txf = np.zeros((num_paths, num_hops + 1))
        lat = np.zeros((num_paths, num_hops + 1))
        for p, path in enumerate(spec.paths):
            for h, hop in enumerate(path):
                txf[p, h] = 8.0 / (hop.rate_gbps * 1000.0)
                lat[p, h] = hop.latency_us

        pid = np.fromiter(
            (f.path_id for f in spec.flows), dtype=np.int64,
            count=len(spec.flows),
        )
        msg = np.fromiter(
            (f.message_bytes for f in spec.flows), dtype=np.int64,
            count=len(spec.flows),
        )
        ov = np.fromiter(
            (f.overhead_bytes for f in spec.flows), dtype=np.int64,
            count=len(spec.flows),
        )

        txf_g = txf[pid]  # (flows, hops+1) gathers
        lat_g = lat[pid]
        bottleneck = txf_g.max(axis=1)

        # Measured packetization (MTU widening per the shared rule).
        widened = np.maximum(mtu, ov + hdr + MIN_PAYLOAD_BYTES)
        eff_m = np.minimum(payload, widened - ov - hdr)
        base_m, n_m, wire_m = self._solo(
            np.asarray(eff_m), ov + hdr, msg, txf_g, lat_g, np
        )
        # Zero-overhead baseline twins.
        eff_b = np.full_like(msg, min(payload, mtu - hdr))
        base_b, _n_b, _wire_b = self._solo(
            eff_b, np.full_like(msg, hdr), msg, txf_g, lat_g, np
        )

        # Bottleneck work per flow: total wire bytes through the
        # path's slowest port.
        work_m = wire_m * bottleneck
        work_b = _wire_b * bottleneck

        wait_m = np.zeros(len(spec.flows))
        wait_b = np.zeros(len(spec.flows))
        jitter = np.random.default_rng(self.seed).uniform(
            JITTER_LOW, JITTER_HIGH, len(spec.flows)
        )
        order = np.argsort(pid, kind="stable")  # spec order within path
        bounds = np.searchsorted(pid[order], np.arange(num_paths + 1))
        for p in range(num_paths):
            idx = order[bounds[p]:bounds[p + 1]]
            if len(idx) < 2:
                continue
            t_m = work_m[idx]
            # Arrivals: predecessor's work over load, jittered.
            gaps = np.empty(len(idx))
            gaps[0] = 0.0
            gaps[1:] = t_m[:-1] / load * jitter[idx[1:]]
            starts = np.cumsum(gaps)
            wait_m[idx] = self._fifo_wait(starts, t_m, np)
            wait_b[idx] = self._fifo_wait(starts, work_b[idx], np)

        fct_m = base_m + wait_m
        fct_b = base_b + wait_b
        gp_m = msg * 8.0 / (fct_m * 1000.0)
        gp_b = msg * 8.0 / (fct_b * 1000.0)
        return SimulationResult(
            engine=self.name,
            source=spec.source,
            fct_us=fct_m.tolist(),
            goodput_gbps=gp_m.tolist(),
            num_packets=n_m.tolist(),
            wire_bytes=wire_m.tolist(),
            baseline_fct_us=fct_b.tolist(),
            baseline_goodput_gbps=gp_b.tolist(),
            wait_us=wait_m.tolist(),
            load=load,
        )

    # ------------------------------------------------------------------
    @staticmethod
    def _solo(eff, extra, msg, txf_g, lat_g, np) -> Tuple:
        """Uncontended DES-exact (fct, packets, wire) per flow.

        ``eff`` is the effective payload per packet, ``extra`` the
        per-packet overhead + framing bytes; ``txf_g``/``lat_g`` are
        (flows, hops+1) per-hop serialization factors and latencies
        with the inert pad column last.
        """
        n = -(-msg // eff)
        w_full = eff + extra
        w_runt = (msg - (n - 1) * eff) + extra
        wire = (n - 1) * w_full + w_runt

        t_full = w_full[:, None] * txf_g
        t_runt = w_runt[:, None] * txf_g
        s_tx = np.cumsum(t_full, axis=1)
        m_tx = np.maximum.accumulate(t_full, axis=1)
        lat_before = np.concatenate(
            (np.zeros((lat_g.shape[0], 1)), np.cumsum(lat_g, axis=1)[:, :-1]),
            axis=1,
        )
        # Departure of packet N-1 from each hop prefix; -inf disables
        # the constraint for single-packet flows.
        d_prev = s_tx + lat_before + (n - 2)[:, None] * m_tx
        d_prev = np.where((n >= 2)[:, None], d_prev, -np.inf)

        # The runt threads the pipeline behind packet N-1.  Every real
        # chain ends before the pad column, whose zero latency/tx makes
        # the final iteration deliver (arrival past the last hop).
        fct = np.zeros(len(msg))
        for h in range(txf_g.shape[1]):
            arrive = fct + (lat_g[:, h - 1] if h > 0 else 0.0)
            fct = np.maximum(arrive, d_prev[:, h]) + t_runt[:, h]
        return fct, n, wire

    @staticmethod
    def _fifo_wait(starts, work, np):
        """FIFO waits for jobs (start, service) in arrival order.

        ``c_i = max(s_i, c_{i-1}) + T_i`` unrolled: ``c_i = cumT_i +
        running_max(s_j - cumT_{j-1})`` — one cumsum and one cumulative
        max instead of a Python-level scan.  The cumsum cancellation
        leaves ~1-ulp residues (of either sign) on wait-free flows;
        anything below a picosecond-scale fraction of the schedule is
        snapped to exactly zero so the structural contention-free
        guarantee (``load <= JITTER_LOW`` => all-zero waits) holds
        bit-true, not just approximately.
        """
        cum = np.cumsum(work)
        frontier = np.maximum.accumulate(starts - (cum - work))
        wait = cum - work + frontier - starts
        return np.where(wait > 1e-12 * np.maximum(starts, 1.0), wait, 0.0)


__all__ = [
    "CONTENTION_FREE_LOAD",
    "CONTENTION_REL_TOLERANCE",
    "DEFAULT_LOAD",
    "JITTER_HIGH",
    "JITTER_LOW",
    "ContentionEngine",
]
