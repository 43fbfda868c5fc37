"""Long-lived control plane: the ``repro serve`` daemon and client.

The one-shot CLI re-parses, re-analyzes and re-solves from scratch on
every invocation; this package keeps the control plane *resident*.  A
:class:`~repro.server.service.ReproServer` speaks a small versioned
JSON-lines protocol (:mod:`repro.server.protocol`) over TCP or a Unix
socket; each connection owns a :class:`~repro.server.session.Session`
whose plan history and warm-start state make repeat deploys take the
incremental rebase path instead of a cold solve.  The op bodies live
in :mod:`repro.server.ops`, shared verbatim with the CLI commands —
that sharing is what makes the server/CLI byte differential
(:func:`~repro.server.ops.deterministic_view`) structural.

Layout::

    protocol.py   framing, envelopes, error codes (repro.server/v1)
    ops.py        request -> document op bodies + the differential
    session.py    per-connection state: warm deploys, history, recovery
    service.py    the asyncio daemon (dispatch, pooled cold solves,
                  telemetry streaming)
    client.py     blocking client for --connect mode, scripts, tests

Every export is imported on first access (:mod:`repro.lazy`), so
``import repro.server.ops``, which the CLI and a heuristic deploy run,
loads neither the daemon (asyncio, the warm-replan solver stack) nor
the client and its protocol codec.
"""

from repro.lazy import lazy_exports

__getattr__ = lazy_exports(
    globals(),
    {
        "repro.server.client": ("ReproClient", "ServerError", "parse_address"),
        "repro.server.ops": (
            "CHURN_DEFAULTS",
            "DEPLOY_DEFAULTS",
            "OP_FUNCTIONS",
            "PLAN_DIFF_DEFAULTS",
            "SIMULATE_DEFAULTS",
            "OpError",
            "churn_doc",
            "churn_op",
            "deploy_op",
            "deterministic_view",
            "plan_diff_op",
            "resolve_params",
            "run_churn",
            "simulate_op",
        ),
        "repro.server.protocol": (
            "ERROR_CODES",
            "MAX_FRAME_BYTES",
            "OPS",
            "PROTOCOL",
            "ProtocolError",
        ),
        "repro.server.service": ("ReproServer", "serve_until_complete"),
        "repro.server.session": ("Session",),
    },
)

__all__ = [
    "CHURN_DEFAULTS",
    "DEPLOY_DEFAULTS",
    "ERROR_CODES",
    "MAX_FRAME_BYTES",
    "OPS",
    "OP_FUNCTIONS",
    "PLAN_DIFF_DEFAULTS",
    "PROTOCOL",
    "OpError",
    "ProtocolError",
    "ReproClient",
    "ReproServer",
    "ServerError",
    "Session",
    "churn_doc",
    "churn_op",
    "deploy_op",
    "deterministic_view",
    "parse_address",
    "plan_diff_op",
    "resolve_params",
    "run_churn",
    "serve_until_complete",
    "simulate_op",
]
