"""``repro.serve`` — the long-lived scenario service (PR 10 tentpole).

A warm, deduplicating front end over the Scenario narrow waist:
requests arrive over HTTP or stdin as spec-grammar strings, are
content-hashed, deduplicated (in-flight coalescing, warm cache), and
each miss is dispatched on admission to a persistent worker fleet by a
pluggable policy adapted from the paper's load-balancing strategies.
"""

from ..parallel.pool import WorkerFleet
from .policy import (
    POLICY_NAMES,
    CentralPolicy,
    CwnPolicy,
    GmPolicy,
    RandomPolicy,
    RoundRobinPolicy,
    ServePolicy,
    make_policy,
)
from .protocol import (
    PROTOCOL_VERSION,
    BadRequest,
    HttpRequest,
    error_body,
    http_response,
    read_http_request,
    request_spec,
    response_body,
)
from .replay import ReplayRequest, ReplayStats, load_stream, render_replay, run_replay
from .server import ServeServer, build_server, serve_forever, serve_stdin
from .service import Busy, ComputeError, ScenarioService, ServeStats, Submitted

__all__ = [
    "POLICY_NAMES",
    "PROTOCOL_VERSION",
    "BadRequest",
    "Busy",
    "CentralPolicy",
    "ComputeError",
    "CwnPolicy",
    "GmPolicy",
    "HttpRequest",
    "RandomPolicy",
    "ReplayRequest",
    "ReplayStats",
    "RoundRobinPolicy",
    "ScenarioService",
    "ServePolicy",
    "ServeServer",
    "ServeStats",
    "Submitted",
    "WorkerFleet",
    "build_server",
    "error_body",
    "http_response",
    "load_stream",
    "make_policy",
    "read_http_request",
    "render_replay",
    "request_spec",
    "response_body",
    "run_replay",
    "serve_forever",
    "serve_stdin",
]
