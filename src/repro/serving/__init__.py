"""Online inference serving with dynamic batching.

The long-lived front-end over the repo's deployable runtime: an
:class:`~repro.serving.server.InferenceServer` accepts single-sample
requests, coalesces them per model under a max-batch / max-wait policy
(:class:`~repro.serving.config.ServeConfig`, ``REPRO_SERVE_*``), and
executes assembled batches through the same sharded/pooled path offline
evaluation uses -- so a served sample's logits are byte-identical to an
offline evaluation of that sample, for any arrival pattern.

Abuse resolves to typed errors, never hangs: bounded-queue admission
(:class:`~repro.errors.QueueFullError`), per-request deadlines
propagated from queue to pool to client wait
(:class:`~repro.errors.RequestTimeoutError`), worker death healed by
the pooled path's retry loop or, when a shard dies on every attempt,
quarantined (:class:`~repro.errors.PoisonTaskError`), and graceful
drain/shutdown
(:class:`~repro.errors.ServerClosedError`). The synthetic load
generator (:mod:`repro.serving.loadgen`) and the fault-injection suite
in ``tests/serving/`` exist to prove exactly that.
"""

from repro.serving.batcher import (
    EndpointStats,
    GatherStreamEncoder,
    InferenceResponse,
    ModelQueue,
    PendingRequest,
)
from repro.serving.config import ServeConfig, resolve_serve_config
from repro.serving.loadgen import LoadReport, run_closed_loop, run_open_loop
from repro.serving.server import InferenceServer, ModelEndpoint

__all__ = [
    "EndpointStats",
    "GatherStreamEncoder",
    "InferenceResponse",
    "InferenceServer",
    "LoadReport",
    "ModelEndpoint",
    "ModelQueue",
    "PendingRequest",
    "ServeConfig",
    "resolve_serve_config",
    "run_closed_loop",
    "run_open_loop",
]
