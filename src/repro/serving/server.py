"""The long-lived inference front-end: models in, batched answers out.

:class:`InferenceServer` owns one :class:`~repro.serving.batcher.ModelQueue`
per registered model. Clients submit single-sample requests; the
per-model batcher coalesces them under the max-batch / max-wait policy
and runs each assembled batch through the same execution path offline
evaluation uses -- :func:`repro.parallel.shard.sharded_forward` over the
persistent :class:`~repro.parallel.service.WorkerService` pool (warm
plans, generation reuse), degrading to the inline serial fallback under
``REPRO_WORKERS=1`` exactly like every other entry point.

Because the executor is the offline path and the batch encoder gathers
each request's own counter stream
(:class:`~repro.serving.batcher.GatherStreamEncoder`), a served sample's
logits are byte-identical to an offline ``predict`` of that sample --
for any arrival pattern, any batch composition the dynamic batcher
happens to produce, and any worker count.

Execution is serialized across model queues by a process-wide lock:
the worker pool (and a deployable's mutable runtime caches) are not
thread-safe, and on the CPU-bound inference path interleaving batches
buys nothing -- batching, not concurrency, is where the throughput is.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional

import numpy as np

from repro.errors import ServingError
from repro.serving.batcher import ModelQueue, PendingRequest
from repro.serving.config import ServeConfig, resolve_serve_config

#: Serializes batch execution process-wide: WorkerService and the
#: deployable's runtime caches are single-threaded by design.
_EXECUTE_LOCK = threading.Lock()


class ModelEndpoint:
    """One registered model plus everything needed to run its batches."""

    def __init__(
        self,
        name: str,
        model,
        timesteps: int,
        encoder=None,
        model_path: Optional[str] = None,
        workers: Optional[int] = None,
        shard_size: Optional[int] = None,
        retry=None,
    ) -> None:
        from repro.snn.encoding import DirectEncoder

        if timesteps < 1:
            raise ServingError(f"timesteps must be >= 1, got {timesteps}")
        self.name = name
        self.model = model
        self.timesteps = int(timesteps)
        self.encoder = encoder if encoder is not None else DirectEncoder()
        self.model_path = model_path
        self.workers = workers
        self.shard_size = shard_size
        #: RetryPolicy for pooled batches; None inherits the environment
        #: default (REPRO_RETRY_* tunable), exactly like offline
        #: evaluation: every pooled batch is self-healing through the
        #: shared WorkerService, within the batch's deadline budget.
        self.retry = retry
        self.sample_shape = tuple(model.input_shape)

    def run_batch(
        self,
        images: np.ndarray,
        stream_indices: List[int],
        timeout_s: Optional[float],
    ) -> np.ndarray:
        """Logits for one assembled batch, via the offline path.

        The gather encoder positions every sample on its own request's
        counter stream; ``sharded_forward`` then executes exactly as an
        offline evaluation of those samples would (pooled when workers
        allow, inline otherwise), with the batch's deadline budget
        propagated as the pooled call's wall-clock bound.
        """
        from repro.parallel.shard import sharded_forward
        from repro.serving.batcher import GatherStreamEncoder

        encoder = GatherStreamEncoder(self.encoder, stream_indices)
        with _EXECUTE_LOCK:
            output = sharded_forward(
                self.model,
                images,
                self.timesteps,
                encoder=encoder,
                record=False,
                shard_size=self.shard_size or len(images),
                workers=self.workers,
                model_path=self.model_path,
                timeout=timeout_s,
                retry=self.retry,
            )
        return output.logits


class InferenceServer:
    """Online inference serving with per-model dynamic batching.

    Lifecycle: construct (optionally from ``REPRO_SERVE_*`` via
    :func:`~repro.serving.config.resolve_serve_config`), register
    models, serve :meth:`submit` traffic, then :meth:`drain` (graceful:
    stop admission, finish queued work) or :meth:`shutdown` (drain, then
    fail whatever remains with a typed
    :class:`~repro.errors.ServerClosedError`). A context manager runs
    :meth:`shutdown` on exit, so no test or tool can leak a batcher
    thread.
    """

    def __init__(self, config: Optional[ServeConfig] = None) -> None:
        self.config = config if config is not None else resolve_serve_config()
        self._endpoints: Dict[str, ModelEndpoint] = {}
        self._queues: Dict[str, ModelQueue] = {}
        self._lock = threading.Lock()
        self._closed = False

    # -- registration ---------------------------------------------------
    def register(
        self,
        name: str,
        model,
        timesteps: int,
        encoder=None,
        model_path: Optional[str] = None,
        workers: Optional[int] = None,
        shard_size: Optional[int] = None,
        executor=None,
        retry=None,
    ) -> ModelEndpoint:
        """Register ``model`` under ``name`` and start taking traffic.

        ``executor(images, stream_indices, timeout_s) -> logits``
        overrides the default pooled execution path -- the seam the
        fault-injection harness uses to induce worker crashes, stalls
        and failures without a real pool. ``retry`` pins a
        :class:`~repro.parallel.retry.RetryPolicy` for this endpoint's
        pooled batches; ``None`` inherits the environment default.
        """
        endpoint = ModelEndpoint(
            name,
            model,
            timesteps,
            encoder=encoder,
            model_path=model_path,
            workers=workers,
            shard_size=shard_size,
            retry=retry,
        )
        with self._lock:
            if self._closed:
                from repro.errors import ServerClosedError

                raise ServerClosedError(
                    f"cannot register {name!r}: server is shut down"
                )
            if name in self._endpoints:
                raise ServingError(f"model {name!r} is already registered")
            self._endpoints[name] = endpoint
            self._queues[name] = ModelQueue(
                name,
                self.config,
                executor if executor is not None else endpoint.run_batch,
                endpoint.sample_shape,
            )
        return endpoint

    def endpoint(self, name: str) -> ModelEndpoint:
        with self._lock:
            if name not in self._endpoints:
                raise ServingError(f"no model registered as {name!r}")
            return self._endpoints[name]

    @property
    def models(self) -> List[str]:
        with self._lock:
            return sorted(self._endpoints)

    # -- traffic --------------------------------------------------------
    def submit(
        self,
        model: str,
        image: np.ndarray,
        stream_index: int = 0,
        timeout_ms: Optional[float] = None,
    ) -> PendingRequest:
        """Admit one single-sample request against ``model``.

        ``stream_index`` is the request's global sample index in the
        encoder's counter stream -- the coordinate that makes its spike
        train (hence its logits) independent of batch placement. Typed
        rejections: :class:`~repro.errors.QueueFullError` (backpressure),
        :class:`~repro.errors.ServerClosedError` (draining/stopped),
        :class:`~repro.errors.ServingError` (unknown model, bad shape).
        """
        with self._lock:
            queue = self._queues.get(model)
        if queue is None:
            raise ServingError(f"no model registered as {model!r}")
        return queue.submit(
            image, stream_index=stream_index, timeout_ms=timeout_ms
        )

    # -- lifecycle ------------------------------------------------------
    def drain(self, timeout_s: Optional[float] = None) -> bool:
        """Gracefully drain every model queue.

        Admission stops immediately; queued and in-flight requests run
        to completion, bounded by ``timeout_s`` (default: the configured
        ``drain_ms``, applied per queue). Returns ``True`` when every
        queue fully drained."""
        with self._lock:
            self._closed = True
            queues = list(self._queues.values())
        drained = True
        for queue in queues:
            drained = queue.drain(timeout_s) and drained
        return drained

    def shutdown(self, drain: bool = True) -> None:
        """Stop the server; never leaves a caller blocked.

        With ``drain=True`` queued work gets a bounded chance to finish
        first; anything still pending afterwards (and everything, with
        ``drain=False``) resolves with
        :class:`~repro.errors.ServerClosedError`."""
        if drain:
            self.drain()
        else:
            with self._lock:
                self._closed = True
        with self._lock:
            queues = list(self._queues.values())
        for queue in queues:
            queue.close()

    def __enter__(self) -> "InferenceServer":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown()

    # -- observability --------------------------------------------------
    def stats(self) -> Dict[str, Dict[str, int]]:
        """Per-model lifetime counters (see
        :class:`~repro.serving.batcher.EndpointStats`)."""
        with self._lock:
            queues = dict(self._queues)
        return {name: queue.stats_snapshot() for name, queue in queues.items()}
