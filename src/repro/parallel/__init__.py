"""Sharded, process-parallel evaluation and sweep execution.

The paper's design-space study is embarrassingly parallel -- many
independent (quantization scheme, sparsity) cells, and within each cell
a batch of independent images -- yet the seed reproduction ran every
experiment as one fused loop on one core. This package is the subsystem
that spreads that work across worker processes without ever changing a
result:

* :mod:`repro.parallel.config` -- worker-count resolution
  (``REPRO_WORKERS`` env var, ``workers_override`` scoping, explicit
  arguments) with ``REPRO_WORKERS=1`` as the universal serial fallback.
* :mod:`repro.parallel.pool` -- :func:`run_tasks`, the deterministic
  process-pool executor: module-level cell functions mapped over payload
  lists, results always in payload order, workers bootstrapped with the
  parent's runtime configuration and ``REPRO_WORKERS=1`` (no nested
  pools). Worker processes persist across the cells they execute, so
  process-wide caches -- conv geometry, BLAS-fold calibration verdicts,
  loaded model artifacts -- are paid once per worker, not once per cell.
* :mod:`repro.parallel.shard` -- :func:`sharded_forward`, the batch
  sharder: contiguous deterministic shard geometry, per-shard forward
  passes, and an order-fixed merge of logits, ``SpikeStats``,
  ``LayerCounters``, input totals and recorded trains.
* :mod:`repro.parallel.service` -- :class:`WorkerService`, the
  persistent, self-healing pool behind ``run_tasks``: lazily started,
  reused across calls, per-call state shipped as versioned
  *generations*, lost tasks re-executed on a restarted pool, shut down
  via context manager / ``shutdown_worker_service`` / ``atexit``.
* :mod:`repro.parallel.retry` -- :class:`RetryPolicy` (attempt budget,
  restart backoff, per-round timeout, resolved from ``REPRO_RETRY_*``)
  and the self-healing counters.

Worker lifecycle
----------------

Pooled ``run_tasks`` calls are served by the process-wide persistent
:class:`~repro.parallel.service.WorkerService`: the pool starts lazily
on the first pooled call and is reused afterwards, so the ~20 ms pool
startup is paid once, not per call. Workers are bootstrapped once
(environment pinned to ``REPRO_WORKERS=1``); per-call state -- the
parent's runtime config plus the caller's initializer -- travels with
the tasks as a *generation* and is applied once per worker per call.
Long-lived state that should out-live one call still belongs on disk --
the deployable ``.npz`` and the ``.eval.json`` evaluation cache
(:mod:`repro.experiments.evalcache`): cold-started workers load the
``.npz``, lower and calibrate it once per process, and -- with a warm
evaluation cache -- skip whole test-set evaluations.

Merge semantics and determinism
-------------------------------

Merges always fold in submission/shard order (ascending sample index,
ascending payload index). Integer-valued quantities (spike counts,
dispatch counters, accuracy numerators) merge exactly; analog input
totals and dispatch counters are pure functions of the shard geometry;
and for a fixed geometry every worker count -- including the serial
fallback -- produces bit-identical merged results. ``tests/parallel/``
locks each of these guarantees down against the serial reference.
"""

from repro.parallel.config import (
    START_METHOD_ENV,
    WORKERS_ENV,
    resolve_workers,
    workers_override,
)
from repro.parallel.pool import effective_workers, run_tasks
from repro.parallel.retry import (
    RetryPolicy,
    resolve_retry_policy,
    retry_stats,
)
from repro.parallel.service import (
    WorkerService,
    persistent_pool_enabled,
    service_stats,
    shared_service,
    shutdown_worker_service,
)
from repro.parallel.shard import (
    DEFAULT_SHARD_SIZE,
    merge_outputs,
    shard_slices,
    sharded_forward,
)

__all__ = [
    "DEFAULT_SHARD_SIZE",
    "START_METHOD_ENV",
    "WORKERS_ENV",
    "RetryPolicy",
    "WorkerService",
    "effective_workers",
    "merge_outputs",
    "persistent_pool_enabled",
    "resolve_retry_policy",
    "resolve_workers",
    "retry_stats",
    "run_tasks",
    "service_stats",
    "shard_slices",
    "sharded_forward",
    "shared_service",
    "shutdown_worker_service",
    "workers_override",
]
