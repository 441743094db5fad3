"""Deterministic process-pool execution of independent cells.

:func:`run_tasks` is the one primitive every parallel entry point builds
on: it maps a *module-level* function over a payload list and returns
the results **in payload order**, regardless of which worker finished
first. With a resolved worker count of 1 (or a single payload) it runs
the same function inline in the calling process -- the serial fallback
that every equivalence test compares against.

Worker lifecycle
----------------

Pooled calls are served by the process-wide persistent
:class:`~repro.parallel.service.WorkerService`: the pool starts once,
lazily, and is reused across calls, with per-call state shipped as a
versioned *generation* (see :mod:`repro.parallel.service`). Each worker
observes the same state:

* ``REPRO_WORKERS=1`` in its environment, so cells that themselves call
  parallel entry points degrade to the serial fallback instead of
  nesting pools;
* the parent's exact :class:`~repro.runtime.config.RuntimeConfig`, so a
  scoped ``runtime_overrides(...)`` in the parent governs the children
  under every start method;
* an optional caller initializer (e.g. the shard worker's model/image
  state), which runs once per worker per call -- per-process caches
  (plan geometry, BLAS-fold calibration verdicts) therefore warm up
  once and are reused across every cell the worker executes.

Exceptions raised by a cell propagate to the caller exactly as they
would from the inline loop.

Fault containment
-----------------

``multiprocessing.Pool`` has a well-known failure mode: a worker that
dies abruptly (OOM kill, segfault, ``SIGKILL``) takes its in-flight
tasks with it, the pool silently respawns a replacement, and
``Pool.map`` waits forever for results that will never arrive. Every
pooled wait in this package therefore goes through
:func:`guarded_map_wait`, which polls worker liveness alongside the
result: an abnormal worker exit raises a typed
:class:`~repro.errors.WorkerCrashError` instead of hanging, and an
optional wall-clock ``timeout`` raises
:class:`~repro.errors.WorkerTimeoutError` -- the guarantees the online
serving layer (and any other long-lived caller) builds on.
"""

from __future__ import annotations

import time
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

from repro.errors import WorkerCrashError, WorkerTimeoutError
from repro.parallel.config import resolve_workers

#: How often the guarded wait re-checks worker liveness. Coarse enough
#: to cost nothing against multi-millisecond cells, fine enough that a
#: crashed worker surfaces as a typed error within ~a poll interval.
_LIVENESS_POLL_S = 0.05


def _pool_members(pool) -> List:
    """The pool's current worker processes (CPython keeps them in
    ``_pool``; an empty list degrades the liveness check to a plain
    wait, never to a false crash report)."""
    return list(getattr(pool, "_pool", None) or [])


def guarded_map_wait(
    pool,
    async_result,
    timeout: Optional[float] = None,
) -> List:
    """Wait on a ``map_async`` result without trusting worker liveness.

    Polls the result at :data:`_LIVENESS_POLL_S` granularity and checks
    the pool's worker processes in between:

    * a worker with a nonzero exit code, or a worker *replaced* by the
      pool's maintenance thread (the pid set changed -- the dead
      process may already have been reaped), means in-flight tasks may
      be lost and ``Pool.map`` would wait forever; raise
      :class:`WorkerCrashError` instead.
    * a caller-supplied ``timeout`` (seconds, wall clock for the whole
      mapped call) raises :class:`WorkerTimeoutError` when exceeded.

    A cell that merely *raises* still propagates its own exception from
    ``async_result.get()``, exactly like ``Pool.map``. Callers own the
    pool teardown after a crash/timeout (terminate, not close/join --
    joining a pool with lost tasks can itself hang).
    """
    initial_pids = {p.pid for p in _pool_members(pool)}
    deadline = None if timeout is None else time.monotonic() + timeout
    while True:
        async_result.wait(_LIVENESS_POLL_S)
        if async_result.ready():
            return async_result.get()
        members = _pool_members(pool)
        crashed = any(
            p.exitcode is not None and p.exitcode != 0 for p in members
        )
        replaced = (
            initial_pids and {p.pid for p in members} != initial_pids
        )
        if crashed or replaced:
            raise WorkerCrashError(
                "a pool worker process died with tasks in flight "
                "(abnormal exit; its tasks are lost). The pool is torn "
                "down; retry the call to run on a fresh pool."
            )
        if deadline is not None and time.monotonic() > deadline:
            raise WorkerTimeoutError(
                f"pooled call exceeded its {timeout:.3f}s budget; "
                "the pool is torn down"
            )


def gather_indexed(
    pool,
    submit: Callable,
    indices: Sequence[int],
    window: int,
    timeout: Optional[float] = None,
) -> Tuple[dict, set, Optional[BaseException]]:
    """Guarded per-task gather: the partial-harvest twin of
    :func:`guarded_map_wait`.

    Submits ``submit(index)`` (which must return an ``AsyncResult``) for
    each index, at most ``window`` in flight at once -- the same
    concurrency cap chunked ``map_async`` submission provides -- and
    polls completions at :data:`_LIVENESS_POLL_S` granularity with the
    same worker-liveness and deadline checks as the mapped wait.

    Unlike the mapped wait, a crash or timeout does **not** discard what
    already finished: the return value is ``(done, dispatched, error)``
    where ``done`` maps index -> result for every task that completed,
    ``dispatched`` is the set of indices that were actually handed to
    the pool (tasks still queued behind the window were provably *not*
    involved in the failure), and ``error`` is ``None`` on full success
    or the typed :class:`~repro.errors.WorkerCrashError` /
    :class:`~repro.errors.WorkerTimeoutError` otherwise. This is the
    primitive the retry layer's "re-execute only the lost shards"
    guarantee is built on. A cell that merely *raises* still propagates
    its own exception, exactly like ``Pool.map``; callers own pool
    teardown after a crash/timeout.
    """
    done: dict = {}
    dispatched: set = set()
    queue = list(indices)
    inflight: dict = {}
    initial_pids = {p.pid for p in _pool_members(pool)}
    deadline = None if timeout is None else time.monotonic() + timeout
    while queue or inflight:
        while queue and len(inflight) < window:
            index = queue.pop(0)
            inflight[index] = submit(index)
            dispatched.add(index)
        next(iter(inflight.values())).wait(_LIVENESS_POLL_S)
        for index in list(inflight):
            if inflight[index].ready():
                done[index] = inflight[index].get()
                del inflight[index]
        if not inflight and not queue:
            break
        members = _pool_members(pool)
        crashed = any(
            p.exitcode is not None and p.exitcode != 0 for p in members
        )
        replaced = (
            initial_pids and {p.pid for p in members} != initial_pids
        )
        if crashed or replaced:
            return done, dispatched, WorkerCrashError(
                "a pool worker process died with tasks in flight "
                "(abnormal exit; its tasks are lost). The pool is torn "
                "down; completed tasks kept their results and only the "
                "lost ones need re-execution."
            )
        if deadline is not None and time.monotonic() > deadline:
            return done, dispatched, WorkerTimeoutError(
                f"pooled call exceeded its {timeout:.3f}s budget; "
                "the pool is torn down. Completed tasks kept their "
                "results."
            )
    return done, dispatched, None


def run_tasks(
    fn: Callable,
    payloads: Iterable,
    workers: Optional[int] = None,
    initializer: Optional[Callable] = None,
    initargs: Tuple = (),
    timeout: Optional[float] = None,
    retry=None,
) -> List:
    """``[fn(p) for p in payloads]``, fanned out over worker processes.

    ``fn`` (and ``initializer``) must be module-level callables so the
    pool can pickle them by reference; payloads and results must be
    picklable. Results are returned in payload order -- submission order
    is the only ordering the subsystem ever exposes, which is what makes
    pooled runs byte-comparable with serial ones.

    Under the serial fallback the initializer runs *in the calling
    process* (that is what makes the fallback exact), so initializers
    that stash state in module globals leave it there afterwards --
    callers who cannot tolerate that (or who need the worker-only
    ``REPRO_WORKERS=1`` pinning) should special-case the single-worker
    path themselves, as :func:`repro.parallel.shard.sharded_forward`
    does.

    ``timeout`` bounds the pooled call in wall-clock seconds
    (:class:`~repro.errors.WorkerTimeoutError` on expiry); a worker that
    dies mid-call raises :class:`~repro.errors.WorkerCrashError` instead
    of hanging (see :func:`guarded_map_wait`). The serial fallback runs
    inline and therefore ignores ``timeout`` -- there is no separate
    process to abandon.

    ``retry`` (a :class:`~repro.parallel.retry.RetryPolicy`, or ``None``
    for the historical fail-the-call behaviour) routes the pooled call
    through the self-healing executor instead: a crashed or timed-out
    shard is re-executed on a recovered pool (with deterministic
    backoff) rather than failing the whole call, a task that kills its
    worker on every allowed attempt is quarantined behind a typed
    :class:`~repro.errors.PoisonTaskError` carrying the surviving
    results, and ``REPRO_FAULT_PLAN`` faults are injected at the task
    seam (see :mod:`repro.parallel.retry` and :mod:`repro.faults`).
    ``timeout`` then bounds the *whole* call, retries and backoff
    included. The serial fallback is unchanged: inline, no retries, no
    injection.
    """
    payloads = list(payloads)
    count = min(resolve_workers(workers), max(1, len(payloads)))
    if count <= 1 or len(payloads) <= 1:
        if initializer is not None:
            initializer(*initargs)
        return [fn(payload) for payload in payloads]
    if retry is not None:
        from repro.parallel.retry import run_tasks_resilient

        return run_tasks_resilient(
            fn,
            payloads,
            count,
            initializer=initializer,
            initargs=initargs,
            timeout=timeout,
            policy=retry,
        )
    from repro.parallel.service import shared_service

    return shared_service().run(
        fn,
        payloads,
        workers=count,
        initializer=initializer,
        initargs=initargs,
        timeout=timeout,
    )


def effective_workers(
    workers: Optional[int] = None, payload_count: Optional[int] = None
) -> int:
    """The worker count :func:`run_tasks` would actually use."""
    count = resolve_workers(workers)
    if payload_count is not None:
        count = min(count, max(1, payload_count))
    return count
