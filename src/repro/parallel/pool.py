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
:func:`gather_indexed`, which submits tasks as individual jobs and polls
worker liveness while it waits: an abnormal worker exit ends the wait
with a typed :class:`~repro.errors.WorkerCrashError` instead of a hang,
and an optional wall-clock budget (per call, and per task from when it
reaches a worker) ends it with :class:`~repro.errors.WorkerTimeoutError`. Completed results survive
either way, which is what lets the service's retry loop re-execute only
the lost tasks (see :meth:`repro.parallel.service.WorkerService.run`).
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.errors import WorkerCrashError, WorkerTimeoutError
from repro.parallel.config import resolve_workers

#: How often the gather re-checks worker liveness. Coarse enough to cost
#: nothing against multi-millisecond cells, fine enough that a crashed
#: worker surfaces as a typed error within ~a poll interval. Completions
#: and budgets never wait for it.
_LIVENESS_POLL_S = 0.05


def _pool_members(pool) -> List:
    """The pool's current worker processes (CPython keeps them in
    ``_pool``; an empty list degrades the liveness check to a plain
    wait, never to a false crash report)."""
    return list(getattr(pool, "_pool", None) or [])


def gather_indexed(
    pool,
    cell: Callable,
    tasks: Dict[int, object],
    workers: int,
    window: Optional[int] = None,
    timeout: Optional[float] = None,
    task_timeout: Optional[float] = None,
) -> Tuple[dict, set, Optional[BaseException]]:
    """Run ``cell(tasks[index])`` for every index on ``pool``, guarded.

    Tasks are submitted individually in ``tasks`` order, at most
    ``window`` in flight at once (``None``: all at once, for a pool
    exactly ``workers`` wide; an explicit worker count on a wider pool
    passes ``window=workers`` so it stays a concurrency cap). The pool
    runs them first-in first-out on ``workers`` workers. Completions
    land through the ``apply_async`` callbacks and wake the caller only
    when it has something to do -- refill a freed slot, finish, or
    handle a raising cell -- so neither a refill nor the end of the
    gather waits for a poll. At most every :data:`_LIVENESS_POLL_S` the
    gather checks the pool's workers and its budgets:

    * a worker with a nonzero exit code, or a worker *replaced* by the
      pool's maintenance thread (the pid set changed -- the dead
      process may already have been reaped), means in-flight tasks are
      lost and would never complete: the wait ends with a
      :class:`~repro.errors.WorkerCrashError`;
    * ``timeout`` (seconds, wall clock for the whole gather) and
      ``task_timeout`` (seconds per task, counted from when the task
      reached a worker) end it with a
      :class:`~repro.errors.WorkerTimeoutError`.

    Returns ``(done, started, error)``: ``done`` maps index -> result
    for every task that completed (a crash or timeout does not discard
    them), ``started`` is the set of indices that reached a worker
    (tasks still queued behind busy workers were not involved in the
    failure), and ``error`` is ``None`` on full success or the typed
    error otherwise. A cell that *raises* stops further submission;
    once the tasks already in flight have drained, its exception
    propagates, exactly like ``Pool.map`` -- so no orphaned sibling
    delays the pool's next caller. (If the drain itself ends in a crash
    or timeout, that typed error is returned instead and the raising
    task counts as lost.) Callers own pool teardown after a crash or
    timeout (terminate, not close/join -- joining a pool with lost
    tasks can itself hang).
    """
    done: dict = {}
    raised: dict = {}
    submitted: List[int] = []
    waiting = deque(tasks)
    limit = len(tasks) if window is None else window
    wake = threading.Event()
    # Tasks presumed on a worker -> when their clock started, in
    # submission order (so the first entry is the oldest), and the
    # submitted tasks still queued behind them.
    running: Dict[int, float] = {}
    queued: deque = deque()
    started: set = set()
    initial_pids = {p.pid for p in _pool_members(pool)}
    deadline = None if timeout is None else time.monotonic() + timeout
    next_liveness_check = time.monotonic() + _LIVENESS_POLL_S

    def landed(index, ok, value) -> None:
        # Runs on the pool's result thread; dict stores are atomic.
        (done if ok else raised)[index] = value
        if waiting or not ok or len(done) + len(raised) >= len(submitted):
            wake.set()

    while True:
        wake.clear()
        while waiting and len(submitted) - len(done) - len(raised) < limit:
            index = waiting.popleft()
            pool.apply_async(
                cell,
                (tasks[index],),
                callback=lambda value, i=index: landed(i, True, value),
                error_callback=lambda exc, i=index: landed(i, False, exc),
            )
            submitted.append(index)
            queued.append(index)
        now = time.monotonic()
        for index in [i for i in running if i in done or i in raised]:
            del running[index]
        while queued and len(running) < workers:
            index = queued.popleft()
            started.add(index)
            if index not in done and index not in raised:
                running[index] = now
        if raised:
            waiting.clear()  # drain what is in flight, submit nothing more
        if not waiting and len(done) + len(raised) == len(submitted):
            if raised:
                raise raised[min(raised)]
            return done, started, None
        error: Optional[BaseException] = None
        if now >= next_liveness_check:
            next_liveness_check = now + _LIVENESS_POLL_S
            members = _pool_members(pool)
            crashed = any(
                p.exitcode is not None and p.exitcode != 0 for p in members
            )
            replaced = (
                initial_pids and {p.pid for p in members} != initial_pids
            )
            if crashed or replaced:
                error = WorkerCrashError(
                    "a pool worker process died with tasks in flight "
                    "(abnormal exit; its tasks are lost). The pool is torn "
                    "down; completed tasks kept their results and only the "
                    "lost ones need re-execution."
                )
        if error is None and deadline is not None and now > deadline:
            error = WorkerTimeoutError(
                f"pooled call exceeded its {timeout:.3f}s budget; "
                "the pool is torn down. Completed tasks kept their "
                "results."
            )
        if (
            error is None
            and task_timeout is not None
            and running
            and now - next(iter(running.values())) > task_timeout
        ):
            error = WorkerTimeoutError(
                f"a pooled task exceeded its {task_timeout:.3f}s "
                "per-attempt budget and is presumed wedged; the pool is "
                "torn down. Completed tasks kept their results."
            )
        if error is not None:
            # A copy: late callbacks may still land before the teardown.
            return dict(done), started, error
        wake_at = next_liveness_check
        if deadline is not None:
            wake_at = min(wake_at, deadline)
        if task_timeout is not None and running:
            wake_at = min(wake_at, next(iter(running.values())) + task_timeout)
        wake.wait(max(0.0, wake_at - time.monotonic()))


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

    Every pooled call is self-healing (see
    :meth:`repro.parallel.service.WorkerService.run`): a crashed or
    timed-out task is re-executed on a recovered pool rather than
    failing the call, a task that kills its worker on every allowed
    attempt is quarantined behind a typed
    :class:`~repro.errors.PoisonTaskError` carrying the surviving
    results, and ``REPRO_FAULT_PLAN`` faults are injected at the task
    seam (see :mod:`repro.faults`). ``retry`` is the
    :class:`~repro.parallel.retry.RetryPolicy`; ``None`` resolves one
    from ``REPRO_RETRY_*``. ``timeout`` bounds the *whole* pooled call
    in wall-clock seconds, retries and restart waits included
    (:class:`~repro.errors.WorkerTimeoutError` on expiry). The serial
    fallback runs inline: no retries, no injection, and no ``timeout``
    -- there is no separate process to abandon.
    """
    payloads = list(payloads)
    count = min(resolve_workers(workers), max(1, len(payloads)))
    if count <= 1 or len(payloads) <= 1:
        if initializer is not None:
            initializer(*initargs)
        return [fn(payload) for payload in payloads]
    from repro.parallel.service import shared_service

    return shared_service().run(
        fn,
        payloads,
        workers=count,
        initializer=initializer,
        initargs=initargs,
        timeout=timeout,
        policy=retry,
    )


def effective_workers(
    workers: Optional[int] = None, payload_count: Optional[int] = None
) -> int:
    """The worker count :func:`run_tasks` would actually use."""
    count = resolve_workers(workers)
    if payload_count is not None:
        count = min(count, max(1, payload_count))
    return count
