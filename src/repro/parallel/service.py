"""Persistent worker pools: one long-lived pool, many ``run_tasks`` calls.

:class:`WorkerService` is the one pooled executor: a process pool kept
alive across :func:`~repro.parallel.pool.run_tasks` calls -- lazily
started on first use, grown (restarted) when a call needs more workers,
and shut down cleanly through a context manager, an explicit
:meth:`WorkerService.shutdown`, or the ``atexit`` hook guarding the
process-wide shared instance -- so the ~20 ms pool startup and the
workers' warm per-process caches are paid once, not per call.

Generations
-----------

A classic pool binds its initializer at creation, but a persistent pool
serves calls whose per-call state (model, images, encoder snapshot,
parent runtime config) differs. The service therefore versions that
state: every :meth:`WorkerService.run` call mints a new *generation* --
the parent's :class:`~repro.runtime.config.RuntimeConfig` plus the
caller's ``(initializer, initargs)``, pickled once -- and every task
carries the generation id. A worker whose last-seen generation differs
re-applies the runtime config and re-runs the initializer before
executing the cell; a worker already on the right generation runs the
cell directly: state is applied once per worker per call, without a pool
startup per call. As a further warm-path shortcut, a call whose state
pickles byte-identically to the previous call's *reuses* the previous
generation: already-initialized workers then skip re-initialization and
keep what the initializer built (a loaded model, a warmed plan) -- the
model-shipping amortization repeated evaluations want. Initializers must
therefore establish state idempotently; cells must not mutate it in ways
a repeated identical call may not observe (every cell in this package
treats worker state as read-only).

Generation state travels with the tasks (the workers were started before
the call and inherit none of its memory): small blobs ride inline in
every task (cheap, and workers already on the right generation ignore
them), while a blob past :data:`_INLINE_BLOB_LIMIT` -- e.g. a whole
pickled model -- is spilled to a temporary file once per call and tasks
carry only its path: each worker reads the file at most once, so a large
model crosses the parent's pipe zero times and the disk once, instead of
once per task. Callers should still prefer artifact paths for long-lived
state (``sharded_forward(model_path=...)`` ships the ``.npz``
location, and :func:`repro.parallel.shard.sharded_forward` ships image
row slices of a memory-mapped temp file).

Pool sizing is grow-only: a call needing fewer workers than the running
pool reuses it (submissions are chunked so at most the requested count
run concurrently -- an explicit ``workers=2`` stays a concurrency cap
even on a wider pool), and only a call needing *more* workers restarts
it. Alternating small and large fan-outs therefore never thrashes pool
startup or the workers' warm per-process caches.

Start methods
-------------

The service defaults to ``fork`` on Linux and ``spawn`` elsewhere but
honours ``REPRO_START_METHOD`` (``fork`` | ``forkserver`` | ``spawn``).
``forkserver`` is the recommended override for long-lived services
embedded in threaded parents: workers fork from a clean server process
instead of from whatever state the parent has accumulated, at the cost
of one extra process. None of this affects results -- the service never
relies on inherited memory, so every start method computes the same
bytes (locked down by ``tests/parallel/``).

Self-healing
------------

:meth:`WorkerService.run` is the one pooled path, and its body is the
retry loop. Every cell in this package is a pure function of its
coordinates (the counter-stream invariant), so re-executing a lost task
on a fresh pool is byte-identical -- the only thing standing between one
transient worker death and a completed call is bookkeeping:

* tasks are submitted individually (:func:`repro.parallel.pool.gather_indexed`),
  so a crash or timeout keeps every completed result and re-executes
  **only** the lost tasks;
* every task is tagged with its ``(index, attempt)`` coordinate, the
  injection seam of the deterministic fault plans of
  :mod:`repro.faults` (``REPRO_FAULT_PLAN``);
* after the first failure, suspect tasks (those in flight when the pool
  died) are re-executed in *isolation*, one per round and always in a
  worker process, so crash attribution is exact: an innocent task that
  shared a pool with a poison one completes on its solo attempt;
* a task that takes down its worker on
  :attr:`~repro.parallel.retry.RetryPolicy.max_attempts` attempts is
  quarantined: the call raises a typed
  :class:`~repro.errors.PoisonTaskError` carrying the surviving results
  and the poison payload's fingerprint instead of retrying forever;
* a failed round always aborts the pool, and the one backoff is paid
  when the pool restarts: ``backoff_ms * 2**(consecutive aborts - 1)``,
  capped at ``backoff_max_ms`` (both from the call's
  :class:`~repro.parallel.retry.RetryPolicy`) and counted from the
  abort. The first successful round resets it. The wait is charged to
  the call's ``timeout`` like everything else, so a crash loop is damped
  without ever overrunning a caller's budget.
"""

from __future__ import annotations

import atexit
import hashlib
import multiprocessing as mp
import os
import pickle
import tempfile
import time
from dataclasses import asdict, dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.errors import PoisonTaskError, WorkerTimeoutError
from repro.faults.plan import active_fault_spec, cached_plan, in_worker_process
from repro.parallel.config import (
    WORKERS_ENV,
    _reset_override_for_worker,
    resolve_workers,
    service_start_method,
)
from repro.parallel.pool import gather_indexed
from repro.parallel.retry import RetryPolicy, resolve_retry_policy, retry_stats
from repro.runtime.config import RuntimeConfig, runtime_config, set_runtime_config


@dataclass
class ServiceStats:
    """Lifetime counters of one service (bench/observability surface)."""

    pool_starts: int = 0  # pools created (lazy start + grow restarts)
    runs: int = 0  # pooled rounds served (one per call unless it retried)
    warm_runs: int = 0  # rounds served by an already-running pool
    cells: int = 0  # tasks executed through the pool
    generations: int = 0  # distinct per-call state broadcasts
    generation_reuses: int = 0  # rounds whose state matched the previous one
    blob_spills: int = 0  # generations whose state went via a temp file
    aborts: int = 0  # pools torn down after a worker crash / call timeout
    restarts: int = 0  # pool starts that recovered from an abort (backoff-gated)

    def as_dict(self) -> Dict[str, int]:
        return asdict(self)


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------

#: Monotonic across the whole process (never reset on pool restarts), so
#: a fresh worker -- whose last-seen generation is None -- always
#: re-initializes, and a stale worker can never mistake old state for new.
_GENERATION_COUNTER = 0  # repro: lint-ok[P102] parent-only monotonic id; workers compare, never increment

_WORKER_GENERATION: Optional[int] = None  # repro: lint-ok[P102] per-worker last-applied generation; written only by that worker

#: Generation blobs up to this size ride inline in every task; larger
#: ones (pickled models, image snapshots) are spilled to a temp file the
#: workers each read once, keeping the per-task pipe traffic at payload
#: size.
_INLINE_BLOB_LIMIT = 64 * 1024


def _service_bootstrap() -> None:  # pragma: no cover - runs in workers
    """Once per worker process: pin the no-nested-pools environment."""
    os.environ[WORKERS_ENV] = "1"
    _reset_override_for_worker()
    from repro.faults import mark_worker_process

    mark_worker_process()


def _service_cell(task):
    """One task: sync to the task's generation, then run the cell.

    ``task`` is ``(generation, blob_ref, fault_spec, index, attempt, fn,
    payload)``. The generation blob -- inline bytes, or a temp-file path
    for large state -- re-applies the parent's runtime config and runs
    the caller's initializer exactly once per worker per generation. An
    initializer that raises leaves the worker's generation unchanged, so
    the next task retries it rather than running the cell against
    half-applied state. The fault plan (if any) then fires at the task's
    ``(index, attempt)`` coordinate, before and after the real cell --
    only in a marked worker process, where a ``crash`` kills the worker
    rather than the caller.
    """
    global _WORKER_GENERATION
    generation, (blob_kind, blob_value), spec, index, attempt, fn, payload = task
    if _WORKER_GENERATION != generation:
        if blob_kind == "file":
            with open(blob_value, "rb") as handle:
                blob = handle.read()
        else:
            blob = blob_value
        config_kwargs, initializer, initargs = pickle.loads(blob)
        set_runtime_config(RuntimeConfig(**config_kwargs))
        if initializer is not None:
            initializer(*initargs)
        _WORKER_GENERATION = generation
    plan = None
    if spec is not None and in_worker_process():
        plan = cached_plan(spec)
        plan.apply_before(index, attempt)
    result = fn(payload)
    if plan is not None:
        result = plan.apply_after(index, attempt, result)
    return result


def _payload_fingerprint(payload) -> str:
    blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    return hashlib.sha256(blob).hexdigest()


# ---------------------------------------------------------------------------
# The service
# ---------------------------------------------------------------------------


class WorkerService:
    """A lazily started, persistent, grow-only, self-healing process pool.

    Usable standalone (``with WorkerService(workers=4) as svc: svc.run(...)``)
    or -- the common path -- as the process-wide shared instance every
    :func:`repro.parallel.pool.run_tasks` call reuses. The pool starts
    on the first pooled ``run`` and survives until :meth:`shutdown`,
    context-manager exit, a call needing *more* workers (grow restart),
    an abort after a worker crash or timeout (restarted by the next
    round), or interpreter exit (the shared instance registers an
    ``atexit`` hook); calls needing fewer workers reuse the wider pool
    with their concurrency capped by the submission window.
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        start_method: Optional[str] = None,
    ) -> None:
        self._default_workers = workers
        self._start_method = start_method
        self._pool = None
        self._pool_workers = 0
        self._owner_pid = os.getpid()
        # (state digest, generation id, blob ref) of the last broadcast:
        # a run whose pickled state is byte-identical reuses it, so warm
        # workers skip re-initialization (and keep e.g. a loaded model).
        self._generation_cache: Optional[Tuple[bytes, int, Tuple]] = None
        self.stats = ServiceStats()
        # Post-abort restart damping (see the module docstring): doubled
        # per consecutive abort, reset by the first successful round.
        self._consecutive_aborts = 0
        self._last_abort: Optional[float] = None

    # -- lifecycle ------------------------------------------------------
    def _ensure_pool(
        self,
        count: int,
        policy: RetryPolicy,
        deadline: Optional[float],
    ):
        """A pool of at least ``count`` workers (grow-only resizing).

        A wider pool than requested is reused as-is -- the submission
        window keeps at most ``count`` of its workers busy -- because
        restarting would re-pay pool startup *and* discard every
        worker's warm per-process caches (plan geometry, BLAS-fold
        calibration), the exact costs the service exists to amortize.

        A start that follows an abort first waits out the restart
        backoff, counted from the abort and clamped to ``deadline``.
        """
        inherited = self._pool is not None and self._owner_pid != os.getpid()
        too_small = self._pool is not None and self._pool_workers < count
        if inherited or too_small:
            self.shutdown()
        if self._pool is None:
            if self._last_abort is not None:
                wait = (
                    self._last_abort
                    + policy.restart_wait_s(self._consecutive_aborts)
                    - time.monotonic()
                )
                if deadline is not None:
                    wait = min(wait, deadline - time.monotonic())
                if wait > 0:
                    time.sleep(wait)
                self.stats.restarts += 1
            method = self._start_method or service_start_method()
            context = mp.get_context(method)
            self._pool = context.Pool(
                processes=count, initializer=_service_bootstrap
            )
            self._pool_workers = count
            self._owner_pid = os.getpid()
            self.stats.pool_starts += 1
        return self._pool

    @property
    def running(self) -> bool:
        """Whether a pool is currently alive under this service."""
        return self._pool is not None

    @property
    def pool_workers(self) -> int:
        """Worker count of the running pool (0 when not running)."""
        return self._pool_workers if self._pool is not None else 0

    def _drop_generation_cache(self) -> None:
        cached, self._generation_cache = self._generation_cache, None
        if (
            cached is not None
            and cached[2][0] == "file"
            and self._owner_pid == os.getpid()  # never unlink a parent's file
            and os.path.exists(cached[2][1])
        ):
            os.remove(cached[2][1])

    def shutdown(self) -> None:
        """Stop the pool (if any). The next pooled run restarts lazily.

        A pool handle inherited through ``fork`` (``os.getpid()`` differs
        from the creating process) is dropped without closing -- the
        pipes belong to the parent, and closing them from a child would
        sabotage the parent's still-live pool; likewise a spilled
        generation file is only unlinked by the process that wrote it.
        """
        self._drop_generation_cache()
        pool, self._pool = self._pool, None
        self._pool_workers = 0
        if pool is not None and self._owner_pid == os.getpid():
            pool.close()
            pool.join()

    def _abort_pool(self) -> None:
        """Tear down a pool that lost a worker (or blew its budget).

        ``terminate`` rather than ``close``+``join``: joining a pool
        whose in-flight tasks died with their worker can itself hang on
        the unaccounted results. The next round restarts lazily, after
        the restart backoff -- that restart *is* the recovery path.
        """
        self._drop_generation_cache()
        pool, self._pool = self._pool, None
        self._pool_workers = 0
        if pool is not None and self._owner_pid == os.getpid():
            pool.terminate()
            pool.join()
        self.stats.aborts += 1
        self._consecutive_aborts += 1
        self._last_abort = time.monotonic()

    def __enter__(self) -> "WorkerService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    # -- execution ------------------------------------------------------
    def run(
        self,
        fn: Callable,
        payloads: Iterable,
        workers: Optional[int] = None,
        initializer: Optional[Callable] = None,
        initargs: Tuple = (),
        timeout: Optional[float] = None,
        policy: Optional[RetryPolicy] = None,
    ) -> List:
        """``[fn(p) for p in payloads]`` on the persistent pool, self-healing.

        Same contract as :func:`repro.parallel.pool.run_tasks` (results
        in payload order, module-level picklable callables, serial
        fallback at one resolved worker -- initializer then runs in the
        calling process), plus warm reuse: consecutive calls share the
        pool, and only the generation blob -- runtime config,
        initializer, initargs, pickled once per round and spilled to a
        temp file when large -- travels alongside the tasks; a round
        whose state is byte-identical to the previous one reuses its
        generation outright, so warm workers skip re-initialization.
        (The warm path still pays one pickle of the state to compute the
        reuse digest -- correctness over cleverness: the digest must
        cover exactly what workers would apply. Ship big state by
        artifact path, as ``sharded_forward(model_path=...)`` does with
        a content digest alongside, to keep that O(KB).) ``workers`` is
        a concurrency cap even when the running pool is wider.

        Recovery follows ``policy`` (``None`` resolves
        :func:`~repro.parallel.retry.resolve_retry_policy`; see the
        module docstring): crashed or timed-out tasks are re-executed,
        and a task that fails ``max_attempts`` times raises
        :class:`~repro.errors.PoisonTaskError` with the survivors.
        ``timeout`` (seconds) bounds the whole call, rounds and restart
        waits included; on expiry the typed error of the last failed
        round (:class:`~repro.errors.WorkerCrashError` or
        :class:`~repro.errors.WorkerTimeoutError`) propagates, or a
        :class:`~repro.errors.WorkerTimeoutError` when the budget ran
        out before a round could start. A cell that raises its own
        exception propagates it unchanged.
        """
        payloads = list(payloads)
        count = min(
            resolve_workers(
                workers if workers is not None else self._default_workers
            ),
            max(1, len(payloads)),
        )
        if count <= 1 or len(payloads) <= 1:
            if initializer is not None:
                initializer(*initargs)
            return [fn(payload) for payload in payloads]
        policy = policy if policy is not None else resolve_retry_policy()
        spec = active_fault_spec()
        if spec is not None:
            cached_plan(spec)  # fail fast on an unparsable plan, in the parent
        deadline = None if timeout is None else time.monotonic() + timeout
        stats = retry_stats()
        stats.calls += 1
        n = len(payloads)
        results: Dict[int, object] = {}
        attempts = [0] * n
        pending = list(range(n))
        quarantined: List[int] = []
        had_failure = False
        while True:
            exhausted = [
                index for index in pending
                if attempts[index] >= policy.max_attempts
            ]
            quarantined += exhausted
            stats.quarantined += len(exhausted)
            pending = [index for index in pending if index not in exhausted]
            if not pending:
                break
            suspects = [index for index in pending if attempts[index] > 0]
            if suspects:
                # Isolation: re-execute one suspect per round so a crash
                # is attributed to exactly the task that caused it.
                batch = suspects[:1]
                stats.retries += 1
            else:
                batch = pending
            tasks = {
                index: (spec, index, attempts[index], fn, payloads[index])
                for index in batch
            }
            done, started, error = self._run_round(
                tasks, count, initializer, initargs, policy, deadline
            )
            results.update(done)
            pending = [index for index in pending if index not in results]
            if error is None:
                continue
            had_failure = True
            # Only tasks that actually reached a worker are suspects;
            # tasks still queued behind busy workers keep their attempt.
            for index in batch:
                if index in started and index not in results:
                    attempts[index] += 1
            if deadline is not None and time.monotonic() >= deadline:
                raise error
        if quarantined:
            raise PoisonTaskError(
                f"{len(quarantined)} of {n} task(s) killed their worker on "
                f"{policy.max_attempts} consecutive attempt(s) and were "
                f"quarantined (indices {sorted(quarantined)}); "
                f"{n - len(quarantined)} surviving result(s) attached",
                results=[results.get(index) for index in range(n)],
                quarantined=quarantined,
                fingerprints={
                    index: _payload_fingerprint(payloads[index])
                    for index in quarantined
                },
                attempts={index: attempts[index] for index in quarantined},
            )
        if had_failure:
            stats.recovered_calls += 1
        return [results[index] for index in range(n)]

    def _run_round(
        self,
        tasks: Dict[int, Tuple],
        count: int,
        initializer: Optional[Callable],
        initargs: Tuple,
        policy: RetryPolicy,
        deadline: Optional[float],
    ) -> Tuple[Dict[int, object], set, Optional[BaseException]]:
        """One pooled round of :meth:`run`: indexed, partial-harvest.

        ``tasks`` maps index -> ``(fault spec, index, attempt, fn,
        payload)``. Returns ``(done, started, error)`` from
        :func:`repro.parallel.pool.gather_indexed`; a crash or timeout
        aborts the pool, a clean round resets the restart backoff.
        There is **no** serial fallback here, even for a single task: a
        suspect task must run in a worker process so that killing its
        worker cannot kill the caller. The round's budget is the rest of
        the call's (after any restart wait), and each task is further
        capped by ``policy.task_timeout_s`` from when it reaches a
        worker, so one wedged task cannot consume the whole call. On a
        pool exactly ``count`` wide every task is submitted at once; on
        a wider pool at most ``count`` are in flight.
        """
        generation, blob_ref = self._broadcast_generation(
            initializer, initargs, count, policy, deadline
        )
        remaining = None
        if deadline is not None:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise WorkerTimeoutError(
                    f"pooled call exhausted its budget with {len(tasks)} "
                    "task(s) still to run"
                )
        self.stats.cells += len(tasks)
        done, started, error = gather_indexed(
            self._pool,
            _service_cell,
            {
                index: (generation, blob_ref) + task
                for index, task in tasks.items()
            },
            workers=count,
            window=None if self._pool_workers == count else count,
            timeout=remaining,
            task_timeout=policy.task_timeout_s,
        )
        if error is not None:
            self._abort_pool()
        else:
            self._consecutive_aborts = 0
            self._last_abort = None
        return done, started, error

    def _broadcast_generation(
        self,
        initializer: Optional[Callable],
        initargs: Tuple,
        count: int,
        policy: RetryPolicy,
        deadline: Optional[float],
    ) -> Tuple[int, Tuple]:
        """Ensure a pool and mint (or reuse) the round's generation blob.

        Consecutive rounds (and calls) with byte-identical state share
        one generation, so a retry round reuses the warm generation the
        first round established. Updates run/warm-run/generation stats;
        the caller accounts cells.
        """
        blob = pickle.dumps(
            (asdict(runtime_config()), initializer, initargs),
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        digest = hashlib.sha256(blob).digest()
        starts_before = self.stats.pool_starts
        self._ensure_pool(count, policy, deadline)  # a grow restart clears the cache
        self.stats.runs += 1
        if self.stats.pool_starts == starts_before:
            self.stats.warm_runs += 1
        cached = self._generation_cache
        if cached is not None and cached[0] == digest:
            # Byte-identical state: reuse the broadcast, so workers
            # already on this generation skip re-initialization entirely
            # (the spill file, if any, still serves never-initialized
            # workers).
            _, generation, blob_ref = cached
            self.stats.generation_reuses += 1
        else:
            global _GENERATION_COUNTER
            _GENERATION_COUNTER += 1
            generation = _GENERATION_COUNTER
            self._drop_generation_cache()
            if len(blob) > _INLINE_BLOB_LIMIT:
                fd, spill_path = tempfile.mkstemp(suffix=".generation.blob")
                with os.fdopen(fd, "wb") as handle:
                    handle.write(blob)
                blob_ref = ("file", spill_path)
                self.stats.blob_spills += 1
            else:
                blob_ref = ("inline", blob)
            self._generation_cache = (digest, generation, blob_ref)
            self.stats.generations += 1
        return generation, blob_ref


# ---------------------------------------------------------------------------
# The shared instance run_tasks routes through
# ---------------------------------------------------------------------------

_SHARED: Optional[WorkerService] = None  # repro: lint-ok[P102] parent-only singleton; fork-inherited copies are detected by owner pid and discarded


def shared_service() -> WorkerService:
    """The process-wide service behind every pooled ``run_tasks`` call.

    Created on first use (with an ``atexit`` shutdown hook); a handle
    inherited by a forked child is replaced with the child's own fresh
    instance rather than reused, since pool pipes do not survive a fork
    usefully.
    """
    global _SHARED
    if _SHARED is None:
        _SHARED = WorkerService()
        atexit.register(shutdown_worker_service)
    elif _SHARED._owner_pid != os.getpid() and _SHARED._pool is not None:
        _SHARED = WorkerService()
    return _SHARED


def shutdown_worker_service() -> None:
    """Stop the shared pool (idempotent; the service restarts lazily)."""
    if _SHARED is not None:
        _SHARED.shutdown()


def persistent_pool_enabled() -> bool:
    """Always ``True``: the shared service is the only pooled executor.

    Kept because the benchmark harness records it in every run's
    environment (``perfbench/envinfo.py``), so the field keeps its name
    and value across records.
    """
    return True


def service_stats() -> Dict[str, int]:
    """Lifetime counters of the shared service (zeros before first use)."""
    if _SHARED is None:
        return ServiceStats().as_dict()
    return _SHARED.stats.as_dict()
