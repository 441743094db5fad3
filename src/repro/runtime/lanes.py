"""Sample lanes: one forward's batch split over the cores.

The inference engine (:mod:`repro.runtime.engine`) splits a large
batch's sample axis into contiguous lanes, one per worker
(``resolve_workers()``, i.e. ``REPRO_WORKERS`` or the core count), and
runs each layer's kernels, LIF scan, spike counts and OR-pooling on
every lane at once: lane 0 on the calling thread, the others on a small
thread pool. Every routing decision is still made once, on whole-batch
numbers, before the lanes start, and each lane executes the same
decisions on its samples -- so the lanes' results are byte-identical to
one lane's (see the engine docs for why every kernel allows this).

While lanes run, the BLAS library is held at one thread
(:func:`repro.runtime.blas.single_threaded`): the lanes already occupy
the cores. Without control over the BLAS thread count the engine runs
one lane.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, List, Optional, Tuple, TypeVar

from repro.runtime import blas

#: Fewest samples a lane is given. Below it the per-call fixed costs
#: (im2col setup, scatter construction, thread handoff) eat what the
#: second core gains: a batch of 8 ran no faster in two lanes than in
#: one.
MIN_LANE_SAMPLES = 8

_Result = TypeVar("_Result")

_POOL_LOCK = threading.Lock()  # repro: lint-ok[P102] per-process lock; replaced in a forked child
# Lane threads beyond the caller's; threads do not survive fork, so a
# forked child drops the pool and builds its own on first use.
_POOL: Optional[ThreadPoolExecutor] = None  # repro: lint-ok[P102] per-process thread pool; dropped in a forked child
_POOL_SIZE = 0  # repro: lint-ok[P102] size of the per-process pool above; reset with it


def lane_count(samples: int) -> int:
    """How many lanes a ``samples``-sized batch runs in:
    ``min(resolve_workers(), samples // MIN_LANE_SAMPLES)``, at least
    one, and one when the BLAS thread count cannot be controlled."""
    # Imported here: repro.parallel imports the runtime.
    from repro.parallel.config import resolve_workers

    if not blas.available():
        return 1
    return max(1, min(resolve_workers(), samples // MIN_LANE_SAMPLES))


def lane_bounds(samples: int, lanes: int) -> List[Tuple[int, int]]:
    """``lanes`` contiguous ``[lo, hi)`` sample ranges covering the
    batch, sizes differing by at most one."""
    edges = [samples * i // lanes for i in range(lanes + 1)]
    return list(zip(edges[:-1], edges[1:]))


def _pool(threads: int) -> ThreadPoolExecutor:
    global _POOL, _POOL_SIZE
    with _POOL_LOCK:
        if _POOL is None or _POOL_SIZE < threads:
            if _POOL is not None:
                _POOL.shutdown(wait=False)
            _POOL = ThreadPoolExecutor(
                max_workers=threads, thread_name_prefix="repro-lane"
            )
            _POOL_SIZE = threads
        return _POOL


def run_lanes(
    work: Callable[[int], _Result], lanes: int
) -> List[_Result]:
    """``[work(0), ..., work(lanes - 1)]``, run concurrently with the
    BLAS library on one thread: lane 0 on the calling thread, the rest
    on the lane pool. Every lane finishes before an exception (the
    lowest lane's) propagates."""
    if lanes == 1:
        return [work(0)]
    results: List[_Result] = []
    error: Optional[BaseException] = None
    with blas.single_threaded():
        futures = [_pool(lanes - 1).submit(work, i) for i in range(1, lanes)]
        try:
            results.append(work(0))
        except BaseException as exc:  # re-raised below, once every lane stopped
            error = exc
        for future in futures:
            try:
                results.append(future.result())
            except BaseException as exc:  # re-raised below, once every lane stopped
                error = error if error is not None else exc
    if error is not None:
        raise error
    return results


def _reset_after_fork() -> None:
    global _POOL, _POOL_LOCK, _POOL_SIZE
    _POOL = None
    _POOL_SIZE = 0
    _POOL_LOCK = threading.Lock()


os.register_at_fork(after_in_child=_reset_after_fork)
