"""Batch sharding: split an image set into shards, merge the results.

:func:`sharded_forward` runs one :class:`DeployableNetwork` forward pass
over ``images`` split into contiguous shards, each shard evaluated by a
worker process (or inline under the serial fallback), and merges the
per-shard :class:`DeployableOutput` objects back into one. It is the
one pooled forward: the sharded simulator passes a ``reducer`` that
turns each block of a layer's input train into cycle sums in the shard.

Merge semantics (shard order is ascending sample index, always):

* ``logits`` / recorded spike trains -- concatenated along the sample
  axis in shard order; per-sample forward results are independent of the
  batch split (the same invariant the runtime's fused-batch chunking
  already relies on), so these are bit-identical to the unsharded pass.
* ``stats`` -- :meth:`SpikeStats.merge` folded left-to-right in shard
  order. Spike counts are integer-valued floats far below 2**53, so the
  merged totals equal the unsharded ones exactly.
* ``input_spike_totals`` -- accumulated in shard order. Binary layers
  are exact integers; the *analog* direct-coded input layer's total is a
  genuine float sum, whose value depends on the shard geometry (floating
  point addition is not associative) but never on the worker count.
* ``runtime_counters`` -- :meth:`LayerCounters.merge` in shard order.
  Counters tally per-(shard, timestep) dispatch decisions, so their
  totals scale with the shard count; like the analog totals they are a
  pure function of the shard geometry.
* ``reduced`` -- each layer's per-block ``reducer`` results, joined in
  shard order (``None`` when the forward ran without a reducer).

Determinism guarantees, in decreasing strength:

1. For a fixed shard geometry, results are bit-identical for *every*
   worker count (``REPRO_WORKERS=1`` serial fallback included): each
   shard is a pure function of (model, shard images, encoder + global
   sample offset), and the merge runs in shard order on the parent.
2. Every encoder -- direct, TTFS and counter-stream rate coding -- is a
   pure function of (images, global sample index, t), so logits, spike
   trains and ``SpikeStats`` are additionally bit-identical across
   *all* shard geometries, including the unsharded ``model.forward``.
   Each task carries its shard's global start index and the worker
   positions the encoder with ``encoder.for_samples(start)``, so sample
   ``i`` draws the stream of global sample ``start + i`` no matter how
   the batch was split.

Workers receive the model once per call, through the worker
initializer: either the live object (pickled without its lowered plan
and scratch buffers, for in-memory models) or -- preferably -- the
cached ``.npz`` path, which each worker loads. Either way a worker lowers
the model and calibrates its conv shapes itself, once per process.

Image payloads (:func:`plan_task_images` / :func:`resolve_task_images`):
the array is written once to a temp ``.npy`` and every task ships a
``('mmap', path, start, stop)`` row slice; workers memory-map the file
and copy out only their rows, so the per-call generation blob and the
task pipes stay small no matter how large the evaluation set is. When
the temp file cannot be written, each task carries its own shard array
instead.
"""

from __future__ import annotations

import os
import pickle
import tempfile
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ParallelError
from repro.parallel.config import resolve_workers
from repro.parallel.pool import run_tasks
from repro.runtime.config import LayerCounters
from repro.snn.metrics import SpikeStats

#: Default shard granularity -- matches the evaluation batch size the
#: serial harnesses have always used, so default-sharded evaluation is
#: bit-identical to the historical batch loop.
DEFAULT_SHARD_SIZE = 128


def shard_slices(
    total: int,
    shards: Optional[int] = None,
    shard_size: Optional[int] = None,
) -> List[slice]:
    """Deterministic contiguous split of ``range(total)``.

    Exactly one of ``shards`` (that many near-equal shards, the first
    ``total % shards`` one sample larger) or ``shard_size`` (fixed-size
    chunks, last one ragged) may be given; with neither, chunks of
    :data:`DEFAULT_SHARD_SIZE` are used. The split depends only on the
    arguments -- never on worker count or scheduling.
    """
    if total < 1:
        raise ParallelError(f"cannot shard an empty batch (total={total})")
    if shards is not None and shard_size is not None:
        raise ParallelError("pass either shards or shard_size, not both")
    if shards is not None:
        if shards < 1:
            raise ParallelError(f"shards must be >= 1, got {shards}")
        shards = min(shards, total)
        base, extra = divmod(total, shards)
        slices = []
        start = 0
        for index in range(shards):
            stop = start + base + (1 if index < extra else 0)
            slices.append(slice(start, stop))
            start = stop
        return slices
    if shard_size is None:
        shard_size = DEFAULT_SHARD_SIZE
    if shard_size < 1:
        raise ParallelError(f"shard_size must be >= 1, got {shard_size}")
    return [
        slice(start, min(start + shard_size, total))
        for start in range(0, total, shard_size)
    ]


def merge_outputs(parts: Sequence) -> "DeployableOutput":
    """Fold per-shard :class:`DeployableOutput` objects, in shard order."""
    from repro.quant.convert import DeployableOutput

    if not parts:
        raise ParallelError("no shard outputs to merge")
    logits = np.concatenate([part.logits for part in parts], axis=0)
    stats = SpikeStats()
    input_totals: Dict[str, float] = {}
    for part in parts:
        stats.merge(part.stats)
        for name, value in part.input_spike_totals.items():
            input_totals[name] = input_totals.get(name, 0.0) + value
    counters: Dict[str, LayerCounters] = {}
    for part in parts:
        for name, counter in part.runtime_counters.items():
            counters.setdefault(name, LayerCounters()).merge(counter)
    reduced = parts[0].reduced and {
        name: [block for part in parts for block in part.reduced[name]]
        for name in parts[0].reduced
    }
    trains = None
    stacked = None
    if parts[0].spike_trains_stacked is not None:
        # One merged stack per layer; the per-timestep list views it,
        # as on the unsharded path.
        stacked = {
            name: np.concatenate(
                [part.spike_trains_stacked[name] for part in parts], axis=1
            )
            for name in parts[0].spike_trains_stacked
        }
        trains = {name: list(train) for name, train in stacked.items()}
    return DeployableOutput(
        logits=logits,
        stats=stats,
        input_spike_totals=input_totals,
        spike_trains=trains,
        spike_trains_stacked=stacked,
        runtime_counters=counters,
        reduced=reduced,
    )


# ---------------------------------------------------------------------------
# Image payload planning (parent side) and resolution (worker side)
# ---------------------------------------------------------------------------

def _write_shard_file(images: np.ndarray) -> Optional[str]:
    """``images`` as a temp ``.npy`` for memory-mapped shard payloads.

    Returns ``None`` when the file cannot be created or written (no
    usable temp dir, disk full, ...) -- callers then fall back to inline
    per-task arrays, which is always correct, just heavier on the pipes.
    """
    try:
        fd, path = tempfile.mkstemp(prefix="repro-shard-", suffix=".npy")
        try:
            with os.fdopen(fd, "wb") as handle:
                np.save(handle, images)
        except BaseException:
            os.unlink(path)
            raise
        return path
    except OSError:
        return None


def plan_task_images(
    images: np.ndarray, slices: Sequence[slice]
) -> Tuple[List[object], Callable[[], None]]:
    """Decide how each shard's rows of ``images`` reach the workers.

    Returns ``(payloads, cleanup)``: ``payloads[i]`` is what shard
    ``i``'s task carries (an ``('mmap', path, start, stop)`` slice, or
    the shard's own array when the temp file cannot be written);
    ``cleanup`` must be called -- after the pooled call returns -- to
    remove the temp file (a no-op otherwise; already-mapped workers keep
    reading through their open mapping even after the unlink).
    """
    path = _write_shard_file(images)
    if path is None:
        return (
            [np.ascontiguousarray(images[piece]) for piece in slices],
            lambda: None,
        )

    def cleanup() -> None:
        try:
            os.unlink(path)
        except OSError:
            pass

    return (
        [("mmap", path, piece.start, piece.stop) for piece in slices],
        cleanup,
    )


_MMAP_CACHE: Dict[str, np.ndarray] = {}  # repro: lint-ok[P102] per-process read-only mmap handles keyed by path; contents identical everywhere


def resolve_task_images(payload: object) -> np.ndarray:
    """A task's image rows from whatever :func:`plan_task_images` shipped."""
    if isinstance(payload, np.ndarray):
        return payload
    _, path, start, stop = payload
    mapped = _MMAP_CACHE.get(path)
    if mapped is None:
        _MMAP_CACHE.clear()  # one eval file at a time; old paths are gone
        mapped = np.load(path, mmap_mode="r")
        _MMAP_CACHE[path] = mapped
    return np.array(mapped[start:stop])


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------

_WORKER_STATE: Optional[Dict] = None  # repro: lint-ok[P102] per-worker broadcast state; repopulated by the initializer in each process


def _materialize_model(payload: Tuple[str, object, Optional[str]]):
    # The digest member exists for the parent side: it makes the pickled
    # payload -- and therefore the persistent service's generation
    # identity -- track the *contents* behind a path, so replacing the
    # artifact at an unchanged path can never let warm workers keep
    # serving the old weights (see WorkerService's generation reuse).
    kind, value, _digest = payload
    if kind == "object":
        return value
    from repro.quant.convert import DeployableNetwork

    return DeployableNetwork.load(value)


def _init_shard_worker(
    model_payload: Tuple[str, object], encoder_blob: bytes
) -> None:
    global _WORKER_STATE
    _WORKER_STATE = {
        "model": _materialize_model(model_payload),
        "encoder_blob": encoder_blob,
    }


def _run_shard(task: Tuple[object, int, int, bool, Optional[Callable]]):
    """One shard: ``payload`` is whatever :func:`plan_task_images`
    shipped -- a memory-mapped row slice or the shard's own array.
    ``start`` is the shard's global sample offset: counter-stream
    encoders position themselves on it so the shard draws exactly the
    rows of the unsharded stream."""
    payload, start, timesteps, record, reducer = task
    state = _WORKER_STATE
    shard_images = resolve_task_images(payload)
    encoder = pickle.loads(state["encoder_blob"]).for_samples(start)
    return state["model"].forward(
        shard_images, timesteps, encoder, record=record, reducer=reducer
    )


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def sharded_forward(
    model,
    images: np.ndarray,
    timesteps: int,
    encoder=None,
    record: bool = False,
    shards: Optional[int] = None,
    shard_size: Optional[int] = None,
    workers: Optional[int] = None,
    model_path: Optional[str] = None,
    timeout: Optional[float] = None,
    retry=None,
    reducer: Optional[Callable] = None,
):
    """One merged forward pass over ``images``, sharded across workers.

    Args:
        model: the :class:`DeployableNetwork` to evaluate.
        images: (N, C, H, W) batch.
        timesteps: T.
        encoder: input encoder; shipped once and positioned per shard
            with ``for_samples(shard start)``, so counter-stream
            encoders are shard-geometry invariant (see the module
            docstring's determinism notes).
        record: keep per-layer spike trains (merged along the sample
            axis; costly across processes -- prefer ``record=False`` for
            dataset-scale evaluation).
        shards / shard_size: shard geometry, see :func:`shard_slices`.
        workers: worker count; ``None`` resolves via ``REPRO_WORKERS``.
        model_path: optional cached ``.npz`` artifact path; when given,
            workers load the model from disk instead of receiving a
            pickled copy.
        timeout: optional wall-clock budget (seconds) for the pooled
            call -- :class:`~repro.errors.WorkerTimeoutError` on expiry
            (see :func:`repro.parallel.pool.run_tasks`; the serial
            fallback runs inline and ignores it). This is how the
            serving layer propagates request deadlines into the
            execution path. The budget covers the whole call, recovery
            rounds and restart waits included.
        retry: a :class:`~repro.parallel.retry.RetryPolicy`; ``None``
            (the default) resolves one from ``REPRO_RETRY_*`` -- pooled
            shard evaluation, like every pooled call, is *self-healing*: a
            crashed or wedged shard is re-executed on a recovered pool,
            byte-identically (shards are pure functions of their
            coordinates), and only a task that kills its worker on
            every allowed attempt surfaces as a
            :class:`~repro.errors.PoisonTaskError` (carrying the
            surviving shard outputs). ``REPRO_RETRY_MAX_ATTEMPTS=1``
            restores single-shot semantics.
        reducer: passed to every shard's ``model.forward``; each
            layer's ``reduced`` results are joined in shard order. It
            rides in the tasks (so it must pickle), not the initializer,
            so the pooled generation stays (model, encoder).
    """
    from repro.snn.encoding import DirectEncoder

    images = np.asarray(images, dtype=np.float32)
    slices = shard_slices(len(images), shards=shards, shard_size=shard_size)
    encoder_blob = pickle.dumps(encoder if encoder is not None else DirectEncoder())
    count = min(resolve_workers(workers), len(slices))
    if count <= 1 or len(slices) <= 1:
        parts = []
        for piece in slices:
            shard_encoder = pickle.loads(encoder_blob).for_samples(piece.start)
            parts.append(
                model.forward(
                    images[piece], timesteps, shard_encoder,
                    record=record, reducer=reducer,
                )
            )
        return merge_outputs(parts)
    # The disk artifact spares every worker the whole pickled model;
    # the digest ties the generation to the weights behind it.
    payload = (
        ("path", model_path, model.weights_digest())
        if model_path is not None
        else ("object", model, None)
    )
    image_payloads, cleanup = plan_task_images(images, slices)
    tasks = [
        (image_payload, piece.start, timesteps, record, reducer)
        for image_payload, piece in zip(image_payloads, slices)
    ]
    try:
        parts = run_tasks(
            _run_shard,
            tasks,
            workers=count,
            initializer=_init_shard_worker,
            initargs=(payload, encoder_blob),
            timeout=timeout,
            retry=retry,
        )
    finally:
        cleanup()
    return merge_outputs(parts)
