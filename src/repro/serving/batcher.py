"""Per-model request queue + dynamic batcher.

One :class:`ModelQueue` serves one registered model: a bounded FIFO of
single-sample requests, a batcher thread that coalesces them under the
max-batch / max-wait policy, and the typed failure paths the serving
layer promises (reject, time out, drain -- never hang).

Bit-exactness
-------------

The serving path must return, for every sample, byte-identical logits
to an offline evaluation of that sample -- no matter which batch the
dynamic batcher happened to pack it into. Two properties deliver that:

* per-sample forward results are independent of the batch split -- the
  same invariant the runtime's fused-batch chunking and the sharded
  evaluation merge already rely on (locked down by ``tests/parallel/``
  and ``tests/serving/test_batching_invariance.py``);
* stochastic encoders draw from counter-based streams keyed on the
  *global sample index*, so encoding depends on the request, not on the
  batch. :class:`GatherStreamEncoder` extends the contiguous
  ``Encoder.for_samples`` offsetting to the arbitrary index sets a
  dynamic batch is made of: each request carries its ``stream_index``
  and the assembled batch encodes sample ``i`` from the stream of
  global sample ``stream_index[i]``, byte-identical to encoding it
  alone.

Deadlines
---------

A request's deadline is set at admission and travels with it: the
batcher drops already-expired requests at batch assembly (typed
:class:`~repro.errors.RequestTimeoutError`, no wasted compute), passes
the batch's tightest remaining deadline to the executor (which the
pooled execution path enforces as a wall-clock budget), and the
client-side :meth:`PendingRequest.result` wait is bounded by the same
deadline -- whichever side notices first wins the (single) state
transition, so a request resolves exactly once.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import (
    QueueFullError,
    RequestTimeoutError,
    ServerClosedError,
    ServingError,
    ShapeError,
)
from repro.serving.config import ServeConfig
from repro.snn.encoding import Encoder
from repro.tensor import Tensor


class GatherStreamEncoder(Encoder):
    """Encode a batch whose samples sit at arbitrary global indices.

    ``Encoder.for_samples(offset)`` positions a *contiguous* window in
    the stream; a dynamically assembled batch is generally not
    contiguous. This wrapper carries one explicit stream index per
    sample: sample ``i`` is encoded exactly as global sample
    ``indices[i]`` would be -- byte-identical to encoding it alone or
    inside any other batch, which is the serving bit-exactness
    invariant.

    Index-independent encoders (direct, TTFS: ``for_samples`` returns
    ``self``) delegate wholesale; contiguous index runs take the
    vectorised ``for_samples(first)`` path; only genuinely scattered
    batches pay the per-sample encode (counter-stream draws make the
    two byte-identical by construction).
    """

    def __init__(self, base: Encoder, indices: Sequence[int]) -> None:
        self.base = base
        self.indices = [int(index) for index in indices]
        if any(index < 0 for index in self.indices):
            raise ServingError(
                f"stream indices must be >= 0, got {self.indices}"
            )
        self.analog_input = base.analog_input
        self.time_invariant = base.time_invariant
        self.deterministic = base.deterministic
        self.byte_frames = base.byte_frames
        self.name = f"gather[{base.name}]"

    def _runs(self, n: int) -> List[Tuple[Encoder, int, int]]:
        """``(encoder, lo, hi)``: the base encoder positioned for each
        sample range ``[lo, hi)`` of an ``n``-sample batch."""
        if n > len(self.indices):
            raise ShapeError(
                f"gather encoder carries {len(self.indices)} stream "
                f"indices but was asked to encode {n} samples"
            )
        if n == 0 or self.base.for_samples(1) is self.base:
            # Index-independent stream: positioning is a no-op.
            return [(self.base, 0, n)]
        # A shard may consume a prefix of the window (sharded_forward
        # positions with for_samples(start) then encodes `stop - start`
        # samples), so only the first n indices apply here.
        window = self.indices[:n]
        first = window[0]
        if all(index == first + i for i, index in enumerate(window)):
            return [(self.base.for_samples(first), 0, n)]
        return [
            (self.base.for_samples(index), i, i + 1)
            for i, index in enumerate(window)
        ]

    def encode(self, images: np.ndarray, t: int) -> Tensor:
        runs = self._runs(images.shape[0])
        if len(runs) == 1:
            return runs[0][0].encode(images, t)
        parts = [encoder.encode(images[lo:hi], t).data for encoder, lo, hi in runs]
        return Tensor(np.concatenate(parts, axis=0))

    def encode_into(self, images: np.ndarray, t: int, out: np.ndarray) -> None:
        for encoder, lo, hi in self._runs(images.shape[0]):
            encoder.encode_into(images[lo:hi], t, out[lo:hi])

    def reset(self) -> None:
        self.base.reset()

    def for_samples(self, offset: int) -> "GatherStreamEncoder":
        # Sharding a gathered batch slices the index list: shard sample
        # 0 at shard offset `offset` is global sample indices[offset].
        if offset == 0:
            return self
        return GatherStreamEncoder(self.base, self.indices[offset:])

    def stream_signature(self) -> str:
        # Same stream as the base encoder; the indices position samples
        # within it, they do not change which stream it is.
        return self.base.stream_signature()


@dataclass
class InferenceResponse:
    """One served inference result.

    ``logits`` is the sample's own contiguous row -- byte-comparable to
    an offline evaluation of the same sample. ``batch_size`` records how
    many requests rode the batch that produced it (observability for
    the amortization the batcher exists to win)."""

    request_id: int
    model: str
    logits: np.ndarray
    prediction: int
    latency_ms: float
    queue_ms: float
    batch_size: int


# Request lifecycle: exactly one transition out of PENDING ever wins.
_PENDING, _DONE, _FAILED = 0, 1, 2


class _Request:
    """Internal request record; state transitions are single-shot."""

    __slots__ = (
        "request_id", "image", "stream_index", "admitted", "deadline",
        "_state", "_response", "_error", "_event", "_lock",
    )

    def __init__(
        self,
        request_id: int,
        image: np.ndarray,
        stream_index: int,
        admitted: float,
        deadline: Optional[float],
    ) -> None:
        self.request_id = request_id
        self.image = image
        self.stream_index = stream_index
        self.admitted = admitted
        self.deadline = deadline
        self._state = _PENDING
        self._response: Optional[InferenceResponse] = None
        self._error: Optional[BaseException] = None
        self._event = threading.Event()
        self._lock = threading.Lock()

    def complete(self, response: InferenceResponse) -> bool:
        with self._lock:
            if self._state != _PENDING:
                return False
            self._state = _DONE
            self._response = response
        self._event.set()
        return True

    def fail(self, error: BaseException) -> bool:
        with self._lock:
            if self._state != _PENDING:
                return False
            self._state = _FAILED
            self._error = error
        self._event.set()
        return True


class PendingRequest:
    """Client handle for one submitted request (a minimal future).

    :meth:`result` blocks until the request resolves -- to a response,
    or to one of the serving layer's typed errors. The wait itself is
    deadline-bounded: a request with a deadline can never park its
    caller forever, even if the server stalls."""

    def __init__(self, queue: "ModelQueue", request: _Request) -> None:
        self._queue = queue
        self._request = request

    @property
    def request_id(self) -> int:
        return self._request.request_id

    @property
    def done(self) -> bool:
        return self._request._event.is_set()

    def result(self, timeout: Optional[float] = None) -> InferenceResponse:
        """The response, blocking until resolution.

        ``timeout`` (seconds) bounds this wait explicitly; without it,
        the wait runs to the request's deadline (or indefinitely for
        deadline-free requests). A deadline that expires here fails the
        request -- a response the server produces later is discarded,
        matching what the server-side expiry would have done.
        """
        request = self._request
        if timeout is not None:
            wait = timeout
        elif request.deadline is not None:
            wait = max(0.0, request.deadline - time.monotonic())
        else:
            wait = None
        if not request._event.wait(wait):
            now = time.monotonic()
            if request.deadline is not None and now >= request.deadline:
                if request.fail(
                    RequestTimeoutError(
                        f"request {request.request_id} missed its "
                        f"deadline after "
                        f"{(now - request.admitted) * 1e3:.1f} ms"
                    )
                ):
                    self._queue._count_timeout()
            else:
                # An explicit wait bound expired before the request's
                # own deadline: surface it without resolving the
                # request -- the caller may wait again.
                raise RequestTimeoutError(
                    f"wait for request {request.request_id} exceeded "
                    f"{timeout:.3f}s (request still pending)"
                )
            request._event.wait()
        if request._state == _DONE:
            return request._response
        raise request._error


@dataclass
class EndpointStats:
    """Lifetime counters of one model queue (all guarded by the queue
    lock; read via :meth:`ModelQueue.stats_snapshot`)."""

    submitted: int = 0
    accepted: int = 0
    rejected_full: int = 0
    rejected_closed: int = 0
    completed: int = 0
    timed_out: int = 0
    failed: int = 0
    batches: int = 0
    batched_samples: int = 0
    max_batch: int = 0
    queue_peak: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "submitted": self.submitted,
            "accepted": self.accepted,
            "rejected_full": self.rejected_full,
            "rejected_closed": self.rejected_closed,
            "completed": self.completed,
            "timed_out": self.timed_out,
            "failed": self.failed,
            "batches": self.batches,
            "batched_samples": self.batched_samples,
            "max_batch": self.max_batch,
            "queue_peak": self.queue_peak,
        }


class ModelQueue:
    """Bounded request queue + batcher thread for one registered model.

    ``executor(images, stream_indices, timeout_s) -> logits`` runs one
    assembled batch; the server wires in the pooled default, tests
    inject fault executors. The batcher thread starts lazily with the
    first admission and exits when the queue closes and empties.
    """

    def __init__(
        self,
        name: str,
        config: ServeConfig,
        executor: Callable[[np.ndarray, List[int], Optional[float]], np.ndarray],
        sample_shape: Sequence[int],
    ) -> None:
        self.name = name
        self.config = config
        self._executor = executor
        self._sample_shape = tuple(sample_shape)
        self._queue: deque = deque()
        self._cond = threading.Condition()
        self._closing = False
        self._thread: Optional[threading.Thread] = None
        self._next_id = 0
        self.stats = EndpointStats()

    # -- admission ------------------------------------------------------
    def submit(
        self,
        image: np.ndarray,
        stream_index: int = 0,
        timeout_ms: Optional[float] = None,
    ) -> PendingRequest:
        """Admit one single-sample request (or reject it, typed).

        ``timeout_ms`` overrides the configured default deadline for
        this request (0 disables it). Raises
        :class:`~repro.errors.ServerClosedError` after close/drain and
        :class:`~repro.errors.QueueFullError` when the bounded queue is
        at depth -- the explicit backpressure signal.
        """
        image = np.ascontiguousarray(image, dtype=np.float32)
        if image.shape != self._sample_shape:
            raise ShapeError(
                f"model {self.name!r} serves {self._sample_shape} "
                f"samples, got {image.shape}"
            )
        if stream_index < 0:
            raise ServingError(
                f"stream_index must be >= 0, got {stream_index}"
            )
        effective_ms = (
            self.config.timeout_ms if timeout_ms is None else timeout_ms
        )
        if effective_ms < 0:
            raise ServingError(
                f"timeout_ms must be >= 0, got {effective_ms}"
            )
        now = time.monotonic()
        deadline = None if effective_ms == 0 else now + effective_ms / 1e3
        with self._cond:
            self.stats.submitted += 1
            if self._closing:
                self.stats.rejected_closed += 1
                raise ServerClosedError(
                    f"model queue {self.name!r} is draining; request "
                    "rejected"
                )
            if len(self._queue) >= self.config.queue_depth:
                self.stats.rejected_full += 1
                raise QueueFullError(
                    f"model queue {self.name!r} is at depth "
                    f"{self.config.queue_depth}; request rejected "
                    "(shed load or retry later)"
                )
            request = _Request(
                self._next_id, image, int(stream_index), now, deadline
            )
            self._next_id += 1
            self._queue.append(request)
            self.stats.accepted += 1
            self.stats.queue_peak = max(
                self.stats.queue_peak, len(self._queue)
            )
            if self._thread is None:
                self._thread = threading.Thread(
                    target=self._loop,
                    name=f"repro-serve-{self.name}",
                    daemon=True,
                )
                self._thread.start()
            self._cond.notify_all()
        return PendingRequest(self, request)

    def _count_timeout(self) -> None:
        with self._cond:
            self.stats.timed_out += 1

    @property
    def depth(self) -> int:
        with self._cond:
            return len(self._queue)

    # -- the batcher thread ---------------------------------------------
    def _next_batch(self) -> Optional[List[_Request]]:
        with self._cond:
            while not self._queue and not self._closing:
                self._cond.wait()
            if not self._queue:
                return None  # closing, and fully drained
            window_end = (
                self._queue[0].admitted + self.config.max_wait_ms / 1e3
            )
            while (
                len(self._queue) < self.config.max_batch
                and not self._closing
            ):
                remaining = window_end - time.monotonic()
                if remaining <= 0:
                    break
                self._cond.wait(remaining)
            batch = []
            while self._queue and len(batch) < self.config.max_batch:
                batch.append(self._queue.popleft())
            return batch

    def _loop(self) -> None:
        while True:
            batch = self._next_batch()
            if batch is None:
                return
            self._execute(batch)

    def _execute(self, batch: List[_Request]) -> None:
        now = time.monotonic()
        live: List[_Request] = []
        expired = 0
        for request in batch:
            if request.deadline is not None and now >= request.deadline:
                # Deadline propagation, first half: never spend batch
                # compute on a request whose caller already gave up.
                if request.fail(
                    RequestTimeoutError(
                        f"request {request.request_id} expired in the "
                        f"queue after "
                        f"{(now - request.admitted) * 1e3:.1f} ms"
                    )
                ):
                    expired += 1
            else:
                live.append(request)
        if expired:
            with self._cond:
                self.stats.timed_out += expired
        if not live:
            return
        images = np.stack([request.image for request in live])
        indices = [request.stream_index for request in live]
        # Deadline propagation, second half: the batch may spend at most
        # the tightest member's remaining budget in the execution path
        # (enforced as a typed wall-clock bound by the pooled executor).
        deadlines = [r.deadline for r in live if r.deadline is not None]
        timeout_s = (
            max(min(deadlines) - now, 0.005) if deadlines else None
        )
        try:
            logits = np.asarray(self._executor(images, indices, timeout_s))
        except BaseException as error:  # typed errors pass through as-is  # repro: lint-ok[E101] containment seam: every waiter is failed with the original (typed) error
            failed = sum(1 for r in live if r.fail(error))
            with self._cond:
                self.stats.failed += failed
                self.stats.batches += 1
                self.stats.batched_samples += len(live)
                self.stats.max_batch = max(self.stats.max_batch, len(live))
            return
        if logits.ndim != 2 or logits.shape[0] != len(live):
            error = ServingError(
                f"executor returned logits of shape {logits.shape} for "
                f"a {len(live)}-sample batch"
            )
            failed = sum(1 for r in live if r.fail(error))
            with self._cond:
                self.stats.failed += failed
            return
        done = time.monotonic()
        completed = 0
        for i, request in enumerate(live):
            response = InferenceResponse(
                request_id=request.request_id,
                model=self.name,
                logits=np.ascontiguousarray(logits[i]),
                prediction=int(np.argmax(logits[i])),
                latency_ms=(done - request.admitted) * 1e3,
                queue_ms=(now - request.admitted) * 1e3,
                batch_size=len(live),
            )
            if request.complete(response):
                completed += 1
        with self._cond:
            self.stats.completed += completed
            self.stats.batches += 1
            self.stats.batched_samples += len(live)
            self.stats.max_batch = max(self.stats.max_batch, len(live))

    # -- shutdown -------------------------------------------------------
    def drain(self, timeout_s: Optional[float] = None) -> bool:
        """Stop admission, then wait for queued + in-flight work.

        Returns ``True`` when everything resolved within ``timeout_s``
        (default: the configured ``drain_ms``); ``False`` leaves the
        remaining work running -- call :meth:`close` to fail it.
        """
        if timeout_s is None:
            timeout_s = self.config.drain_ms / 1e3
        with self._cond:
            self._closing = True
            self._cond.notify_all()
            thread = self._thread
        if thread is not None:
            thread.join(timeout_s)
            return not thread.is_alive()
        return True

    def close(self) -> None:
        """Fail everything still queued and let the thread exit.

        Queued requests resolve with
        :class:`~repro.errors.ServerClosedError` -- a stopped server
        never leaves a caller blocked on a request it will not run."""
        with self._cond:
            self._closing = True
            abandoned = list(self._queue)
            self._queue.clear()
            self._cond.notify_all()
        closed = 0
        for request in abandoned:
            if request.fail(
                ServerClosedError(
                    f"model queue {self.name!r} shut down before "
                    f"request {request.request_id} ran"
                )
            ):
                closed += 1
        with self._cond:
            self.stats.rejected_closed += closed
        thread = self._thread
        if thread is not None:
            thread.join(self.config.drain_ms / 1e3)

    def stats_snapshot(self) -> Dict[str, int]:
        with self._cond:
            return self.stats.as_dict()
