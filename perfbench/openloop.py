"""Open-loop load generator that times requests from their scheduled send.

Request ``i`` of a run is due at ``start + i / rate``. One thread sleeps
until each due time and submits, never waiting on results, so a server
that falls behind faces a growing queue rather than a slower client.
Latency runs from the due time, not from ``submit``: when the generator
itself is late, that delay counts against the request, and the lateness
is reported on its own as the lag. (``repro.serving.loadgen.LoadReport``
times from ``submit``, which hides a stalled generator.) :func:`saturate`
is the closed-loop counterpart that measures throughput at full batches.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from repro.errors import QueueFullError, RequestTimeoutError, ServerClosedError


@dataclass
class RateRun:
    """Accounting and timings of one fixed-rate run."""

    rate: float
    offered: int = 0
    completed: int = 0
    refused: int = 0
    timed_out: int = 0
    errors: int = 0
    mismatched: int = 0
    start: float = 0.0
    end: float = 0.0
    last_done: float = 0.0
    latencies_ms: List[float] = field(default_factory=list)
    lags_ms: List[float] = field(default_factory=list)
    batch_sizes: List[int] = field(default_factory=list)
    #: ``perf_counter`` time each answer was read (:func:`saturate` only).
    done_at: List[float] = field(default_factory=list)
    #: request id -> scheduled send time (``perf_counter`` seconds).
    dues: Dict[int, float] = field(default_factory=dict)

    def percentile_ms(self, q: float) -> float:
        if not self.latencies_ms:
            return float("inf")
        return float(np.percentile(self.latencies_ms, q))

    def lag_percentile_ms(self, q: float) -> float:
        return float(np.percentile(self.lags_ms, q)) if self.lags_ms else 0.0

    @property
    def achieved_rps(self) -> float:
        """Completed requests per second, first due time to last answer."""
        span = self.last_done - self.start
        return self.completed / span if span > 0 else 0.0

    def median_window_rps(self, answers: int) -> float:
        """Median over consecutive runs of ``answers`` answers of the rate
        each was read at: one stall of the host slows one window, not the
        figure. :attr:`achieved_rps` when there is less than one window."""
        times = self.done_at
        rates = [
            answers / (times[i + answers] - times[i])
            for i in range(0, len(times) - answers, answers)
            if times[i + answers] > times[i]
        ]
        return float(np.median(rates)) if rates else self.achieved_rps

    def summary(self) -> Dict[str, object]:
        return {
            "rate_rps": round(self.rate, 3),
            "offered": self.offered,
            "completed": self.completed,
            "refused": self.refused,
            "timed_out": self.timed_out,
            "errors": self.errors,
            "mismatched": self.mismatched,
            "achieved_rps": self.achieved_rps,
            "p50_ms": self.percentile_ms(50),
            "p99_ms": self.percentile_ms(99),
            "lag_p99_ms": self.lag_percentile_ms(99),
            "lag_max_ms": max(self.lags_ms) if self.lags_ms else 0.0,
            "mean_batch": float(np.mean(self.batch_sizes))
            if self.batch_sizes else 0.0,
        }


def offer(
    server,
    model: str,
    images: np.ndarray,
    reference: np.ndarray,
    rate: float,
    count: int,
    first_id: int,
    stop_on_refusal: bool = False,
) -> RateRun:
    """Offer ``count`` single-sample requests at ``rate`` per second.

    Request ``first_id + i`` sends sample ``(first_id + i) % len(images)``
    under that id as its stream index; its answer must be byte-equal to
    ``reference[sample]``, the offline forward of the same sample.
    ``stop_on_refusal`` ends the run at the first refused request.
    """
    run = RateRun(rate=rate)
    interval = 1.0 / rate
    sent = []
    run.start = time.perf_counter() + 0.002
    for i in range(count):
        due = run.start + i * interval
        delay = due - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        sent_at = time.perf_counter()
        request_id = first_id + i
        run.offered += 1
        run.dues[request_id] = due
        run.lags_ms.append((sent_at - due) * 1e3)
        try:
            pending = server.submit(
                model, images[request_id % len(images)],
                stream_index=request_id,
            )
        except (QueueFullError, ServerClosedError):
            run.refused += 1
            if stop_on_refusal:
                break
            continue
        sent.append((request_id, due, sent_at, pending))
    for request_id, due, sent_at, pending in sent:
        try:
            response = pending.result()
        except RequestTimeoutError:
            run.timed_out += 1
            continue
        except Exception:  # counted: any other failure is a failed request
            run.errors += 1
            continue
        run.completed += 1
        # response.latency_ms runs from admission, which happens inside
        # submit, right after sent_at.
        run.latencies_ms.append((sent_at - due) * 1e3 + response.latency_ms)
        run.last_done = max(run.last_done, sent_at + response.latency_ms / 1e3)
        run.batch_sizes.append(response.batch_size)
        sample = request_id % len(images)
        if response.logits.tobytes() != reference[sample].tobytes():
            run.mismatched += 1
    run.end = time.perf_counter()
    return run


def saturate(
    server,
    model: str,
    images: np.ndarray,
    reference: np.ndarray,
    in_flight: int,
    seconds: float,
    first_id: int,
) -> RateRun:
    """Keep ``in_flight`` requests outstanding for ``seconds``.

    A closed loop: each answer, oldest first, is replaced by a new
    request, so the batcher always finds full batches waiting. The rate
    answers are read at is the server's throughput at full batches.
    Answers are checked as in :func:`offer`.
    """
    run = RateRun(rate=0.0)
    outstanding = deque()
    next_id = first_id

    def send() -> None:
        nonlocal next_id
        run.offered += 1
        outstanding.append((next_id, server.submit(
            model, images[next_id % len(images)], stream_index=next_id,
        )))
        next_id += 1

    run.start = time.perf_counter()
    stop_at = run.start + seconds
    for _ in range(in_flight):
        send()
    while outstanding:
        request_id, pending = outstanding.popleft()
        try:
            response = pending.result()
        except Exception:  # counted: any failure is a failed request
            run.errors += 1
        else:
            run.completed += 1
            run.latencies_ms.append(response.latency_ms)
            run.batch_sizes.append(response.batch_size)
            sample = request_id % len(images)
            if response.logits.tobytes() != reference[sample].tobytes():
                run.mismatched += 1
        run.last_done = time.perf_counter()
        run.done_at.append(run.last_done)
        if run.last_done < stop_at:
            send()
    run.end = run.last_done
    return run
