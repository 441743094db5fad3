"""The benchmark's workloads, all over one seed-generated small VGG9.

Every workload builds the same untrained network (3x32x32 input,
``channel_scale=0.25``, population 500, theta=1.0, weights from
:data:`MODEL_SEED`), which gives the paper-typical >90% deep-layer
sparsity. Only the inputs (images, rate-coding streams) come from the
benchmark's ``--seed``.

A workload object has three methods:

* ``setup()`` -- everything up to and including the first checked
  result: model build, conversion, plan lowering, calibration and cost
  probes, reference outputs, warm-up, pool or server start. Returns
  ``True`` when that first result matched its reference.
* ``measure(seconds)`` -- the timed phase; returns a :class:`Measurement`.
  Every output produced in it is checked, outside the timed region.
* ``close()`` -- stops every thread and process the workload started.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from statistics import median
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from perfbench.openloop import offer, saturate
from repro.quant import FP32, INT4, convert
from repro.runtime import runtime_overrides
from repro.snn import build_vgg9
from repro.snn.neuron import LIFConfig

MODEL_SEED = 42
INPUT_SHAPE = (3, 32, 32)
CHANNEL_SCALE = 0.25
POPULATION = 500
THRESHOLD = 1.0

#: A tail is the slowest sample with at least this many samples above it.
TAIL_BEYOND = 10


def build_model(scheme):
    network = build_vgg9(
        num_classes=10,
        population=POPULATION,
        input_shape=INPUT_SHAPE,
        channel_scale=CHANNEL_SCALE,
        lif=LIFConfig(threshold=THRESHOLD),
        seed=MODEL_SEED,
    )
    network.eval()
    return convert(network, scheme)


def make_images(seed: int, count: int) -> np.ndarray:
    return np.random.default_rng(seed).random(
        (count,) + INPUT_SHAPE, dtype=np.float32
    )


def tail(samples: List[float]) -> Tuple[float, float]:
    """``(value, percentile)`` of the highest percentile that still has
    :data:`TAIL_BEYOND` samples above it (the minimum when there are
    fewer samples than that)."""
    ordered = sorted(samples)
    index = max(len(ordered) - TAIL_BEYOND - 1, 0)
    rank = 100.0 * index / (len(ordered) - 1) if len(ordered) > 1 else 0.0
    return ordered[index], rank


def counter_totals(counter_maps) -> Dict[str, int]:
    """Sum ``{layer: LayerCounters}`` maps into one field -> total dict."""
    totals: Dict[str, int] = {}
    for counters in counter_maps:
        for counter in (counters or {}).values():
            for key, value in counter.as_dict().items():
                totals[key] = totals.get(key, 0) + value
    return totals


def densities(stats) -> Dict[str, float]:
    """Per-layer output spike density (exact spike counts / neuron-steps)."""
    return {name: 1.0 - stats.sparsity(name) for name in stats.per_layer}


@dataclass
class Measurement:
    """What one timed phase produced.

    ``ops`` is the number of timed operations (calls, or requests at the
    fixed rate) that per-layer metrics are normalised by, and
    ``window`` the ``perf_counter`` interval they were made in.
    ``counters`` holds summed ``LayerCounters`` of the timed outputs
    when the workload sees them (``None`` otherwise).
    """

    attempted: int
    failed: int
    mismatched: int
    ops: int
    window: Tuple[float, float]
    images_per_s: float
    latency_p50_ms: float
    latency_tail_ms: float
    detail: Dict[str, object] = field(default_factory=dict)
    counters: Optional[Dict[str, int]] = None
    dues: Optional[Dict[int, float]] = None


class BatchWorkload:
    """A workload whose operation is one call over a fixed image batch.

    Subclasses set ``images_per_call`` and implement ``call()`` and
    ``check(output)``; ``counters_of(output)`` may expose the output's
    dispatch counters.
    """

    images_per_call = 0
    min_calls = TAIL_BEYOND + 1

    def counters_of(self, output):
        return None

    def measure(self, seconds: float) -> Measurement:
        samples: List[float] = []
        failed = mismatched = 0
        counter_maps = []
        start = time.perf_counter()
        deadline = start + seconds
        while time.perf_counter() < deadline or len(samples) < self.min_calls:
            began = time.perf_counter()
            try:
                output = self.call()
            except Exception:  # counted: a call that raises is a failed operation
                failed += 1
                samples.append(time.perf_counter() - began)
                continue
            samples.append(time.perf_counter() - began)
            if not self.check(output):
                failed += 1
                mismatched += 1
            counter_maps.append(self.counters_of(output))
        window = (start, time.perf_counter())
        p50 = median(samples)
        tail_s, rank = tail(samples)
        totals = (
            counter_totals(counter_maps)
            if counter_maps and all(m is not None for m in counter_maps)
            else None
        )
        return Measurement(
            attempted=len(samples),
            failed=failed,
            mismatched=mismatched,
            ops=len(samples),
            window=window,
            images_per_s=self.images_per_call / p50,
            latency_p50_ms=p50 * 1e3,
            latency_tail_ms=tail_s * 1e3,
            detail={
                "calls": len(samples),
                "images_per_call": self.images_per_call,
                "tail_percentile": rank,
                "call_ms": [round(s * 1e3, 3) for s in samples],
            },
            counters=totals,
        )

    def close(self) -> None:
        pass


class OfflineDirect(BatchWorkload):
    """``DeployableNetwork.forward``, fp32, direct coding, T=2, batch 64."""

    name = "offline_direct_b64"
    images_per_call = 64
    timesteps = 2

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def setup(self) -> bool:
        self.model = build_model(FP32)
        self.images = make_images(self.seed, self.images_per_call)
        # Forced-dense and routed forwards are bit-identical by the
        # runtime's contract, so the reference does not share the
        # routing decisions of the path it checks.
        with runtime_overrides(force_path="dense"):
            self.reference = self.model.forward(self.images, self.timesteps)
        self.first = self.call()
        return self.check(self.first)

    def call(self):
        return self.model.forward(self.images, self.timesteps)

    def check(self, output) -> bool:
        return (
            output.logits.tobytes() == self.reference.logits.tobytes()
            and output.stats.per_layer == self.reference.stats.per_layer
        )

    def counters_of(self, output):
        return output.runtime_counters

    def counts(self) -> Dict[str, object]:
        return {
            "spike_density": densities(self.reference.stats),
            "layer_counters": counter_totals([self.first.runtime_counters]),
        }


class SimRateInt4(BatchWorkload):
    """``HybridSimulator.run`` on the Table II rate arm: int4 (max-abs)
    deployable, rate coding, T=12, dense core gated off, batch 64."""

    name = "sim_rate_int4"
    images_per_call = 64
    timesteps = 12

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def setup(self) -> bool:
        from repro.baselines.rate_coded import rate_coded_config
        from repro.hw.config import lw_config
        from repro.hw.simulator import HybridSimulator

        self.model = build_model(INT4)
        config = rate_coded_config(lw_config("cifar10", INT4))
        self.simulator = HybridSimulator(self.model, config)
        self.images = make_images(self.seed, self.images_per_call)
        self.reference = self.call()
        self.reference_key = self.key(self.reference)
        return self.check(self.call())

    def call(self):
        from repro.snn.encoding import RateEncoder

        return self.simulator.run(
            self.images, self.timesteps, RateEncoder(seed=self.seed)
        )

    @staticmethod
    def key(report):
        """Everything simulated: a speed-only change leaves it identical."""
        return (
            report.latency_ms,
            report.energy_mj,
            report.total_spikes_per_image,
            tuple(report.layers),
            report.logits.tobytes(),
        )

    def check(self, report) -> bool:
        return self.key(report) == self.reference_key

    def counts(self) -> Dict[str, object]:
        report = self.reference
        return {
            "simulated_latency_ms": report.latency_ms,
            "simulated_energy_mj": report.energy_mj,
            "spikes_per_image": report.total_spikes_per_image,
            "layer_cycles": {s.name: s.cycles for s in report.layers},
            "layer_input_events": {
                s.name: s.input_events for s in report.layers
            },
            "dispatch_notes": list(report.notes),
        }


class EvalPooled(BatchWorkload):
    """``sharded_forward`` over 256 images, ``shard_size=128``, on the
    program's default worker count (the persistent worker pool)."""

    name = "eval_pooled"
    images_per_call = 256
    shard_size = 128
    timesteps = 2

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def _forward(self, workers: Optional[int]):
        from repro.parallel import shard

        return shard.sharded_forward(
            self.model, self.images, self.timesteps,
            shard_size=self.shard_size, workers=workers,
        )

    def setup(self) -> bool:
        from repro.parallel import retry_stats, service_stats

        self.model = build_model(FP32)
        self.images = make_images(self.seed, self.images_per_call)
        with runtime_overrides(force_path="dense"):
            self.reference = self._forward(workers=1)
        first = self.call()
        self.service_before = service_stats()
        self.retry_before = retry_stats().as_dict()
        return self.check(first)

    def call(self):
        return self._forward(workers=None)

    def check(self, output) -> bool:
        return (
            output.logits.tobytes() == self.reference.logits.tobytes()
            and output.stats.per_layer == self.reference.stats.per_layer
        )

    def counters_of(self, output):
        return output.runtime_counters

    def measure(self, seconds: float) -> Measurement:
        from repro.parallel import resolve_workers, retry_stats, service_stats

        result = super().measure(seconds)
        service = service_stats()
        retry = retry_stats().as_dict()
        result.detail["service_stats"] = {
            key: service[key] - self.service_before[key] for key in service
        }
        result.detail["retry_stats"] = {
            key: retry[key] - self.retry_before[key] for key in retry
        }
        result.detail["workers"] = resolve_workers()
        return result

    def serial_ms(self, repeats: int = 3) -> float:
        """Median in-process time of the same shards run serially."""
        samples = []
        for _ in range(repeats):
            began = time.perf_counter()
            output = self._forward(workers=1)
            samples.append((time.perf_counter() - began) * 1e3)
            if not self.check(output):
                raise RuntimeError("serial shards diverged from the reference")
        return median(samples)

    def counts(self) -> Dict[str, object]:
        return {
            "spike_density": densities(self.reference.stats),
            "service_stats_at_setup": self.service_before,
        }

    def close(self) -> None:
        from repro.parallel import shutdown_worker_service

        shutdown_worker_service()


class ServeOpen:
    """``InferenceServer`` under an open-loop single-sample load.

    The fp32 model at T=2 behind ``max_batch=8``, ``max_wait_ms=2``, a
    bounded queue and no per-request deadline. One generator thread
    offers requests at a fixed :attr:`fixed_rps` (latency percentiles),
    then searches a fixed geometric ladder of rates from
    :attr:`ladder_base_rps` (capacity), then keeps :attr:`in_flight`
    requests in flight (throughput at full batches). Latency at a fixed
    rate runs from each request's scheduled send time.

    The fixed rate leaves the server mostly idle: a single-sample batch
    takes about 4 ms plus the 2 ms batching wait, so at 200 rps the
    server is busy over 80% of the time and the median mostly measures
    how often the host's stalls push it into queueing.
    """

    name = "serve_open"
    timesteps = 2
    pool_size = 64
    max_batch = 8
    #: Deep enough that a host stall of 2.5 s at the fixed rate queues
    #: requests instead of refusing them (stalls of 1.5 s, with the
    #: generator on time, were seen on a shared 2-core host).
    queue_depth = 256
    in_flight = 64
    fixed_rps = 100.0
    ladder_base_rps = 200.0
    ladder_step = 1.12
    ladder_rungs = 16
    rung_requests = 1000
    rung_attempts = 2
    saturation_seconds = 3.0
    #: Answers per window of the full-batch throughput's median.
    saturation_window = 200
    p99_limit_ms = 50.0
    lag_limit_ms = 10.0
    model_name = "vgg9"

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.server = None

    def setup(self) -> bool:
        from repro.serving import InferenceServer, resolve_serve_config

        self.model = build_model(FP32)
        self.images = make_images(self.seed, self.pool_size)
        with runtime_overrides(force_path="dense"):
            self.reference = self.model.forward(
                self.images, self.timesteps
            ).logits
        # One batch of every size the batcher can form, so the timed
        # phase never pays first-time buffer allocation.
        ok = True
        for size in range(1, self.max_batch + 1):
            logits = self.model.forward(self.images[:size], self.timesteps).logits
            ok = ok and logits.tobytes() == self.reference[:size].tobytes()
        self.server = InferenceServer(
            resolve_serve_config(
                max_batch=self.max_batch,
                max_wait_ms=2.0,
                queue_depth=self.queue_depth,
                timeout_ms=0.0,
            )
        )
        self.server.register(self.model_name, self.model, self.timesteps)
        self.next_id = 0
        first = self.server.submit(
            self.model_name, self.images[0], stream_index=self._take(1)
        ).result()
        return ok and first.logits.tobytes() == self.reference[0].tobytes()

    def _take(self, count: int) -> int:
        first = self.next_id
        self.next_id += count
        return first

    def _offer(self, rate: float, count: int, stop_on_refusal: bool):
        return offer(
            self.server, self.model_name, self.images, self.reference,
            rate, count, self._take(count), stop_on_refusal,
        )

    def meets_limits(self, run, p99_ms: float) -> bool:
        return (
            run.refused == 0
            and run.timed_out == 0
            and run.errors == 0
            and run.mismatched == 0
            and run.completed == run.offered
            and p99_ms <= self.p99_limit_ms
            and run.lag_percentile_ms(99) <= self.lag_limit_ms
        )

    def window_p99_ms(self, run) -> float:
        """Median over consecutive :attr:`rung_requests`-request windows
        of each window's p99 (ten requests beyond it per window): one
        stray stall moves one window, not the figure."""
        latencies = run.latencies_ms
        size = self.rung_requests
        windows = [
            float(np.percentile(latencies[i : i + size], 99))
            for i in range(0, len(latencies) - size + 1, size)
        ]
        return median(windows) if windows else run.percentile_ms(99)

    def climb(self, fixed_passed: bool):
        """Capacity: the highest rung of the fixed ladder
        ``ladder_base_rps * ladder_step**k`` that meets the limits.

        Rungs are searched by bisection (the latency of a rung rises
        with its rate), and only when the fixed-rate phase passed. A rung
        offers :attr:`rung_requests` requests and gets up to
        :attr:`rung_attempts` tries, since one stray stall of the host
        can push one try's p99 over the limit. Returns ``(best run or
        None, rung summaries, attempted, failed, mismatched)``.
        """
        best = None
        rungs = []
        attempted = failed = mismatched = 0
        if not fixed_passed:
            return best, rungs, attempted, failed, mismatched
        low, high = -1, self.ladder_rungs
        while high - low > 1:
            middle = (low + high) // 2
            rate = self.ladder_base_rps * self.ladder_step ** middle
            passed = False
            for _attempt in range(self.rung_attempts):
                run = self._offer(rate, self.rung_requests, stop_on_refusal=True)
                rungs.append(run.summary())
                # Refusals above capacity are the ladder's signal, not
                # failures; errors and mismatches are.
                attempted += run.offered - run.refused
                failed += run.errors + run.mismatched
                mismatched += run.mismatched
                if self.meets_limits(run, run.percentile_ms(99)):
                    passed = True
                    break
            if passed:
                low, best = middle, run
            else:
                high = middle
        return best, rungs, attempted, failed, mismatched

    def measure(self, seconds: float) -> Measurement:
        windows = max(1, round(seconds * self.fixed_rps / self.rung_requests))
        stats_before = self.server.stats()[self.model_name]
        fixed = self._offer(
            self.fixed_rps, windows * self.rung_requests, stop_on_refusal=False
        )
        stats_fixed = self.server.stats()[self.model_name]
        tail_ms = self.window_p99_ms(fixed)
        fixed_passed = self.meets_limits(fixed, tail_ms)
        best, rungs, attempted, failed, mismatched = self.climb(fixed_passed)
        full = self._saturate()
        return Measurement(
            attempted=fixed.offered + attempted + full.offered,
            failed=(
                fixed.refused + fixed.timed_out + fixed.errors
                + fixed.mismatched + failed + full.errors + full.mismatched
            ),
            mismatched=fixed.mismatched + mismatched + full.mismatched,
            ops=fixed.offered,
            window=(fixed.start, fixed.end),
            images_per_s=full.median_window_rps(self.saturation_window),
            latency_p50_ms=fixed.percentile_ms(50),
            latency_tail_ms=tail_ms,
            detail={
                "fixed_rate": fixed.summary(),
                "fixed_rate_windows": windows,
                "ladder": rungs,
                "capacity_rps": best.achieved_rps if best is not None else None,
                "capacity_rung_rps": best.rate if best is not None else None,
                "saturation": full.summary(),
                "server_stats_fixed_rate": {
                    key: stats_fixed[key] - stats_before[key]
                    for key in stats_fixed
                },
                "server_stats": self.server.stats()[self.model_name],
                "lag_ms": fixed.lags_ms,
                "latency_ms": fixed.latencies_ms,
            },
            dues=fixed.dues,
        )

    def _saturate(self):
        full = saturate(
            self.server, self.model_name, self.images, self.reference,
            self.in_flight, self.saturation_seconds, self.next_id,
        )
        self.next_id += full.offered
        return full

    def probe(self) -> Dict[str, float]:
        """Full-batch throughput alone, run by each set-up-only process.

        It differs more between fresh processes than within one: 348 to
        567 img/s across processes on a 2-core host, each steady within
        about 10% over 10 s, while fresh copies of the model inside one
        process agree within 2%. So the result line takes the mean of
        this figure over every process of a run.
        """
        full = self._saturate()
        return {
            "images_per_s": full.median_window_rps(self.saturation_window),
            "attempted": full.offered,
            "failed": full.errors + full.mismatched,
            "mismatched": full.mismatched,
        }

    def counts(self) -> Dict[str, object]:
        return {"server_stats_at_setup": self.server.stats()[self.model_name]}

    def close(self) -> None:
        if self.server is not None:
            self.server.shutdown()


WORKLOADS: Dict[str, Callable[[int], object]] = {
    OfflineDirect.name: OfflineDirect,
    SimRateInt4.name: SimRateInt4,
    ServeOpen.name: ServeOpen,
    EvalPooled.name: EvalPooled,
}
