"""Span tracing from outside the program, for the per-layer metrics.

:class:`Tracer` replaces the module and class attributes that the
program's callers resolve at call time -- e.g.
``repro.runtime.engine.dense_conv`` (what ``InferenceEngine`` calls) or
``repro.parallel.shard.run_tasks`` -- with wrappers that record one span
per call in memory: name, start, end, parent span (per thread) and, for
serving batches, the request ids. Nothing inside the program changes.
Spans are written out at the end, and self times are derived from them:
a span's self time is its duration minus its child spans'.

Worker processes are forked with the wrappers in place but record
nothing (the tracer checks its pid), so worker-side time in pooled runs
is not visible here.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

import numpy as np

#: ``(owner module/class path, attribute, span name)`` for every patch.
PATCHES = (
    ("repro.runtime.engine", "dense_conv", "runtime.dense_conv"),
    ("repro.runtime.engine", "dense_conv_int", "runtime.int_conv.dense"),
    ("repro.runtime.engine", "dense_fc", "runtime.dense_fc"),
    ("repro.runtime.engine", "event_conv", "runtime.event_conv.plain"),
    ("repro.runtime.engine", "event_conv_blocked", "runtime.event_conv.blocked"),
    ("repro.runtime.engine", "event_conv_int", "runtime.int_conv.event"),
    ("repro.runtime.engine", "or_pool", "runtime.or_pool"),
    ("repro.runtime.engine", "lif_scan", "snn.lif_scan"),
    ("repro.runtime.engine:InferenceEngine", "run", "runtime.engine"),
    ("repro.snn.metrics:SpikeStats", "record", "snn.spike_stats"),
    ("repro.quant.convert", "stack_encoder_frames", "snn.encode"),
    ("repro.quant.convert:DeployableNetwork", "forward", "model.forward"),
    ("repro.hw.simulator:HybridSimulator", "run", "hw.simulator"),
    ("repro.hw.simulator", "sparse_layer_cycle_sums", "hw.cycle_sums"),
    ("repro.parallel.shard", "sharded_forward", "parallel.sharded_forward"),
    ("repro.parallel.shard", "run_tasks", "parallel.run_tasks"),
    ("repro.parallel.shard", "plan_task_images", "parallel.ship_images"),
    ("repro.parallel.shard", "merge_outputs", "parallel.merge"),
    ("repro.serving.server:ModelEndpoint", "run_batch", "serving.run_batch"),
)


def _dense_gflop(args, kwargs, result) -> Dict[str, float]:
    """Operations of one dense conv call, computed from its shapes."""
    layer, batch = args[0], args[1]
    geometry = layer.geometry
    flop = 2.0 * batch.shape[0] * layer.out_channels * geometry.k * geometry.oh * geometry.ow
    return {"gflop": flop / 1e9}


def _updates(args, kwargs, result) -> Dict[str, float]:
    return {"updates": int(result[1])}


def _counters(args, kwargs, result) -> Dict[str, object]:
    counters = result.runtime_counters or {}
    return {"counters": [c.as_dict() for c in counters.values()]}


def _request_ids(args, kwargs, result) -> Dict[str, object]:
    # run_batch(self, images, stream_indices, timeout_s); the benchmark
    # submits every request under its own id as the stream index.
    return {"requests": list(args[2])}


NOTES: Dict[str, Callable] = {
    "runtime.dense_conv": _dense_gflop,
    "runtime.event_conv.plain": _updates,
    "runtime.event_conv.blocked": _updates,
    "runtime.int_conv.event": _updates,
    "model.forward": _counters,
    "serving.run_batch": _request_ids,
}


def _resolve(path: str):
    import importlib

    module_name, _, class_name = path.partition(":")
    owner = importlib.import_module(module_name)
    return getattr(owner, class_name) if class_name else owner


class Tracer:
    """Records spans while :attr:`active`; install once per process."""

    def __init__(self) -> None:
        self.active = False
        self.spans: List[tuple] = []
        self._pid = os.getpid()
        self._local = threading.local()
        self._ids = itertools.count()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, function: Callable) -> Callable:
        tracer = self
        note = NOTES.get(name)

        @functools.wraps(function)
        def traced(*args, **kwargs):
            if not tracer.active or os.getpid() != tracer._pid:
                return function(*args, **kwargs)
            stack = tracer._stack()
            span_id = next(tracer._ids)  # atomic under the GIL
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            extra = note(args, kwargs, result) if note is not None else None
            tracer.spans.append((span_id, name, start, end, parent, extra))
            return result

        return traced

    def install(self) -> None:
        for path, attribute, name in PATCHES:
            owner = _resolve(path)
            original = owner.__dict__[attribute] if isinstance(owner, type) else getattr(owner, attribute)
            setattr(owner, attribute, self.wrap(name, original))

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, name, start, end, parent, extra in self.spans:
                row = {
                    "id": span_id, "name": name, "start": start, "end": end,
                    "parent": parent,
                }
                if extra:
                    row.update(extra)
                handle.write(json.dumps(row) + "\n")


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

#: Every per-layer metric and its unit, in the order printed.
PER_LAYER_UNITS = {
    "model.forward.ms": "ms",
    "runtime.dense_conv.ms": "ms",
    "runtime.dense_conv.calls": "count",
    "runtime.dense_conv.gflop": "GFLOP-computed",
    "runtime.dense_fc.ms": "ms",
    "runtime.event_conv.ms": "ms",
    "runtime.event_conv.blocked_ms": "ms",
    "runtime.event_updates": "count",
    "runtime.event_conv.ns_per_update": "ns",
    "runtime.int_conv.ms": "ms",
    "runtime.int_steps": "count",
    "snn.lif_scan.ms": "ms",
    "snn.lif_scan.share": "ratio",
    "snn.spike_stats.ms": "ms",
    "runtime.or_pool.ms": "ms",
    "runtime.engine.self_ms": "ms",
    "snn.encode.ms": "ms",
    "runtime.dispatch.dense_steps": "count",
    "runtime.dispatch.event_steps": "count",
    "runtime.dispatch.dense_cost_steps": "count-wallclock",
    "runtime.dispatch.dense_density_steps": "count",
    "hw.cycle_sums.ms": "ms",
    "hw.simulator.self_ms": "ms",
    "serving.queue_wait_ms.p50": "ms",
    "serving.queue_wait_ms.p99": "ms",
    "serving.run_batch_ms": "ms",
    "serving.batch_size.mean": "count",
    "serving.batches": "count",
    "serving.rejected": "count",
    "serving.timed_out": "count",
    "loadgen.lag_ms": "ms",
    "parallel.run_tasks.ms": "ms",
    "parallel.ship_images.ms": "ms",
    "parallel.merge.ms": "ms",
    "parallel.efficiency": "ratio",
    "parallel.pool_starts": "count",
    "parallel.generation_reuses": "count",
    "parallel.blob_spills": "count",
    "parallel.retries": "count",
    "parallel.aborts": "count",
}


def span_table(spans: List[tuple], window) -> Dict[str, Dict[str, float]]:
    """Per span name: calls, total and self ms, and summed notes, over the
    spans that started inside ``window``."""
    lo, hi = window
    kept = [span for span in spans if lo <= span[2] <= hi]
    child_ms: Dict[int, float] = defaultdict(float)
    for span_id, name, start, end, parent, extra in kept:
        if parent is not None:
            child_ms[parent] += (end - start) * 1e3
    table: Dict[str, Dict[str, float]] = {}
    for span_id, name, start, end, parent, extra in kept:
        row = table.setdefault(
            name, {"calls": 0, "ms": 0.0, "self_ms": 0.0, "gflop": 0.0, "updates": 0}
        )
        ms = (end - start) * 1e3
        row["calls"] += 1
        row["ms"] += ms
        row["self_ms"] += ms - child_ms.get(span_id, 0.0)
        if extra:
            row["gflop"] += extra.get("gflop", 0.0)
            row["updates"] += extra.get("updates", 0)
    return table


def _forward_counters(spans: List[tuple], window) -> Optional[Dict[str, int]]:
    lo, hi = window
    totals: Dict[str, int] = {}
    seen = False
    for _, name, start, _, _, extra in spans:
        if name != "model.forward" or not (lo <= start <= hi):
            continue
        seen = True
        for counter in extra["counters"]:
            for key, value in counter.items():
                totals[key] = totals.get(key, 0) + value
    return totals if seen else None


def per_layer_metrics(
    spans: List[tuple],
    measurement,
    service: Optional[Dict[str, int]] = None,
    retry: Optional[Dict[str, int]] = None,
    serial_ms: Optional[float] = None,
    workers: int = 1,
) -> Dict[str, float]:
    """Every metric in :data:`PER_LAYER_UNITS`, per timed operation.

    Times, calls and step counts are divided by ``measurement.ops``
    (calls, or requests at the fixed rate for serving). Dispatch counts
    come from the in-process forwards' ``LayerCounters`` or, when the
    forwards ran in workers, from the merged outputs. Metrics of layers a
    workload does not run read 0.
    """
    table = span_table(spans, measurement.window)
    ops = max(measurement.ops, 1)

    def ms(*names: str) -> float:
        return sum(table.get(name, {}).get("ms", 0.0) for name in names) / ops

    def self_ms(name: str) -> float:
        return table.get(name, {}).get("self_ms", 0.0) / ops

    counters = _forward_counters(spans, measurement.window) or measurement.counters or {}
    event_names = ("runtime.event_conv.plain", "runtime.event_conv.blocked")
    event_ms = ms(*event_names) * ops
    event_updates = sum(table.get(n, {}).get("updates", 0) for n in event_names)
    forward_ms = ms("model.forward")
    metrics = {
        "model.forward.ms": forward_ms,
        "runtime.dense_conv.ms": ms("runtime.dense_conv"),
        "runtime.dense_conv.calls": table.get("runtime.dense_conv", {}).get("calls", 0) / ops,
        "runtime.dense_conv.gflop": table.get("runtime.dense_conv", {}).get("gflop", 0.0) / ops,
        "runtime.dense_fc.ms": ms("runtime.dense_fc"),
        "runtime.event_conv.ms": ms(*event_names),
        "runtime.event_conv.blocked_ms": ms("runtime.event_conv.blocked"),
        "runtime.event_updates": counters.get("event_updates", 0) / ops,
        "runtime.event_conv.ns_per_update": event_ms * 1e6 / event_updates if event_updates else 0.0,
        "runtime.int_conv.ms": ms("runtime.int_conv.dense", "runtime.int_conv.event"),
        "runtime.int_steps": (counters.get("int_dense_steps", 0) + counters.get("int_event_steps", 0)) / ops,
        "snn.lif_scan.ms": ms("snn.lif_scan"),
        "snn.lif_scan.share": ms("snn.lif_scan") / forward_ms if forward_ms else 0.0,
        "snn.spike_stats.ms": ms("snn.spike_stats"),
        "runtime.or_pool.ms": ms("runtime.or_pool"),
        "runtime.engine.self_ms": self_ms("runtime.engine"),
        "snn.encode.ms": ms("snn.encode"),
        "runtime.dispatch.dense_steps": counters.get("dense_steps", 0) / ops,
        "runtime.dispatch.event_steps": counters.get("event_steps", 0) / ops,
        "runtime.dispatch.dense_cost_steps": counters.get("dense_cost_steps", 0) / ops,
        "runtime.dispatch.dense_density_steps": counters.get("dense_density_steps", 0) / ops,
        "hw.cycle_sums.ms": ms("hw.cycle_sums"),
        "hw.simulator.self_ms": self_ms("hw.simulator"),
        "parallel.run_tasks.ms": ms("parallel.run_tasks"),
        "parallel.ship_images.ms": ms("parallel.ship_images"),
        "parallel.merge.ms": ms("parallel.merge"),
    }
    metrics.update(_serving_metrics(spans, measurement, table, ops))
    pooled_ms = ms("parallel.sharded_forward")
    metrics["parallel.efficiency"] = (
        serial_ms / (workers * pooled_ms) if serial_ms and pooled_ms else 0.0
    )
    service = service or {}
    retry = retry or {}
    for key in ("pool_starts", "generation_reuses", "blob_spills", "aborts"):
        metrics[f"parallel.{key}"] = service.get(key, 0)
    metrics["parallel.retries"] = retry.get("retries", 0)
    return metrics


def _serving_metrics(spans, measurement, table, ops) -> Dict[str, float]:
    dues = measurement.dues or {}
    lo, hi = measurement.window
    waits = [
        (start - dues[request]) * 1e3
        for _, name, start, _, _, extra in spans
        if name == "serving.run_batch" and lo <= start <= hi
        for request in extra["requests"]
        if request in dues
    ]
    batches = table.get("serving.run_batch", {})
    fixed = measurement.detail.get("server_stats_fixed_rate", {})
    lags = measurement.detail.get("lag_ms") or []
    return {
        "serving.queue_wait_ms.p50": float(np.percentile(waits, 50)) if waits else 0.0,
        "serving.queue_wait_ms.p99": float(np.percentile(waits, 99)) if waits else 0.0,
        "serving.run_batch_ms": batches["ms"] / batches["calls"] if batches else 0.0,
        "serving.batch_size.mean": len(waits) / batches["calls"] if batches else 0.0,
        "serving.batches": batches.get("calls", 0),
        "serving.rejected": fixed.get("rejected_full", 0) + fixed.get("rejected_closed", 0),
        "serving.timed_out": fixed.get("timed_out", 0),
        "loadgen.lag_ms": float(np.percentile(lags, 99)) if lags else 0.0,
    }
