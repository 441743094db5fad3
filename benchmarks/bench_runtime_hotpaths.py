"""Micro-benchmarks for the inference-runtime hot paths.

Times three implementations of the layer-current computation

* **legacy** -- the reference oracle's per-timestep ``layer_current``
  loop (fresh im2col + einsum + dequantize per timestep; see
  ``tests/legacy_oracle.py``),
* **fused** -- the runtime's time-fused dense kernel (one unfold + one
  batched matmul for all timesteps),
* **event** -- the runtime's event-driven scatter kernel,

across a sweep of input spike densities, plus the ``blocked_scatter``
deep-VGG9 micro (blocked event vs dense kernel on a K >= 500 shape --
the shapes only the canonical blocked k-fold can keep on the event
path, with the density rule's routing verdict per density), the
end-to-end ``DeployableNetwork.forward`` runtime-vs-oracle comparison on
a small-scale VGG9 at paper-typical spike densities, the sharded
serial-vs-pooled throughput, warm-vs-cold persistent-pool latency, the
disk-backed evaluation cache's cold/warm split, the
``quantized_kernels`` section (the int8 integer-datapath kernels vs
their float twins, micro and end-to-end) and the ``serving`` section (online
dynamic-batching server: p50/p99 latency and admission accounting at a
nominal and an overload offered rate). Results are written
to ``BENCH_runtime.json`` at the repo root so the perf trajectory is
tracked across PRs (field reference: ``docs/BENCHMARKS.md``).

Run:

    PYTHONPATH=src python benchmarks/bench_runtime_hotpaths.py [--smoke]

``REPRO_BENCH_SCALE=tiny`` shrinks the workload for smoke passes.
``--smoke`` additionally enforces the regression gate: the event-driven
path must beat the legacy loop at every density <= 5%, and the runtime
forward must not be slower than the legacy forward. Exit code 1 on
violation (wired into ``scripts/perf_smoke.sh``).

This file is a script, not a pytest module: plain ``pytest`` ignores it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from statistics import median
from typing import Callable, Dict, List

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if not any(os.path.isdir(os.path.join(p, "repro")) for p in sys.path if p):
    sys.path.insert(0, os.path.join(REPO_ROOT, "src"))
# The per-timestep reference loop lives with the tests it anchors.
sys.path.append(os.path.join(REPO_ROOT, "tests"))

import numpy as np
import scipy

from repro.parallel import sharded_forward
from repro.quant import FP32, convert
from repro.runtime import (
    RuntimeConfig,
    calibrate_event_exact,
    plan_deployable,
    resolve_event_block,
    runtime_overrides,
)
from repro.runtime.kernels import dense_conv, event_conv, event_conv_blocked
from repro.runtime.refshapes import DEEP_VGG9_SHAPES, make_conv_layer_plan
from repro.snn import build_vgg9
from repro.snn.neuron import LIFConfig

from legacy_oracle import forward_legacy, layer_current

DENSITIES = (0.01, 0.05, 0.20, 0.50)

#: Densities for the deep-layer blocked-scatter micro-bench. The two
#: sparsest are the perf gate: they bracket the near-silent regime the
#: deepest VGG9 layers actually run at (0.0-0.02 in end_to_end), where
#: the event path must beat the dense kernel outright. The denser two
#: document where the crossover sits relative to the dispatch
#: threshold, not a regression.
BLOCKED_DENSITIES = (0.002, 0.01, 0.05, 0.2)

#: One canonical deep-VGG9 shape (conv2_2 at CIFAR scale, K=576). Fixed
#: across bench scales so the blocked_scatter record is comparable
#: between the tiny smoke run and the canonical small-scale record.
BLOCKED_SHAPE = DEEP_VGG9_SHAPES[0]

#: Smoke-gate ceiling on int dense / float dense time in the
#: quantized_kernels micro: both run the same BLAS GEMM, so the slack
#: covers timing noise and the int kernel's dequantization pass only.
INT_DENSE_SLACK = 1.25


def result_path(scale: str) -> str:
    """BENCH_runtime.json tracks the canonical small-scale trajectory
    across PRs; other scales (the tiny smoke gate) write a suffixed
    sibling so a CI run can never clobber the cross-PR record."""
    suffix = "" if scale == "small" else f".{scale}"
    return os.path.join(REPO_ROOT, f"BENCH_runtime{suffix}.json")

SCALES = {
    # Paper-typical sparsity: untrained VGG9 with theta=1.0 spikes at
    # ~1-15% density in the early layers and goes near-silent deeper,
    # matching the regime the paper reports (>90% sparsity).
    "tiny": dict(
        input_shape=(3, 16, 16), channel_scale=0.125, population=200,
        batch=8, timesteps=2, repeats=7,
    ),
    "small": dict(
        input_shape=(3, 32, 32), channel_scale=0.25, population=500,
        batch=8, timesteps=2, repeats=5,
    ),
}


def timeit(fn: Callable[[], object], repeats: int) -> float:
    """Median wall time of ``fn`` in milliseconds (1 warmup call)."""
    fn()
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append((time.perf_counter() - start) * 1e3)
    return median(samples)


def build_workload(scale: str):
    params = SCALES[scale]
    network = build_vgg9(
        num_classes=10,
        population=params["population"],
        input_shape=params["input_shape"],
        channel_scale=params["channel_scale"],
        lif=LIFConfig(threshold=1.0),
        seed=42,
    )
    network.eval()
    deployable = convert(network, FP32)
    rng = np.random.default_rng(7)
    images = rng.random((params["batch"],) + params["input_shape"])
    return deployable, images.astype(np.float32), params


def pick_micro_layer(deployable):
    """First non-input conv layer whose shape calibrates event-exact."""
    plan = plan_deployable(deployable)
    for index, layer in enumerate(plan.layers):
        if layer.kind != "conv" or layer.is_input_layer:
            continue
        if calibrate_event_exact(layer):
            return index, layer
    raise SystemExit("no event-exact conv layer found for the micro-bench")


def bench_layer_micro(deployable, params) -> List[Dict]:
    index, layer = pick_micro_layer(deployable)
    legacy_layer = deployable.layers[index]
    timesteps = params["timesteps"]
    batch = params["batch"]
    rng = np.random.default_rng(11)
    rows = []
    for density in DENSITIES:
        fused = (
            rng.random((timesteps * batch,) + layer.input_shape) < density
        ).astype(np.float32)
        per_t = [fused[t * batch : (t + 1) * batch] for t in range(timesteps)]

        def run_legacy():
            return [layer_current(legacy_layer, xt) for xt in per_t]

        def run_fused():
            return dense_conv(layer, fused)

        def run_event():
            return event_conv(layer, fused)[0]

        # The three paths must agree bit-for-bit before being timed.
        want = np.concatenate(run_legacy())
        assert np.array_equal(run_fused(), want), "fused path diverged"
        assert np.array_equal(run_event(), want), "event path diverged"

        rows.append(
            {
                "layer": layer.name,
                "density": density,
                "legacy_ms": timeit(run_legacy, params["repeats"]),
                "fused_ms": timeit(run_fused, params["repeats"]),
                "event_ms": timeit(run_event, params["repeats"]),
            }
        )
    return rows


def bench_blocked_scatter(params) -> Dict:
    """Deep-VGG9 layer micro: blocked event vs (blocked) dense kernel.

    The shapes this section times are exactly the ones the unblocked
    fold locked out of the event path (K >= 500): the blocked k-fold is
    what lets them dispatch at all. Bit-exactness of blocked event vs
    blocked dense is asserted before any timing; the rows also record
    the density rule's verdict (``density <= dispatch_threshold``) so
    the record shows where the dispatcher flips to dense against where
    the kernels cross over.
    """
    cin, height, width, cout = BLOCKED_SHAPE
    layer = make_conv_layer_plan(cin, height, width, cout, seed=19)
    geometry = layer.geometry
    rng = np.random.default_rng(19)
    block = resolve_event_block(layer)
    if not block:
        raise SystemExit(
            f"deep shape K={geometry.k} failed to resolve a k-block"
        )
    threshold = RuntimeConfig().dispatch_threshold
    batch = params["timesteps"] * params["batch"]
    rows = []
    for density in BLOCKED_DENSITIES:
        x = (
            rng.random((batch, cin, height, width)) < density
        ).astype(np.float32)

        def run_dense_blocked():
            return dense_conv(layer, x, kblock=block)

        def run_dense_unblocked():
            return dense_conv(layer, x)

        def run_event_blocked():
            return event_conv_blocked(layer, x, block)[0]

        want = run_dense_blocked()
        got, updates = event_conv_blocked(layer, x, block)
        if not np.array_equal(got, want):
            raise SystemExit(
                f"blocked event diverged from blocked dense at density "
                f"{density} (K={geometry.k}, block={block})"
            )
        rows.append(
            {
                "density": density,
                "updates": int(updates),
                "dense_ms": timeit(run_dense_blocked, params["repeats"]),
                "dense_unblocked_ms": timeit(
                    run_dense_unblocked, params["repeats"]
                ),
                "event_ms": timeit(run_event_blocked, params["repeats"]),
                "density_routes_event": density <= threshold,
            }
        )
    return {
        "shape": {
            "cin": cin, "height": height, "width": width, "cout": cout,
        },
        "k": int(geometry.k),
        "k_block": int(block),
        "batch": batch,
        "bit_exact": True,
        "rows": rows,
    }


def bench_end_to_end(deployable, images, params) -> Dict:
    timesteps = params["timesteps"]
    legacy_out = forward_legacy(deployable, images, timesteps)
    # Two distinct exactness contracts, asserted separately. (1) With
    # blocking disabled every layer computes the same unblocked fold the
    # legacy loop uses, so the runtime must match legacy bit for bit.
    # (2) With blocking on (the default being timed), deep K>=500 layers
    # compute through the canonical blocked fold, whose currents differ
    # from legacy in the last ulp *by construction* -- what is
    # guaranteed there is dispatch invariance: forced-dense and routed
    # runs share the fold and must agree bitwise. Whether the blocked
    # logits also happen to match legacy (they do while the deep layers
    # stay near-silent) is recorded, not gated.
    with runtime_overrides(event_kblock=0):
        unblocked_out = deployable.forward(images, timesteps)
    if not np.array_equal(legacy_out.logits, unblocked_out.logits):
        raise SystemExit("unblocked runtime forward diverged from legacy")
    runtime_out = deployable.forward(images, timesteps)
    with runtime_overrides(force_path="dense"):
        forced_dense_out = deployable.forward(images, timesteps)
    if not np.array_equal(runtime_out.logits, forced_dense_out.logits):
        raise SystemExit("default routing diverged from forced dense")
    legacy_ms = timeit(
        lambda: forward_legacy(deployable, images, timesteps), params["repeats"]
    )
    runtime_ms = timeit(
        lambda: deployable.forward(images, timesteps), params["repeats"]
    )
    stats = runtime_out.stats
    densities = {
        name: round(1.0 - stats.sparsity(name), 4) for name in stats.per_layer
    }
    counters = {
        name: counter.as_dict()
        for name, counter in runtime_out.runtime_counters.items()
    }
    return {
        "timesteps": timesteps,
        "batch": int(images.shape[0]),
        "legacy_ms": legacy_ms,
        "runtime_ms": runtime_ms,
        "speedup": legacy_ms / runtime_ms if runtime_ms else float("inf"),
        "bit_exact": True,  # unblocked==legacy and routed==forced-dense
        "blocked_matches_legacy": bool(
            np.array_equal(legacy_out.logits, runtime_out.logits)
        ),
        "layer_output_densities": densities,
        "dispatch_counters": counters,
    }


def bench_parallel(deployable, images, params) -> Dict:
    """Sharded evaluation throughput: serial fallback vs 2-worker pool.

    The workload is the end-to-end VGG9 forward over a batch split into
    two shards. Results are checked bit-identical against the plain
    (unsharded) forward before timing; throughput is recorded in
    images/second for the serial fallback and the pooled path so the
    sharding win (or, on single-core machines, the process overhead) is
    tracked across PRs alongside the kernel numbers.
    """
    timesteps = params["timesteps"]
    plain = deployable.forward(images, timesteps)

    def run_serial():
        return sharded_forward(
            deployable, images, timesteps, shards=2, workers=1
        )

    def run_pooled():
        return sharded_forward(
            deployable, images, timesteps, shards=2, workers=2
        )

    for label, fn in (("serial", run_serial), ("pooled", run_pooled)):
        merged = fn()
        if not np.array_equal(merged.logits, plain.logits):
            raise SystemExit(f"sharded ({label}) logits diverged from plain")
        if merged.stats.per_layer != plain.stats.per_layer:
            raise SystemExit(f"sharded ({label}) stats diverged from plain")
    # Determinism gate: two pooled runs must agree bit-for-bit.
    first, second = run_pooled(), run_pooled()
    if not np.array_equal(first.logits, second.logits):
        raise SystemExit("pooled sharded run is non-deterministic")

    serial_ms = timeit(run_serial, params["repeats"])
    pooled_ms = timeit(run_pooled, params["repeats"])
    batch = int(images.shape[0])
    return {
        "shards": 2,
        "batch": batch,
        "workers_available": os.cpu_count(),
        "serial_ms": serial_ms,
        "pooled_ms": pooled_ms,
        "serial_images_per_s": 1e3 * batch / serial_ms if serial_ms else 0.0,
        "pooled_images_per_s": 1e3 * batch / pooled_ms if pooled_ms else 0.0,
        "pooled_speedup": serial_ms / pooled_ms if pooled_ms else float("inf"),
        "bit_exact": True,
        "deterministic": True,
    }


def _pool_probe_cell(x: int) -> int:
    """Trivial module-level cell for the pool-startup micro-bench."""
    return x * x


def bench_persistent_pool(params) -> Dict:
    """Warm-pool amortization: first pooled call vs steady-state calls.

    The first ``run_tasks`` call after a service shutdown pays the pool
    startup (the cost PR 2 paid on *every* call); subsequent calls reuse
    the warm workers and ship only the per-call generation blob. Both
    are timed on a trivial cell so the delta is pure orchestration
    overhead, and the service's lifetime counters record how many runs
    were served warm.
    """
    from repro.parallel import (
        run_tasks,
        service_stats,
        shutdown_worker_service,
    )

    payloads = list(range(8))
    want = [x * x for x in payloads]

    def call():
        return run_tasks(_pool_probe_cell, payloads, workers=2)

    shutdown_worker_service()
    before = service_stats()
    start = time.perf_counter()
    if call() != want:
        raise SystemExit("pooled probe cells diverged from the serial map")
    cold_ms = (time.perf_counter() - start) * 1e3
    warm_ms = timeit(call, params["repeats"])
    after = service_stats()
    return {
        "workers": 2,
        "payloads": len(payloads),
        "cold_call_ms": cold_ms,
        "warm_call_ms": warm_ms,
        "startup_amortization": cold_ms / warm_ms if warm_ms else float("inf"),
        "pool_starts": after["pool_starts"] - before["pool_starts"],
        "warm_runs": after["warm_runs"] - before["warm_runs"],
        "bit_exact": True,
    }


def bench_fault_recovery(deployable, images, params) -> Dict:
    """Self-healing overhead: a clean 4-shard run vs the same run
    healing one worker crash and one wedged shard.

    The faulted run executes under a pinned deterministic fault plan
    (shard 0's worker is killed on its first attempt; shard 2 wedges
    until the per-task timeout fires) and must still produce the
    byte-identical merged output -- the counter-stream invariant makes
    every retried shard a pure function of (seed, sample index,
    timestep). The delta between the two wall times is the price of
    recovery: pool restart, timeout detection, and the retried shards.
    The breaker is pinned high for the measurement (induced aborts must
    reach the retry engine, not degrade to inline execution where
    injection is off by design).
    """
    from repro.faults import FAULT_PLAN_ENV
    from repro.parallel import (
        CircuitBreaker,
        RetryPolicy,
        retry_stats,
        shared_service,
        shutdown_worker_service,
    )
    from repro.parallel.retry import reset_retry_stats
    from repro.snn.encoding import RateEncoder

    timesteps = params["timesteps"]
    plan = "seed=0,crash@0:0,wedge@2:0~30"
    policy = RetryPolicy(
        max_attempts=3, backoff_ms=0.0, backoff_max_ms=0.0,
        task_timeout_s=3.0,
    )

    def run():
        return sharded_forward(
            deployable, images, timesteps, RateEncoder(seed=11),
            shards=4, workers=2, retry=policy,
        )

    service = shared_service()
    saved_breaker = service.breaker
    service.breaker = CircuitBreaker(threshold=10000)
    try:
        shutdown_worker_service()
        start = time.perf_counter()
        clean = run()
        clean_ms = (time.perf_counter() - start) * 1e3

        shutdown_worker_service()  # the plan is read at worker spawn
        reset_retry_stats()
        os.environ[FAULT_PLAN_ENV] = plan
        try:
            start = time.perf_counter()
            healed = run()
            faulted_ms = (time.perf_counter() - start) * 1e3
        finally:
            del os.environ[FAULT_PLAN_ENV]
            shutdown_worker_service()
        stats = retry_stats()
        byte_identical = (
            healed.logits.tobytes() == clean.logits.tobytes()
            and healed.stats.per_layer == clean.stats.per_layer
            and healed.input_spike_totals == clean.input_spike_totals
        )
        trips = service.breaker.trips
    finally:
        service.breaker = saved_breaker
    return {
        "plan": plan,
        "shards": 4,
        "workers": 2,
        "clean_ms": clean_ms,
        "faulted_ms": faulted_ms,
        "recovery_overhead_ms": faulted_ms - clean_ms,
        "retries": stats.retries,
        "recovered_calls": stats.recovered_calls,
        "quarantined": stats.quarantined,
        "breaker_trips": trips,
        "byte_identical": byte_identical,
    }


def bench_eval_cache() -> Dict:
    """Disk-backed evaluation cache: cold compute vs warm hit.

    Trains (once) and evaluates a tiny model in a throwaway workspace,
    then re-evaluates through a fresh context -- the warm path must be
    served entirely from the ``.eval.json`` entry, bit-identically. Hit
    and store counts come from the per-process cache statistics.
    """
    import tempfile

    from repro.experiments.context import ExperimentContext
    from repro.experiments.evalcache import eval_cache_stats

    with tempfile.TemporaryDirectory() as workspace:
        before = eval_cache_stats().as_dict()
        ctx = ExperimentContext(
            scale="tiny", workspace=workspace, seed=0, eval_cache=True
        )
        ctx.trained("svhn", "fp32")  # exclude training from the timings
        start = time.perf_counter()
        cold = ctx.evaluate("svhn", "fp32", max_samples=32)
        cold_ms = (time.perf_counter() - start) * 1e3
        fresh = ExperimentContext(
            scale="tiny", workspace=workspace, seed=0, eval_cache=True
        )
        start = time.perf_counter()
        warm = fresh.evaluate("svhn", "fp32", max_samples=32)
        warm_ms = (time.perf_counter() - start) * 1e3
        after = eval_cache_stats().as_dict()
    if warm != cold:
        raise SystemExit("eval cache hit diverged from the computed result")
    return {
        "scale": "tiny",
        "samples": cold.samples,
        "cold_ms": cold_ms,
        "warm_ms": warm_ms,
        "speedup": cold_ms / warm_ms if warm_ms else float("inf"),
        "hits": after["hits"] - before["hits"],
        "misses": after["misses"] - before["misses"],
        "stores": after["stores"] - before["stores"],
        "bit_exact": True,
    }


def bench_quantized_kernels(params) -> Dict:
    """Integer datapath: the int8 kernels against their float twins.

    Micro: the deep BLOCKED_SHAPE quantized with power-of-two scales,
    timing float event (blocked, as the engine runs it) vs int event and
    float dense vs int dense per density -- after asserting the int
    kernels reproduce the float fold bit for bit (pow2 scales make the
    probe pass by construction). The int kernels are the float kernels'
    GEMM and scatter over integer-valued float32 weights: their sums are
    exact in any fold order, so the int event kernel needs no k-block
    (which is why it should not lose to the blocked float scatter) and
    the int dense kernel should cost what the float dense kernel costs.

    End-to-end: the tiny-scale VGG9 quantized at int8p2, forward with
    ``int_kernels='off'`` vs ``'auto'`` (whose decision is the same
    under either dispatch policy); logits must agree bit for bit, and
    the dispatch counters record how many layer-timesteps actually ran
    the integer kernels -- the proof the quantized deployable no longer
    runs float inference in disguise.
    """
    from repro.quant import INT8_P2, quantize_array
    from repro.runtime import attach_int_lowering, calibrate_int_exact
    from repro.runtime.kernels import dense_conv_int, event_conv_int

    cin, height, width, cout = BLOCKED_SHAPE
    layer = make_conv_layer_plan(cin, height, width, cout, seed=23)
    q, scale = quantize_array(layer.wmat, INT8_P2)
    wmat = (q.astype(np.float32) * scale.reshape(-1, 1)).astype(np.float32)
    layer.wmat = wmat
    layer.wT = np.ascontiguousarray(wmat.T)
    attach_int_lowering(layer, q, scale)
    block = resolve_event_block(layer)
    if not calibrate_int_exact(layer, block):
        raise SystemExit("pow2 int lowering failed the exactness probe")
    rng = np.random.default_rng(23)
    batch = params["timesteps"] * params["batch"]
    rows = []
    for density in BLOCKED_DENSITIES:
        x = (
            rng.random((batch, cin, height, width)) < density
        ).astype(np.float32)

        def run_float_event():
            if block:
                return event_conv_blocked(layer, x, block)[0]
            return event_conv(layer, x)[0]

        def run_int_event():
            return event_conv_int(layer, x)[0]

        def run_float_dense():
            return dense_conv(layer, x, kblock=block if block else None)

        def run_int_dense():
            return dense_conv_int(layer, x)

        want = run_float_dense()
        got, updates = event_conv_int(layer, x)
        if not np.array_equal(got, want):
            raise SystemExit(
                f"int event kernel diverged from float at density {density}"
            )
        if not np.array_equal(run_int_dense(), want):
            raise SystemExit(
                f"int dense kernel diverged from float at density {density}"
            )
        rows.append(
            {
                "density": density,
                "updates": int(updates),
                "float_dense_ms": timeit(run_float_dense, params["repeats"]),
                "int_dense_ms": timeit(run_int_dense, params["repeats"]),
                "float_event_ms": timeit(run_float_event, params["repeats"]),
                "int_event_ms": timeit(run_int_event, params["repeats"]),
            }
        )

    tiny = SCALES["tiny"]
    network = build_vgg9(
        num_classes=10,
        population=tiny["population"],
        input_shape=tiny["input_shape"],
        channel_scale=tiny["channel_scale"],
        lif=LIFConfig(threshold=1.0),
        seed=42,
    )
    network.eval()
    quantized = convert(network, INT8_P2)
    images = (
        np.random.default_rng(7).random((tiny["batch"],) + tiny["input_shape"])
    ).astype(np.float32)
    timesteps = tiny["timesteps"]
    with runtime_overrides(int_kernels="off"):
        float_out = quantized.forward(images, timesteps)
        float_ms = timeit(
            lambda: quantized.forward(images, timesteps), params["repeats"]
        )
    with runtime_overrides(int_kernels="auto"):
        int_out = quantized.forward(images, timesteps)
        int_ms = timeit(
            lambda: quantized.forward(images, timesteps), params["repeats"]
        )
    if not np.array_equal(float_out.logits, int_out.logits):
        raise SystemExit("auto int e2e diverged from the float path")
    counters = {
        name: counter.as_dict()
        for name, counter in int_out.runtime_counters.items()
    }
    int_steps = sum(
        c["int_dense_steps"] + c["int_event_steps"] for c in counters.values()
    )
    return {
        "shape": {
            "cin": cin, "height": height, "width": width, "cout": cout,
        },
        "k": int(layer.geometry.k),
        "k_block": int(block or 0),
        "batch": batch,
        "scheme": "int8p2",
        "int_bound": int(layer.int_bound),
        "bit_exact": True,
        "rows": rows,
        "end_to_end": {
            "scale": "tiny",
            "timesteps": timesteps,
            "float_ms": float_ms,
            "int_ms": int_ms,
            "speedup": float_ms / int_ms if int_ms else float("inf"),
            "int_layer_timesteps": int(int_steps),
            "dispatch_counters": counters,
        },
    }


def bench_serving(deployable, images, params) -> Dict:
    """Online serving: latency percentiles at two offered loads.

    Stands up a real :class:`InferenceServer` on the benched deployable
    and replays the open-loop generator against it twice: at ~50% of
    the measured single-batch capacity (the *nominal* row -- every
    request must complete, p50/p99 are the serving overhead on top of
    the forward) and at ~2x capacity (the *overload* row -- the bounded
    queue and deadlines must shed load explicitly; the accounting, not
    the latency, is the contract there).

    Before any timing the served logits are asserted byte-identical to
    the offline forward of the same samples -- the serving layer's
    bit-exactness contract, enforced in the perf record too.

    ``p99_bound_ms`` is self-calibrated from the measured batch forward
    (generous: queue wait + one full batch ahead + scheduling slack) and
    recorded; the smoke gate holds the nominal row's p99 under it.
    """
    from repro.serving import InferenceServer, resolve_serve_config, run_open_loop

    timesteps = params["timesteps"]
    max_batch = 4
    batch_ms = timeit(
        lambda: deployable.forward(images[:max_batch], timesteps),
        params["repeats"],
    )
    capacity_rps = max_batch / (batch_ms / 1e3) if batch_ms else 1.0
    offline = deployable.forward(images, timesteps).logits

    def serve_once(offered_rps, count, queue_depth, timeout_ms):
        server = InferenceServer(
            resolve_serve_config(
                max_batch=max_batch,
                max_wait_ms=2.0,
                queue_depth=queue_depth,
                timeout_ms=timeout_ms,
            )
        )
        try:
            server.register("bench", deployable, timesteps, workers=1)
            return run_open_loop(
                server, "bench", images, rate_rps=offered_rps, count=count
            )
        finally:
            server.shutdown()

    # Bit-exactness first: one request per sample, each under its own
    # stream index, must reproduce the offline batch byte for byte.
    server = InferenceServer(
        resolve_serve_config(
            max_batch=max_batch, max_wait_ms=5.0,
            queue_depth=len(images) + 1, timeout_ms=0.0,
        )
    )
    try:
        server.register("bench", deployable, timesteps, workers=1)
        pendings = [
            server.submit("bench", images[i], stream_index=i)
            for i in range(len(images))
        ]
        for i, pending in enumerate(pendings):
            if (
                pending.result().logits.tobytes()
                != np.ascontiguousarray(offline[i]).tobytes()
            ):
                raise SystemExit(
                    f"served logits diverged from offline forward at "
                    f"sample {i}"
                )
    finally:
        server.shutdown()

    nominal_rps = max(1.0, 0.5 * capacity_rps)
    overload_rps = max(2.0, 2.0 * capacity_rps)
    count = 24
    nominal = serve_once(
        nominal_rps, count, queue_depth=count + 1, timeout_ms=0.0
    )
    overload = serve_once(
        overload_rps, count, queue_depth=3, timeout_ms=max(50.0, 6 * batch_ms)
    )
    if nominal.completed != count:
        raise SystemExit(
            f"nominal serving load lost requests: "
            f"{nominal.completed}/{count} completed"
        )
    shed = overload.rejected + overload.timed_out
    accounted = (
        overload.completed + overload.rejected + overload.timed_out
        + overload.failed
    )
    if accounted != count:
        raise SystemExit(
            f"overload accounting leaked requests: {accounted}/{count}"
        )
    p99_bound_ms = 3.0 * batch_ms + 250.0
    rows = [
        dict(load="nominal", offered_rps=round(nominal_rps, 3),
             **nominal.as_dict()),
        dict(load="overload", offered_rps=round(overload_rps, 3),
             **overload.as_dict()),
    ]
    return {
        "max_batch": max_batch,
        "max_wait_ms": 2.0,
        "batch_forward_ms": batch_ms,
        "capacity_rps": round(capacity_rps, 3),
        "p99_bound_ms": round(p99_bound_ms, 3),
        "overload_shed": shed,
        "bit_exact": True,
        "rows": rows,
    }


def smoke_check(record: Dict) -> List[str]:
    failures = []
    for row in record["layer_micro"]:
        if row["density"] <= 0.05 and row["event_ms"] >= row["legacy_ms"]:
            failures.append(
                f"event path ({row['event_ms']:.2f} ms) not faster than "
                f"legacy ({row['legacy_ms']:.2f} ms) at density "
                f"{row['density']:.0%} on {row['layer']}"
            )
    e2e = record["end_to_end"]
    if e2e["runtime_ms"] >= e2e["legacy_ms"]:
        failures.append(
            f"runtime forward ({e2e['runtime_ms']:.2f} ms) slower than "
            f"legacy ({e2e['legacy_ms']:.2f} ms)"
        )
    # Blocked-scatter gate: at the two sparsest micro densities the
    # blocked event kernel must beat the dense kernel on the deep shape
    # -- otherwise unlocking the event path there bought nothing.
    blocked = record["blocked_scatter"]
    sparsest = sorted(blocked["rows"], key=lambda row: row["density"])[:2]
    for row in sparsest:
        if row["event_ms"] > row["dense_ms"]:
            failures.append(
                f"blocked event ({row['event_ms']:.2f} ms) slower than "
                f"dense ({row['dense_ms']:.2f} ms) at density "
                f"{row['density']:.1%} on the K={blocked['k']} deep shape"
            )
    # Integer-kernel gates: at the two sparsest benched densities the
    # int8 event kernel must be at least as fast as the float event
    # kernel, and the int8 dense kernel within 1.25x of the float dense
    # kernel. Nothing arbitrates int vs float by speed: 'auto' runs the int
    # kernels wherever they are exact, which is only free while they run
    # at float speed -- these gates hold that premise.
    quantized = record["quantized_kernels"]
    sparsest = sorted(quantized["rows"], key=lambda row: row["density"])[:2]
    for row in sparsest:
        if row["int_event_ms"] > row["float_event_ms"]:
            failures.append(
                f"int8 event ({row['int_event_ms']:.2f} ms) slower than "
                f"float event ({row['float_event_ms']:.2f} ms) at density "
                f"{row['density']:.1%} on the K={quantized['k']} deep shape"
            )
        if row["int_dense_ms"] > INT_DENSE_SLACK * row["float_dense_ms"]:
            failures.append(
                f"int8 dense ({row['int_dense_ms']:.2f} ms) over "
                f"{INT_DENSE_SLACK}x float dense "
                f"({row['float_dense_ms']:.2f} ms) at density "
                f"{row['density']:.1%} on the K={quantized['k']} deep shape"
            )
    # Fault-recovery gate: a run that healed a worker crash and a
    # wedged shard must merge to the byte-identical output of the
    # fault-free run, with no task quarantined -- recovery that changes
    # a single bit is silent corruption, not resilience.
    recovery = record["fault_recovery"]
    if not recovery["byte_identical"]:
        failures.append(
            f"fault recovery under plan {recovery['plan']!r} was not "
            "byte-identical to the clean run"
        )
    if recovery["quarantined"]:
        failures.append(
            f"recoverable fault plan {recovery['plan']!r} quarantined "
            f"{recovery['quarantined']} task(s)"
        )
    if recovery["retries"] < 2:
        failures.append(
            f"fault plan {recovery['plan']!r} drove only "
            f"{recovery['retries']} retries: recovery was not exercised"
        )
    # Serving gate: at nominal load every request completes and p99
    # stays under the self-calibrated bound; at overload every offered
    # request is accounted for (completed / rejected / timed out) --
    # shedding is expected there, losing requests is not.
    serving = record["serving"]
    by_load = {row["load"]: row for row in serving["rows"]}
    nominal = by_load["nominal"]
    if nominal["completed"] != nominal["offered"]:
        failures.append(
            f"serving lost requests at nominal load: "
            f"{nominal['completed']}/{nominal['offered']} completed"
        )
    if nominal["p99_ms"] > serving["p99_bound_ms"]:
        failures.append(
            f"serving p99 ({nominal['p99_ms']:.1f} ms) over the "
            f"calibrated bound ({serving['p99_bound_ms']:.1f} ms) at "
            "nominal load"
        )
    for row in serving["rows"]:
        accounted = (
            row["completed"] + row["rejected"] + row["timed_out"]
            + row["failed"]
        )
        if accounted != row["offered"]:
            failures.append(
                f"serving {row['load']} row leaked requests: "
                f"{accounted}/{row['offered']} accounted"
            )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="enforce the perf regression gate (exit 1 on violation)",
    )
    parser.add_argument(
        "--scale", default=os.environ.get("REPRO_BENCH_SCALE", "small"),
        choices=sorted(SCALES),
    )
    args = parser.parse_args(argv)

    deployable, images, params = build_workload(args.scale)
    with runtime_overrides():  # pin the default config for reproducibility
        record = {
            "bench": "runtime_hotpaths",
            "scale": args.scale,
            "workload": "VGG9 direct-coded, untrained, theta=1.0",
            "env": {
                "python": platform.python_version(),
                "numpy": np.__version__,
                "scipy": scipy.__version__,
            },
            "layer_micro": bench_layer_micro(deployable, params),
            "blocked_scatter": bench_blocked_scatter(params),
            "end_to_end": bench_end_to_end(deployable, images, params),
            "parallel": bench_parallel(deployable, images, params),
            "persistent_pool": bench_persistent_pool(params),
            "fault_recovery": bench_fault_recovery(deployable, images, params),
            "eval_cache": bench_eval_cache(),
            "quantized_kernels": bench_quantized_kernels(params),
            "serving": bench_serving(deployable, images, params),
        }

    path = result_path(args.scale)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2)
        handle.write("\n")

    print(f"wrote {path}")
    print(
        f"end-to-end: legacy {record['end_to_end']['legacy_ms']:.2f} ms, "
        f"runtime {record['end_to_end']['runtime_ms']:.2f} ms "
        f"({record['end_to_end']['speedup']:.2f}x)"
    )
    par = record["parallel"]
    print(
        f"sharded x{par['shards']}: serial {par['serial_ms']:.2f} ms "
        f"({par['serial_images_per_s']:.1f} img/s), 2-worker pool "
        f"{par['pooled_ms']:.2f} ms ({par['pooled_images_per_s']:.1f} img/s, "
        f"{par['pooled_speedup']:.2f}x, {par['workers_available']} core(s) "
        "available)"
    )
    pool = record["persistent_pool"]
    print(
        f"persistent pool: cold call {pool['cold_call_ms']:.2f} ms, warm "
        f"call {pool['warm_call_ms']:.2f} ms ({pool['startup_amortization']:.1f}x "
        f"amortized, {pool['warm_runs']} warm run(s), "
        f"{pool['pool_starts']} pool start(s))"
    )
    recovery = record["fault_recovery"]
    print(
        f"fault recovery: clean {recovery['clean_ms']:.2f} ms, faulted "
        f"{recovery['faulted_ms']:.2f} ms (+{recovery['recovery_overhead_ms']:.2f} ms "
        f"for {recovery['retries']} retr{'y' if recovery['retries'] == 1 else 'ies'}, "
        f"byte_identical={recovery['byte_identical']})"
    )
    cache = record["eval_cache"]
    print(
        f"eval cache: cold {cache['cold_ms']:.2f} ms, warm "
        f"{cache['warm_ms']:.2f} ms ({cache['speedup']:.1f}x, "
        f"{cache['hits']} hit(s), {cache['stores']} store(s))"
    )
    for row in record["layer_micro"]:
        print(
            f"  {row['layer']} @ {row['density']:.0%}: "
            f"legacy {row['legacy_ms']:.3f} ms | fused {row['fused_ms']:.3f} ms"
            f" | event {row['event_ms']:.3f} ms"
        )
    blocked = record["blocked_scatter"]
    print(
        f"blocked scatter (K={blocked['k']}, k_block={blocked['k_block']}, "
        f"batch {blocked['batch']}):"
    )
    for row in blocked["rows"]:
        routed = "event" if row["density_routes_event"] else "dense"
        print(
            f"  @ {row['density']:.1%}: dense {row['dense_ms']:.3f} ms | "
            f"event {row['event_ms']:.3f} ms ({row['updates']} updates, "
            f"density rule routes {routed})"
        )
    quantized = record["quantized_kernels"]
    print(
        f"quantized kernels (int8p2, K={quantized['k']}, "
        f"bound={quantized['int_bound']}):"
    )
    for row in quantized["rows"]:
        print(
            f"  @ {row['density']:.1%}: float event "
            f"{row['float_event_ms']:.3f} ms | int event "
            f"{row['int_event_ms']:.3f} ms | float dense "
            f"{row['float_dense_ms']:.3f} ms | int dense "
            f"{row['int_dense_ms']:.3f} ms"
        )
    qe2e = quantized["end_to_end"]
    print(
        f"  e2e tiny int8p2: float {qe2e['float_ms']:.2f} ms, int-auto "
        f"{qe2e['int_ms']:.2f} ms ({qe2e['speedup']:.2f}x, "
        f"{qe2e['int_layer_timesteps']} int layer-timesteps)"
    )
    serving = record["serving"]
    print(
        f"serving (max_batch={serving['max_batch']}, capacity "
        f"~{serving['capacity_rps']:.1f} req/s, p99 bound "
        f"{serving['p99_bound_ms']:.0f} ms):"
    )
    for row in serving["rows"]:
        print(
            f"  {row['load']} @ {row['offered_rps']:.1f} req/s: "
            f"{row['completed']}/{row['offered']} completed, "
            f"{row['rejected']} rejected, {row['timed_out']} timed out, "
            f"p50 {row['p50_ms']:.1f} ms, p99 {row['p99_ms']:.1f} ms"
        )
    if args.smoke:
        failures = smoke_check(record)
        for failure in failures:
            print(f"PERF REGRESSION: {failure}", file=sys.stderr)
        if failures:
            return 1
        print("perf smoke gate passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
