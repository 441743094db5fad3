"""Measured dispatch-cost model for the dense/event kernel choice.

A density threshold answers "is the event path *legal and plausibly*
cheaper here"; it cannot answer "is it *actually* cheaper on this
machine for this layer". The two diverge exactly where the blocked
k-fold matters most: on deep conv shapes the dense GEMM is large but
perfectly amortised, while the scatter cost scales with events x taps --
at 5% density the event path can lose by 1.5x on the same shape where it
wins by 5x at 0.5% (measured in ``BENCH_runtime.json``'s
``blocked_scatter`` section). The dispatcher therefore tracks, per
layer:

* ``dense_ms_per_sample`` -- wall time of the dense kernel divided by
  the fused batch it processed, and
* ``event_ms_per_update`` -- wall time of the event kernel divided by
  the scatter contributions (events x in-bounds taps) it accumulated,

both seeded by a one-shot probe on the layer's real shape (so the very
first routed timestep already has a calibrated estimate) and refined
online with an exponential moving average every time a kernel actually
runs. A timestep is routed to the event path when

    predicted_updates * event_ms_per_update <= samples * dense_ms_per_sample

with ``predicted_updates = nnz * geometry.avg_taps`` (the expected
scatter contributions for the observed input activity).

Both kernels are calibrated bit-identical before any of this applies, so
cost routing can only ever change *speed*. It does make the dispatch
*counters* wall-clock dependent -- contexts that byte-compare counters
pin ``dispatch_policy='density'`` (see :class:`RuntimeConfig`).

The model arbitrates dense vs event only. Integer-lowered layers need
no second arbitration: their integer kernels are the same unfold/GEMM
and scatter code run over integer-valued float32 weights (see
:mod:`repro.runtime.kernels`), so they cost what the float kernels cost
and the rates observed on either describe both.

Persistence: plan sidecars (:mod:`repro.runtime.plan_io`) carry each
event-eligible layer's probe-seeded rates, gated by the same
environment fingerprint as the calibration verdicts, so cold-started
workers skip the seeding probe GEMMs and their first routed timestep is
already informed by measured rates (then refined online as usual).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.runtime.plan import LayerPlan
from repro.utils.rng import new_rng

#: EMA weight of a new online observation (probe seeds count as the
#: first observation). High enough to adapt within a few calls, low
#: enough that one scheduling hiccup cannot flip the routing.
EMA_ALPHA = 0.3

#: Input density of the one-shot seeding probe. Sparse enough that the
#: event side is exercised in its intended regime, dense enough that it
#: accumulates a measurable number of updates on every shape.
PROBE_DENSITY = 0.05

#: Samples in the seeding probe's batch. A single sample would charge
#: the dense kernel's fixed setup (im2col, GEMM launch) entirely to one
#: sample's rate; a small batch amortizes it closer to the fused-batch
#: rates real calls see.
PROBE_BATCH = 4


@dataclass
class LayerCostState:
    """Measured per-layer kernel rates (milliseconds)."""

    dense_ms_per_sample: float
    event_ms_per_update: float

    def predict_dense_ms(self, samples: int) -> float:
        return self.dense_ms_per_sample * samples

    def predict_event_ms(self, updates: float) -> float:
        return self.event_ms_per_update * updates

    def observe_dense(self, ms: float, samples: int) -> None:
        if samples < 1 or ms <= 0.0:
            return
        rate = ms / samples
        self.dense_ms_per_sample += EMA_ALPHA * (rate - self.dense_ms_per_sample)

    def observe_event(self, ms: float, updates: int) -> None:
        if updates < 1 or ms <= 0.0:
            return
        rate = ms / updates
        self.event_ms_per_update += EMA_ALPHA * (rate - self.event_ms_per_update)


def probe_cost_state(
    layer: LayerPlan, backend: str, kblock: Optional[int]
) -> LayerCostState:
    """One-shot timing probe of both kernels on ``layer``'s real shape.

    Runs the exact kernel variants the dispatcher would run (blocked
    when the layer resolved to a blocked fold) on a small random binary
    batch, so the seeded rates reflect this process, this BLAS and this
    cache state. Deterministic inputs; the timings of course are not --
    which is the point.

    The seed is still an estimate: real dense calls fuse larger batches
    and amortize better than even a :data:`PROBE_BATCH`-sample probe, so
    the seeded dense rate errs *high* -- which biases borderline steps
    toward the event path, i.e. toward exactly what the pre-cost-model
    density policy always did. Layers with any above-threshold (or
    cost-vetoed) timesteps then refine the dense rate from real
    observations; layers that never run dense keep at worst the
    historical routing, never something slower than it.
    """
    from repro.runtime.kernels import (
        dense_conv,
        event_conv,
        event_conv_blocked,
    )

    g = layer.geometry
    rng = new_rng(0x5EED)
    probe = (
        rng.random((PROBE_BATCH, g.cin, g.height, g.width)) < PROBE_DENSITY
    ).astype(np.float32)

    start = time.perf_counter()
    dense_conv(layer, probe, kblock=kblock if kblock else None)
    dense_ms = (time.perf_counter() - start) * 1e3

    start = time.perf_counter()
    if kblock:
        _, updates = event_conv_blocked(layer, probe, backend, kblock)
    else:
        _, updates = event_conv(layer, probe, backend)
    event_ms = (time.perf_counter() - start) * 1e3

    return LayerCostState(
        dense_ms_per_sample=max(dense_ms, 1e-6) / PROBE_BATCH,
        event_ms_per_update=max(event_ms, 1e-6) / max(updates, 1),
    )


def ensure_cost_state(
    layer: LayerPlan, backend: str, kblock: Optional[int]
) -> LayerCostState:
    """The layer's cost state, probing it on first use.

    Stored on the :class:`LayerPlan` so the estimate survives across
    engine instances (one is built per forward call) for as long as the
    plan is cached, and is rebuilt -- cheaply, one probe -- whenever the
    plan is relowered or a worker materialises it from a sidecar.
    """
    state = layer.cost_state
    if state is None:
        state = probe_cost_state(layer, backend, kblock)
        layer.cost_state = state
    return state
