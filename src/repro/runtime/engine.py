"""The fused, event-driven inference engine.

Executes a :class:`~repro.runtime.plan.NetworkPlan` layer-major: for each
layer the full ``(T, N, ...)`` input train is turned into currents in one
or two kernel calls (time folded into the batch axis), the LIF state scan
runs sequentially over ``T`` on the fused tensor, and the spike train
feeds the next layer. Because the network is feed-forward and LIF state
is purely per-layer, this reordering of the legacy time-major loop is
exact.

Per layer and timestep the dispatcher measures input activity and routes
the step to the dense gather-matmul kernel or the event-driven scatter
kernel (see :mod:`repro.runtime.kernels`); both are calibrated
bit-identical -- for deep conv shapes via the canonical blocked k-fold,
which both kernels share -- so dispatch never changes results, only
speed. Which fold a layer uses is a pure function of the layer shape and
``event_kblock``; the routing knobs (``force_path``,
``dispatch_threshold``, ``dispatch_policy``) choose between
already-bit-identical kernels. Under ``dispatch_policy='cost'``
(default) eligible timesteps are routed by predicted wall time from the
measured per-layer cost model (:mod:`repro.runtime.costmodel`), and
every dense decision is attributed to its cause (density, cost,
calibration, forced) in the layer counters. The engine also memoises the
first-layer current under time-invariant encodings (direct coding
presents the same frame every timestep), which removes ``(T-1)/T`` of
the dense-core work outright.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.runtime.config import LayerCounters, RuntimeConfig, runtime_config
from repro.runtime.costmodel import ensure_cost_state
from repro.runtime.kernels import (
    BufferPool,
    calibrate_int_exact,
    dense_conv,
    dense_conv_int,
    dense_fc,
    event_conv,
    event_conv_blocked,
    event_conv_int,
    or_pool,
    resolve_event_backend,
    resolve_event_block,
)
from repro.runtime.plan import LayerPlan, NetworkPlan
from repro.snn.metrics import SpikeStats
from repro.snn.neuron import lif_scan

_UNRESOLVED = object()


def stack_encoder_frames(encoder, images: np.ndarray, timesteps: int, record: bool = False):
    """Encode ``images`` for every timestep into one (T, N, ...) array.

    Time-invariant encodings (direct coding) are encoded once and
    broadcast -- zero copies for the T-fold repetition. When ``record``
    is set the base frame is copied first: recorded trains are handed
    back to the caller and must not alias the caller's image buffer
    (the legacy loops copied every recorded frame).

    The first-layer memoisation this enables keys on the declared
    *stream* property (``time_invariant``, shared by every encoder with
    the same ``stream_signature()``) -- never on the identity of a
    particular encoder object, so re-materialised worker-side encoders
    and the parent's original memoise identically.

    Returns ``(stacked, time_invariant)``.
    """
    encoder.reset()
    time_invariant = bool(getattr(encoder, "time_invariant", False))
    if time_invariant:
        base = encoder.encode(images, 0).data
        if record:
            base = base.copy()
        return np.broadcast_to(base, (timesteps,) + base.shape), True
    stacked = np.stack(
        [encoder.encode(images, t).data for t in range(timesteps)]
    )
    return stacked, False


def _spike_counts(train: np.ndarray) -> List[int]:
    """Per-timestep spike counts of a contiguous (T, ...) train the
    engine produced.

    Its entries are exactly ``+0.0`` or ``1.0`` -- ``lif_scan`` writes
    comparison results and OR-pooling takes maxima of them, never
    ``-0.0`` -- so counting nonzero uint32 words is exact, and several
    times faster than a float scan.
    """
    return [int(np.count_nonzero(step)) for step in train.view(np.uint32)]


@dataclass
class RuntimeResult:
    """Everything one engine pass produces.

    ``trains`` holds the exact per-layer input trains as stacked
    ``(T, N, ...)`` arrays (views are shared with engine internals; do
    not mutate). ``counters`` records the dispatcher's dense/event split.
    """

    accumulated: np.ndarray  # (N, population) output spike counts
    stats: SpikeStats
    input_totals: Dict[str, float]
    trains: Optional[Dict[str, np.ndarray]] = None
    counters: Dict[str, LayerCounters] = field(default_factory=dict)


class InferenceEngine:
    """Runs a lowered network plan over stacked encoder output."""

    def __init__(
        self,
        plan: NetworkPlan,
        config: Optional[RuntimeConfig] = None,
        buffers: Optional[BufferPool] = None,
    ) -> None:
        self.plan = plan
        self.config = config
        self.buffers = buffers if buffers is not None else BufferPool()
        self._block_by_layer: Dict[str, Optional[int]] = {}
        self._int_by_layer: Dict[str, Tuple[bool, Optional[str]]] = {}

    def _config(self) -> RuntimeConfig:
        return self.config if self.config is not None else runtime_config()

    def _layer_block(self, layer: LayerPlan) -> Optional[int]:
        """The layer's calibrated fold: ``None`` (no exact event config,
        dense fallback on the unblocked fold), ``0`` (unblocked event
        path exact) or a block size.

        A pure function of (shape, ``event_kblock``, backend) -- never of
        the routing knobs -- so forcing a path or changing the dispatch
        policy can never change which fold a layer computes with. This
        is deliberate even for dense-only configurations
        (``force_path='dense'``, threshold 0): they pay the one-time
        resolution probes and the slightly slower blocked dense GEMM on
        deep shapes so their results stay bit-comparable with routed
        runs -- the property every equivalence test and determinism gate
        relies on. Opting a deployment out of blocking entirely is what
        ``event_kblock=0`` is for.
        """
        cached = self._block_by_layer.get(layer.name, _UNRESOLVED)
        if cached is not _UNRESOLVED:
            return cached
        config = self._config()
        block = resolve_event_block(
            layer,
            resolve_event_backend(config.event_backend),
            config.event_kblock,
        )
        self._block_by_layer[layer.name] = block
        return block

    def _layer_int(
        self, layer: LayerPlan, block: Optional[int]
    ) -> Tuple[bool, Optional[str]]:
        """The layer's integer-datapath decision: ``(use_int, reason)``.

        ``use_int`` says whether the layer's binary conv steps -- dense
        and event alike -- run the integer kernels; ``reason``
        attributes steps that stayed float on an int-lowered layer
        (``'overflow'``, ``'exactness'``, or ``None`` when nothing fell
        back -- including layers that carry no lowering at all).

        Resolution order (``int_kernels``): ``'off'`` never routes to
        int. ``'on'`` forces the integer kernels whenever the overflow
        bound holds -- their fold is exact, so any dense/event/batch
        split still yields identical results, but they may differ from
        the float reference when the exactness probe would have failed.
        ``'auto'`` is exactness-preserving: the overflow bound and the
        per-layer bit-exactness probe must pass. The integer kernels run
        the float kernels' code at the float kernels' speed, so no cost
        arbitration is involved and the decision is the same under
        either ``dispatch_policy``.
        """
        cached = self._int_by_layer.get(layer.name)
        if cached is not None:
            return cached
        config = self._config()
        use_int = False
        reason: Optional[str] = None
        if (
            config.int_kernels != "off"
            and layer.kind == "conv"
            and layer.has_int_lowering
        ):
            backend = resolve_event_backend(config.event_backend)
            if not layer.int_overflow_ok:
                reason = "overflow"
            elif config.int_kernels == "on" or calibrate_int_exact(
                layer, backend, block
            ):
                use_int = True
            else:
                reason = "exactness"
        result = (use_int, reason)
        self._int_by_layer[layer.name] = result
        return result

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(
        self,
        stacked: np.ndarray,
        record: bool = False,
        analog_first: bool = False,
        time_invariant: bool = False,
    ) -> RuntimeResult:
        """Execute the plan on stacked input of shape (T, N, C, H, W).

        Args:
            stacked: encoder output for every timestep (a broadcast view
                is fine when the encoding is time-invariant).
            record: keep each layer's input train.
            analog_first: first layer consumes analog (non-binary) input
                (direct coding) and must never take the event path.
            time_invariant: every timestep of ``stacked`` is the same
                frame, enabling first-layer current memoisation.
        """
        plan = self.plan
        config = self._config()
        timesteps, samples = stacked.shape[0], stacked.shape[1]
        stats = SpikeStats(samples=samples, timesteps=timesteps)
        input_totals: Dict[str, float] = {}
        trains: Optional[Dict[str, np.ndarray]] = {} if record else None
        counters: Dict[str, LayerCounters] = {}
        # Density scans only matter when the dispatcher can actually
        # route away from the dense kernel.
        dispatch_possible = config.force_path != "dense" and (
            config.force_path == "event" or config.dispatch_threshold > 0.0
        )
        x = stacked
        # Per-timestep spike counts of ``x`` once it is a spike train.
        counts: Optional[List[int]] = None
        for layer in plan.layers:
            if trains is not None:
                trains[layer.name] = x
            # Per-timestep activity: reused for the legacy-ordered input
            # totals, the density dispatch, and the binary check. A spike
            # train's count is both its sum and its nnz (binary values,
            # exact below 2^24 per timestep); only the encoder's output is
            # scanned twice. A time-invariant first layer scans its one
            # frame once.
            invariant = time_invariant and layer.is_input_layer
            if counts is not None:
                t_sums = [float(count) for count in counts]
                t_nnz = counts if dispatch_possible else None
            else:
                frames = x[:1] if invariant else x
                repeat = timesteps if invariant else 1
                t_sums = [float(frame.sum()) for frame in frames] * repeat
                t_nnz = (
                    [int(np.count_nonzero(frame)) for frame in frames] * repeat
                    if dispatch_possible
                    else None
                )
            total = 0.0
            for value in t_sums:
                total = total + value
            input_totals[layer.name] = total
            layer_counter = counters.setdefault(layer.name, LayerCounters())
            current = self._layer_current(
                layer,
                x,
                t_sums,
                t_nnz,
                analog=analog_first and layer.is_input_layer,
                time_invariant=time_invariant and layer.is_input_layer,
                counter=layer_counter,
            )
            if layer.has_bn:
                current = (current - layer.bn_mu) * layer.bn_inv_std
                current = current * layer.bn_gamma + layer.bn_beta
            spikes, _ = lif_scan(
                current, plan.beta, plan.threshold, plan.spike_rule,
                final_reset=False,
            )
            counts = _spike_counts(spikes)
            for t in range(timesteps):
                stats.record(layer.name, t, spikes[t], counts[t])
            x = spikes
            if layer.pool_after > 1:
                flat = x.reshape((timesteps * samples,) + x.shape[2:])
                pooled = or_pool(flat, layer.pool_after)
                x = pooled.reshape((timesteps, samples) + pooled.shape[1:])
                counts = _spike_counts(x)
        accumulated = np.zeros(
            (samples, plan.layers[-1].out_channels), dtype=np.float32
        )
        flat_out = x.reshape(timesteps, samples, -1)
        for t in range(timesteps):
            accumulated += flat_out[t]
        return RuntimeResult(
            accumulated=accumulated,
            stats=stats,
            input_totals=input_totals,
            trains=trains,
            counters=counters,
        )

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def _layer_current(
        self,
        layer: LayerPlan,
        x: np.ndarray,
        t_sums: List[float],
        t_nnz: List[int],
        analog: bool,
        time_invariant: bool,
        counter: LayerCounters,
    ) -> np.ndarray:
        timesteps, samples = x.shape[0], x.shape[1]
        block = (
            self._layer_block(layer)
            if layer.kind == "conv" and not analog
            else None
        )
        int_eligible = (
            layer.kind == "conv" and not analog and layer.has_int_lowering
        )
        use_int, int_reason = (
            self._layer_int(layer, block) if int_eligible else (False, None)
        )
        if time_invariant:
            cur0, used_event, updates, used_int, reason = self._batch_current(
                layer,
                x[0],
                t_sums[0],
                t_nnz[0] if t_nnz is not None else None,
                analog,
                block,
            )
            if used_event:
                counter.event_steps += timesteps
                counter.event_updates += updates
                if used_int:
                    counter.int_event_steps += timesteps
                    counter.int_event_updates += updates
                elif int_reason is not None and updates:
                    counter.count_float_fallback(int_reason, timesteps)
            else:
                counter.count_dense(reason, timesteps)
            return np.broadcast_to(cur0, (timesteps,) + cur0.shape)

        config = self._config()
        out_spatial = (
            (layer.out_channels, layer.geometry.oh, layer.geometry.ow)
            if layer.kind == "conv"
            else (layer.out_channels,)
        )
        if t_nnz is None:  # dispatch disabled: everything is dense
            reason = "forced" if config.force_path == "dense" else "density"
            if layer.kind != "conv" or analog:
                reason = None
            counter.count_dense(reason, timesteps)
            fused = x.reshape((timesteps * samples,) + x.shape[2:])
            int_dense = False
            if use_int:
                # The int dense kernel needs strictly binary input; with
                # the per-timestep scan disabled, check the fused batch.
                nnz = int(np.count_nonzero(fused))
                int_dense = float(nnz) == sum(t_sums)
                if int_dense:
                    counter.int_dense_steps += timesteps
            elif int_reason is not None:
                counter.count_float_fallback(int_reason, timesteps)
            return self._kernel_dense(layer, fused, block, int_dense).reshape(
                (timesteps, samples) + out_spatial
            )
        slice_size = x[0].size
        # Timesteps with zero events short-circuit to a bias broadcast:
        # a GEMM over an all-zero input yields exact zeros under *any*
        # BLAS fold, so this is bit-exact without calibration (and it is
        # where near-silent deep layers spend most of their steps). The
        # integer path agrees by construction: a zero accumulator
        # dequantizes to exactly the bias.
        empty_ts: List[int] = []
        event_ts: List[int] = []
        dense_ts: List[int] = []
        dense_binary = True  # every routed dense step had binary input
        for t in range(timesteps):
            if t_nnz[t] == 0:
                empty_ts.append(t)
                continue
            use_event, reason = self._classify_step(
                config, layer, block, analog,
                t_sums[t], t_nnz[t], slice_size, samples,
            )
            if use_event:
                event_ts.append(t)
            else:
                dense_ts.append(t)
                counter.count_dense(reason)
                if float(t_nnz[t]) != t_sums[t]:
                    dense_binary = False
        counter.event_steps += len(event_ts) + len(empty_ts)
        # Dense steps run the int flavour only when the whole fused dense
        # batch is binary (one kernel call either way).
        use_int_dense = use_int and bool(dense_ts) and dense_binary
        if event_ts:
            if use_int:
                counter.int_event_steps += len(event_ts)
            elif int_reason is not None:
                counter.count_float_fallback(int_reason, len(event_ts))
        if dense_ts and int_eligible and dense_binary:
            if use_int_dense:
                counter.int_dense_steps += len(dense_ts)
            elif int_reason is not None:
                counter.count_float_fallback(int_reason, len(dense_ts))
        bias_cast = layer.bias.reshape(
            (1, 1, -1) + (1,) * (len(out_spatial) - 1)
        )
        if not dense_ts and not event_ts:
            return np.broadcast_to(bias_cast, (timesteps, samples) + out_spatial)
        if not event_ts and not empty_ts:
            fused = x.reshape((timesteps * samples,) + x.shape[2:])
            return self._kernel_dense(layer, fused, block, use_int_dense).reshape(
                (timesteps, samples) + out_spatial
            )
        if not dense_ts and not empty_ts:
            fused = x.reshape((timesteps * samples,) + x.shape[2:])
            cur, updates = self._kernel_event(layer, fused, block, use_int)
            counter.event_updates += updates
            if use_int:
                counter.int_event_updates += updates
            return cur.reshape((timesteps, samples) + out_spatial)
        current = np.empty((timesteps, samples) + out_spatial, dtype=np.float32)
        if empty_ts:
            current[empty_ts] = bias_cast[0]
        if dense_ts:
            batch_d = x[dense_ts].reshape((-1,) + x.shape[2:])
            current[dense_ts] = self._kernel_dense(
                layer, batch_d, block, use_int_dense
            ).reshape((len(dense_ts), samples) + out_spatial)
        if event_ts:
            batch_e = x[event_ts].reshape((-1,) + x.shape[2:])
            cur_e, updates = self._kernel_event(layer, batch_e, block, use_int)
            counter.event_updates += updates
            if use_int:
                counter.int_event_updates += updates
            current[event_ts] = cur_e.reshape(
                (len(event_ts), samples) + out_spatial
            )
        return current

    def _classify_step(
        self,
        config: RuntimeConfig,
        layer: LayerPlan,
        block: Optional[int],
        analog: bool,
        t_sum: float,
        nnz: int,
        size: int,
        samples: int,
    ) -> Tuple[bool, Optional[str]]:
        """Route one layer-timestep: ``(use_event, dense_reason)``.

        ``dense_reason`` attributes a dense decision for the counters:
        ``None`` (ineligible by construction), ``'forced'``,
        ``'density'``, ``'calibration'`` or ``'cost'``.
        """
        if layer.kind != "conv" or analog or size == 0:
            return False, None
        binary = float(nnz) == t_sum  # non-negative spikes: sum==nnz <=> {0,1}
        if not binary:
            return False, None
        if config.force_path == "dense":
            return False, "forced"
        if config.force_path == "event":
            # Never dispatch to a shape without a calibrated bit-exact
            # event configuration (see kernels docs).
            if block is None:
                return False, "calibration"
            return True, None
        if config.dispatch_threshold <= 0.0:
            return False, "density"
        if (
            config.dispatch_threshold < 1.0
            and nnz / size > config.dispatch_threshold
        ):
            return False, "density"
        if block is None:
            return False, "calibration"
        if config.dispatch_policy == "cost" and config.dispatch_threshold < 1.0:
            backend = resolve_event_backend(config.event_backend)
            state = ensure_cost_state(layer, backend, block or None)
            updates = nnz * layer.geometry.avg_taps
            if state.predict_event_ms(updates) > state.predict_dense_ms(samples):
                return False, "cost"
        return True, None

    def _batch_current(self, layer, xb, b_sum, b_nnz, analog, block):
        """Single-batch current with dispatch (time-invariant memo path).

        Returns ``(current, used_event, updates, used_int, dense_reason)``.
        """
        config = self._config()
        if b_nnz is not None:
            if b_nnz == 0 and layer.kind == "conv" and not analog:
                # Empty-input shortcut, same as the per-timestep path.
                bias_cast = layer.bias.reshape(
                    (1, -1) + (1,) * (xb.ndim - 2)
                )
                shape = (xb.shape[0], layer.out_channels,
                         layer.geometry.oh, layer.geometry.ow)
                return np.broadcast_to(bias_cast, shape), True, 0, False, None
            use_event, reason = self._classify_step(
                config, layer, block, analog, b_sum, b_nnz, xb.size,
                xb.shape[0],
            )
            if use_event:
                use_int, _ = (
                    self._layer_int(layer, block)
                    if layer.has_int_lowering
                    else (False, None)
                )
                cur, updates = self._kernel_event(layer, xb, block, use_int)
                return cur, True, updates, use_int, None
        else:
            reason = "forced" if config.force_path == "dense" else "density"
            if layer.kind != "conv" or analog:
                reason = None
        return self._kernel_dense(layer, xb, block), False, 0, False, reason

    # ------------------------------------------------------------------
    # Kernels
    # ------------------------------------------------------------------
    def _kernel_dense(
        self,
        layer: LayerPlan,
        batch: np.ndarray,
        block: Optional[int] = None,
        use_int: bool = False,
    ) -> np.ndarray:
        if layer.kind == "conv":
            start = time.perf_counter()  # repro: lint-ok[D102] cost-model EMA measurement; never reaches results
            max_elements = self._config().max_fused_elements
            if use_int:
                out = dense_conv_int(
                    layer, batch, buffers=self.buffers, max_elements=max_elements
                )
            else:
                out = dense_conv(
                    layer,
                    batch,
                    buffers=self.buffers,
                    max_elements=max_elements,
                    kblock=block if block else None,
                )
            state = layer.cost_state
            if state is not None:
                ms = (time.perf_counter() - start) * 1e3  # repro: lint-ok[D102] cost-model EMA measurement; never reaches results
                state.observe_dense(ms, batch.shape[0])
            return out
        return dense_fc(layer, batch.reshape(batch.shape[0], -1))

    def _kernel_event(
        self,
        layer: LayerPlan,
        batch: np.ndarray,
        block: Optional[int] = None,
        use_int: bool = False,
    ):
        backend = resolve_event_backend(self._config().event_backend)
        start = time.perf_counter()  # repro: lint-ok[D102] cost-model EMA measurement; never reaches results
        if use_int:
            # No blocked variant: the integer fold is exact in any order.
            result = event_conv_int(layer, batch, backend)
        elif block:
            result = event_conv_blocked(layer, batch, backend, block)
        else:
            result = event_conv(layer, batch, backend)
        state = layer.cost_state
        if state is not None:
            ms = (time.perf_counter() - start) * 1e3  # repro: lint-ok[D102] cost-model EMA measurement; never reaches results
            state.observe_event(ms, result[1])
        return result
