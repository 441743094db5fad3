"""The fused, event-driven inference engine.

Executes a :class:`~repro.runtime.plan.NetworkPlan` (a lowered
:class:`~repro.quant.convert.DeployableNetwork`) layer-major: for each
layer the ``(T, N, ...)`` input train is turned into currents one block
of samples at a time, each block in one or two kernel calls (time
folded into the batch axis), the LIF state scan runs sequentially over
``T`` on the block's fused current, and the spike train feeds the next
layer. Because the network is feed-forward and LIF state is purely
per-layer and per-sample, this reordering of a time-major loop is exact.

Per layer the dispatcher measures the input activity of each frame the
layer computes and routes every frame by one rule: to the dense
gather-matmul kernel, the event-driven scatter kernel (see
:mod:`repro.runtime.kernels`) or, for an all-zero frame while the event
path is on, the bias. The kernels are calibrated bit-identical -- for
deep conv shapes via the canonical blocked k-fold, which both share --
so dispatch never changes results, only speed. Which fold a layer uses
is a pure function of the layer shape and ``event_kblock``. A binary
conv frame takes the event path iff its input density is at most
``dispatch_threshold`` and the layer has a calibrated fold, so the route
is a pure function of (plan, input activity) and every counter repeats
exactly across runs and processes. Every dense decision is attributed to
its cause (density, calibration, forced) in the layer counters. Under a
time-invariant encoding (direct coding presents the same frame every
timestep) the first layer computes its one frame, routed and counted for
every timestep, and broadcasts the current: ``(T-1)/T`` of the
dense-core work is gone outright.

**Sample lanes and blocks.** A batch of at least ``2 * MIN_LANE_SAMPLES``
runs in several lanes of contiguous samples, one per worker
(:mod:`repro.runtime.lanes`). Per layer the calling thread routes on
whole-batch numbers -- input totals, the per-frame classification,
the integer datapath, block resolution -- then every lane executes those
decisions on its samples, one block of samples at a time: the block's
current (whose float32 array holds at most ``max_fused_elements``
elements, one sample at least), then one pass per LIF block of samples
for LIF scan, spike counts and OR-pool (:func:`spike_pass`) --
writing its slice of one whole-batch uint8 train, so a recorded train
is never copied, no conv layer's whole current ever exists, and a
pooling layer's unpooled train only exists block by block. A caller's
``reducer`` sees each block of the layer's input train the same way,
while the train is live (the simulator reduces it to cycle sums there),
so no caller needs a recorded train to read one. The calling
thread sums the lanes' exact integer counts into ``SpikeStats``, the
next layer's activity and the counters. Lanes and blocks are
byte-identical to one whole-batch call because no kernel's per-sample
output depends on the other samples of its call: conv GEMMs run per
sample (``np.matmul`` over stacked im2col matrices), CSR rows fold per
output row in ascending k, LIF and OR-pool are elementwise, and
OpenBLAS splits a GEMM over M and N, never K, so running the lanes'
GEMMs on one BLAS thread changes no fold. FC GEMMs are the exception --
OpenBLAS picks a row's fold by the batch height -- so FC currents, and
the currents of uncalibrated float dense folds, are computed on the
whole batch before the split.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.errors import ShapeError
from repro.runtime.config import LayerCounters, RuntimeConfig, runtime_config
from repro.runtime.heap import retain_freed_memory
from repro.runtime.kernels import (
    BufferPool,
    calibrate_event_exact,
    dense_conv,
    dense_conv_int,
    dense_fc,
    event_conv,
    event_conv_blocked,
    event_conv_int,
    or_pool,
    resolve_event_block,
)
from repro.runtime.lanes import lane_bounds, lane_count, run_lanes
from repro.runtime.plan import LayerPlan, NetworkPlan
from repro.snn.metrics import SpikeStats
from repro.snn.neuron import lif_block_rows, lif_scan

_UNRESOLVED = object()


def stack_encoder_frames(encoder, images: np.ndarray, timesteps: int, record: bool = False):
    """Encode ``images`` for every timestep into one (T, N, ...) array.

    Time-invariant encodings (direct coding) are encoded once and
    broadcast -- zero copies for the T-fold repetition. When ``record``
    is set the base frame is copied first: recorded trains are handed
    back to the caller and must not alias the caller's image buffer.

    The first-layer memoisation this enables keys on the declared
    *stream* property (``time_invariant``, shared by every encoder with
    the same ``stream_signature()``) -- never on the identity of a
    particular encoder object, so re-materialised worker-side encoders
    and the parent's original memoise identically.

    Binary encodings (``encoder.byte_frames``) write each timestep's
    spikes straight into one uint8 stack: a spike train in the engine
    is bytes from its first layer on. Other encodings are stacked as
    :meth:`~repro.snn.encoding.Encoder.encode` returns them.

    Returns ``(stacked, time_invariant)``.
    """
    time_invariant = bool(getattr(encoder, "time_invariant", False))
    if time_invariant:
        base = encoder.encode(images, 0).data
        if record:
            base = base.copy()
        return np.broadcast_to(base, (timesteps,) + base.shape), True
    if getattr(encoder, "byte_frames", False):
        images = np.asarray(images)
        stacked = np.empty((timesteps,) + images.shape, dtype=np.uint8)
        for t in range(timesteps):
            encoder.encode_into(images, t, stacked[t])
        return stacked, False
    stacked = np.stack(
        [encoder.encode(images, t).data for t in range(timesteps)]
    )
    return stacked, False


def _spike_counts(train: np.ndarray) -> List[int]:
    """Per-timestep spike counts of a (T, ...) byte train (or a block
    of one) the engine produced.

    Its bytes are exactly 0 or 1 -- ``lif_scan`` and the encoders write
    comparison results, OR-pooling takes maxima of them -- so counting
    the set entries of its bool view is exact, and the fastest scan
    numpy has.
    """
    return [int(np.count_nonzero(step)) for step in train.view(np.bool_)]


#: ``reducer(layer index, layer, block)``, see :meth:`InferenceEngine.run`.
Reducer = Callable[[int, "LayerPlan", np.ndarray], object]


def spike_pass(
    current: np.ndarray,
    beta: float,
    threshold: float,
    window: int,
    out: np.ndarray,
    pool: Optional[BufferPool] = None,
) -> Tuple[List[int], List[int]]:
    """Everything after a layer's kernel, one pass per ``lif_scan``
    block of samples: the LIF scan, its per-timestep spike counts, the
    OR-pool over ``window`` and the pooled train's counts. (BN is folded
    into the plan's weights, so the current is the membrane input.)

    ``current`` is the ``(T, n, ...)`` current of one sample block of a
    lane (see :meth:`InferenceEngine._lane`) and ``out`` the
    ``(T, n, ...)`` uint8 train the pass writes: the LIF output itself
    when ``window`` is 1, else its pooled train, while the unpooled
    block lives in a block-sized byte scratch from ``pool``. Every stage
    is elementwise per sample, so the blocks change no value; the
    result equals ``lif_scan`` + ``or_pool`` + per-timestep
    ``count_nonzero`` on the whole train. Returns ``(counts,
    out_counts)``: exact per-timestep counts of the LIF output and of
    ``out`` (one list when ``window`` is 1).
    """
    timesteps, samples = current.shape[0], current.shape[1]
    rows = max(1, min(samples, lif_block_rows(current.shape[2:])))
    if window > 1:
        pool = pool if pool is not None else BufferPool()
        scratch = pool.scratch(
            "lif_train", (timesteps, rows) + current.shape[2:], np.uint8
        )
    counts = [0] * timesteps
    out_counts = counts if window == 1 else [0] * timesteps
    for start in range(0, samples, rows):
        stop = min(samples, start + rows)
        spikes = out[:, start:stop] if window == 1 else scratch[:, : stop - start]
        lif_scan(
            current[:, start:stop], beta, threshold, final_reset=False,
            out=spikes,
        )
        _add_counts(counts, spikes)
        if window > 1:
            pooled = out[:, start:stop]
            or_pool(spikes, window, out=pooled)
            _add_counts(out_counts, pooled)
    return counts, out_counts


def _add_counts(totals: List[int], train: np.ndarray) -> None:
    """Add a (T, ...) byte train's per-timestep counts to ``totals``."""
    _add_lists(totals, _spike_counts(train))


def _add_lists(totals: List[int], counts: List[int]) -> None:
    """Add per-timestep ``counts`` to ``totals`` in place."""
    for t, count in enumerate(counts):
        totals[t] += count


@dataclass
class RuntimeResult:
    """Everything one engine pass produces.

    ``trains`` holds the exact per-layer input trains as stacked
    ``(T, N, ...)`` arrays (views are shared with engine internals; do
    not mutate). A binary train -- every layer's input after the first,
    and a rate- or TTFS-coded first layer's -- is uint8 with values in
    {0, 1}; direct coding's analog input frame stays float32. Compare
    trains by value, not by dtype or bytes. ``counters`` records the
    dispatcher's dense/event split. ``reduced`` holds, per layer, what
    the run's ``reducer`` returned for each block of its input train, in
    lane order, then block order.
    """

    accumulated: np.ndarray  # (N, population) output spike counts
    stats: SpikeStats
    input_totals: Dict[str, float]
    trains: Optional[Dict[str, np.ndarray]] = None
    counters: Dict[str, LayerCounters] = field(default_factory=dict)
    reduced: Optional[Dict[str, List[object]]] = None


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
        # Block temporaries are freed and reallocated block after block;
        # keep the heap from returning them to the kernel in between.
        retain_freed_memory()
        self._block_by_layer: Dict[str, Optional[int]] = {}

    def _config(self) -> RuntimeConfig:
        return self.config if self.config is not None else runtime_config()

    def _layer_block(self, layer: LayerPlan) -> Optional[int]:
        """The layer's calibrated fold: ``None`` (no exact event config,
        dense fallback on the unblocked fold), ``0`` (unblocked event
        path exact) or a block size.

        A pure function of (shape, ``event_kblock``) -- never of
        the routing knobs -- so forcing a path or moving the dispatch
        threshold can never change which fold a layer computes with. This
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
        block = resolve_event_block(layer, self._config().event_kblock)
        self._block_by_layer[layer.name] = block
        return block

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(
        self,
        stacked: np.ndarray,
        record: bool = False,
        analog_first: bool = False,
        time_invariant: bool = False,
        reducer: Optional[Reducer] = None,
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
            reducer: called as ``reducer(index, layer, block)`` on every
                ``(T, n, ...)`` sample block of each layer's input train,
                in its lane, before the block's kernels run; the results
                land in ``RuntimeResult.reduced``. It must not keep or
                mutate the block, and runs concurrently across lanes.

        Raises:
            ShapeError: ``stacked`` is not a non-empty (T, N, C, H, W)
                array whose frames match the plan's input shape.
        """
        plan = self.plan
        config = self._config()
        self._check_input(stacked)
        timesteps, samples = stacked.shape[0], stacked.shape[1]
        bounds = lane_bounds(samples, lane_count(samples))
        # Scratch pools are made here, not in the lanes.
        pools = [self.buffers.lane(i) for i in range(len(bounds))]
        stats = SpikeStats(samples=samples, timesteps=timesteps)
        input_totals: Dict[str, float] = {}
        trains: Optional[Dict[str, np.ndarray]] = {} if record else None
        counters: Dict[str, LayerCounters] = {}
        reduced: Optional[Dict[str, List[object]]] = {} if reducer else None
        x = stacked
        # Spike counts of the frames a layer computes, once ``x`` is a
        # spike train.
        counts: Optional[List[int]] = None
        for index, layer in enumerate(plan.layers):
            if trains is not None:
                trains[layer.name] = x
            # Activity of each frame the layer computes -- a
            # time-invariant input layer its one frame, any other layer
            # its T frames -- reused for the time-major input totals,
            # the routing and the binary check. A spike train's count is
            # both its sum and its nnz (binary values, exact below 2^24
            # per timestep), and a binary encoder's byte frames are a
            # spike train; only float encoder output is scanned.
            invariant = time_invariant and layer.is_input_layer
            frames = x[:1] if invariant else x
            repeat = timesteps if invariant else 1
            if counts is None and x.dtype == np.uint8:
                counts = _spike_counts(frames)
            if counts is not None:
                sums = [float(count) for count in counts]
                nnz = counts
            else:
                sums = [float(frame.sum()) for frame in frames]
                nnz = [int(np.count_nonzero(frame)) for frame in frames]
            total = 0.0
            for value in sums * repeat:
                total = total + value
            input_totals[layer.name] = total
            layer_counter = counters.setdefault(layer.name, LayerCounters())
            route = self._route(
                config, layer, frames[0].size, sums, nnz, repeat,
                analog=analog_first and layer.is_input_layer,
                counter=layer_counter,
            )
            updates = 0
            if route.whole_batch:
                route.current, updates = self._current(
                    config, layer, route, x, self.buffers
                )
            # Every lane writes its slice of the layer's whole-batch
            # output train: the pooled one when the layer pools, whose
            # unpooled spikes only ever exist block by block.
            shape = (timesteps, samples) + _out_shape(layer)
            if layer.pool_after > 1:
                window = layer.pool_after
                shape = shape[:-2] + (shape[-2] // window, shape[-1] // window)
            train = np.empty(shape, dtype=np.uint8)
            reduce = partial(reducer, index, layer) if reducer else None
            lanes = run_lanes(
                lambda i: self._lane(
                    config, layer, route, x, train, bounds[i], pools[i], reduce
                ),
                len(bounds),
            )
            if reduced is not None:
                reduced[layer.name] = [
                    result for lane in lanes for result in lane.reduced
                ]
            neurons = math.prod(_out_shape(layer))
            for t in range(timesteps):
                stats.record(
                    layer.name, t,
                    count=sum(lane.counts[t] for lane in lanes),
                    neurons=neurons,
                )
            updates += sum(lane.updates for lane in lanes)
            layer_counter.event_updates += updates
            if route.int_event:
                layer_counter.int_event_updates += updates
            x = train
            counts = [
                sum(lane.train_counts[t] for lane in lanes)
                for t in range(timesteps)
            ]
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
            reduced=reduced,
        )

    def _check_input(self, stacked: np.ndarray) -> None:
        """Raise ``ShapeError`` unless ``stacked`` is a non-empty
        (T, N, C, H, W) array of the plan's input frames (an FC input
        layer takes any frame of its input size)."""
        first = self.plan.layers[0]
        frame = tuple(stacked.shape[2:])
        if first.kind == "conv":
            fits = frame == tuple(first.input_shape)
        else:
            fits = math.prod(frame) == math.prod(first.input_shape)
        if stacked.ndim != 5 or not fits or 0 in stacked.shape[:2]:
            raise ShapeError(
                f"expected non-empty (T, N, {tuple(first.input_shape)}) "
                f"input, got {stacked.shape}"
            )

    def _lane(
        self,
        config: RuntimeConfig,
        layer: LayerPlan,
        route: "_Route",
        x: np.ndarray,
        train: np.ndarray,
        bounds: Tuple[int, int],
        pool: BufferPool,
        reduce: Optional[Callable[[np.ndarray], object]] = None,
    ) -> "_LaneResult":
        """One lane's share of a layer, samples ``[lo, hi)``, one block
        of samples at a time: ``reduce`` of the block's input, the
        block's current (its slice of a whole-batch ``route.current``,
        when there is one), its :func:`spike_pass` into that slice of
        the whole-batch output ``train``, and its exact counts and
        scatter updates added to the lane's."""
        lo, hi = bounds
        timesteps = x.shape[0]
        rows = _block_samples(config, layer, route, timesteps)
        counts = [0] * timesteps
        train_counts = [0] * timesteps
        updates = 0
        reduced: List[object] = []
        plan = self.plan
        for start in range(lo, hi, rows):
            stop = min(hi, start + rows)
            if reduce is not None:
                reduced.append(reduce(x[:, start:stop]))
            if route.current is not None:
                current = route.current[:, start:stop]
            else:
                current, block_updates = self._current(
                    config, layer, route, x[:, start:stop], pool, block=True
                )
                updates += block_updates
            block_counts, block_train_counts = spike_pass(
                current, plan.beta, plan.threshold, layer.pool_after,
                train[:, start:stop], pool,
            )
            _add_lists(counts, block_counts)
            _add_lists(train_counts, block_train_counts)
        return _LaneResult(counts, train_counts, updates, reduced)

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def _route(
        self,
        config: RuntimeConfig,
        layer: LayerPlan,
        size: int,
        sums: List[float],
        nnz: List[int],
        repeat: int,
        analog: bool,
        counter: LayerCounters,
    ) -> "_Route":
        """Decide, on whole-batch activity, which kernel computes each
        frame of ``layer`` and tally the decisions in ``counter`` (all but
        the scatter updates, which the kernels count).

        ``sums`` and ``nnz`` hold one entry per computed frame of
        ``size`` elements. Each frame stands for ``repeat`` timesteps: a
        time-invariant layer computes its one frame for all ``T``, any
        other layer each of its ``T`` frames once. Every frame takes the
        same rule, and the counters count timesteps.

        Lazily built state the kernels read (block tables, integer
        weight copies) is built here, before any lane runs.
        """
        conv = layer.kind == "conv"
        block = self._layer_block(layer) if conv and not analog else None
        # Binary conv steps of an int-lowered layer run the integer
        # kernels wherever the 2^24 accumulation bound holds.
        int_eligible = conv and not analog and layer.has_int_lowering
        use_int = int_eligible and layer.int_overflow_ok
        overflow = int_eligible and not use_int
        # Frames with zero events short-circuit to a bias broadcast: a
        # GEMM over an all-zero input yields exact zeros under *any* BLAS
        # fold, so this is bit-exact without calibration (and it is where
        # near-silent deep layers spend most of their steps). The integer
        # path agrees by construction: a zero accumulator dequantizes to
        # exactly the bias. The shortcut counts as an event step, so it
        # is off with the event path.
        event_path = config.force_path == "event" or (
            config.force_path is None and config.dispatch_threshold > 0.0
        )
        paths: List[str] = []
        dense_binary = True  # every routed dense frame had binary input
        for f_sum, f_nnz in zip(sums, nnz):
            if f_nnz == 0 and event_path:
                paths.append("empty")
                continue
            use_event, reason = self._classify_step(
                config, layer, block, analog, f_sum, f_nnz, size
            )
            if use_event:
                paths.append("event")
            else:
                paths.append("dense")
                counter.count_dense(reason, repeat)
                if float(f_nnz) != f_sum:
                    dense_binary = False
        events = paths.count("event") * repeat
        denses = paths.count("dense") * repeat
        counter.event_steps += events + paths.count("empty") * repeat
        # Dense frames run the int flavour only when every one is binary.
        int_dense = use_int and denses > 0 and dense_binary
        if events:
            if use_int:
                counter.int_event_steps += events
            elif overflow:
                counter.float_overflow_steps += events
        if denses and dense_binary:
            if int_dense:
                counter.int_dense_steps += denses
            elif overflow:
                counter.float_overflow_steps += denses
        route = _Route(
            paths, block, int_dense=int_dense,
            int_event=use_int and events > 0, broadcast=repeat > 1,
        )
        # A GEMM's fold may depend on the BLAS thread count, which is
        # one in the lanes: only a fold calibrated equal to the scatter
        # kernel's ascending-k fold is proven not to (analog input runs
        # the unblocked fold whatever the layer's block). FC layers and
        # uncalibrated float dense folds run on the whole batch here.
        route.whole_batch = not conv or (
            "dense" in paths
            and not int_dense
            and not (calibrate_event_exact(layer) if analog else block is not None)
        )
        if block:
            layer.block_tables(block)
        if int_dense:
            layer.wq_f32()
        if route.int_event:
            layer.wqT_f32()
        return route

    def _classify_step(
        self,
        config: RuntimeConfig,
        layer: LayerPlan,
        block: Optional[int],
        analog: bool,
        t_sum: float,
        nnz: int,
        size: int,
    ) -> Tuple[bool, Optional[str]]:
        """Route one frame: ``(use_event, dense_reason)``.

        A binary conv frame takes the event path iff its density
        ``nnz / size`` is at most ``dispatch_threshold`` (1 under
        ``force_path='event'``) and the layer has a calibrated fold.
        ``dense_reason`` attributes a dense decision for the counters:
        ``None`` (ineligible by construction), ``'forced'``,
        ``'density'`` or ``'calibration'``.
        """
        if layer.kind != "conv" or analog:
            return False, None
        binary = float(nnz) == t_sum  # non-negative spikes: sum==nnz <=> {0,1}
        if not binary:
            return False, None
        if config.force_path == "dense":
            return False, "forced"
        threshold = 1.0 if config.force_path == "event" else config.dispatch_threshold
        if threshold <= 0.0 or (threshold < 1.0 and nnz / size > threshold):
            return False, "density"
        # Never dispatch to a shape without a calibrated bit-exact event
        # configuration (see kernels docs).
        if block is None:
            return False, "calibration"
        return True, None

    # ------------------------------------------------------------------
    # Kernels
    # ------------------------------------------------------------------
    def _current(
        self,
        config: RuntimeConfig,
        layer: LayerPlan,
        route: "_Route",
        x: np.ndarray,
        pool: BufferPool,
        block: bool = False,
    ) -> Tuple[np.ndarray, int]:
        """The (T, n, ...) current of input ``x`` (one block of a lane's
        samples, or the whole batch) under ``route``, and the scatter
        updates made.

        Consecutive timesteps on the same kernel share one fused call.
        A block of a multi-step train is not contiguous, so it is first
        copied into the pool's byte scratch. A ``block`` current is the
        pool's ``"block_current"`` scratch, valid until the pool's next
        block; a whole-batch current is a fresh array.
        """
        frames = x[:1] if route.broadcast else x
        steps, samples = frames.shape[0], frames.shape[1]
        out_shape = _out_shape(layer)
        bias = layer.bias.reshape((-1,) + (1,) * (len(out_shape) - 1))
        if all(path == "empty" for path in route.paths):
            return np.broadcast_to(bias, (x.shape[0], samples) + out_shape), 0
        shape = (steps, samples) + out_shape
        if block:
            current = pool.scratch("block_current", shape)
        else:
            current = np.empty(shape, dtype=np.float32)
        if not frames.flags.c_contiguous:
            contiguous = pool.scratch("block_input", frames.shape, frames.dtype)
            np.copyto(contiguous, frames)
            frames = contiguous
        updates = 0
        for path, first, stop in _runs(route.paths):
            out = current[first:stop].reshape((-1,) + out_shape)
            if path == "empty":
                out[...] = bias
                continue
            batch = frames[first:stop].reshape((-1,) + frames.shape[2:])
            if path == "dense":
                self._kernel_dense(config, layer, batch, route, pool, out)
            else:
                updates += self._kernel_event(layer, batch, route, out)
        if route.broadcast:
            current = np.broadcast_to(current, (x.shape[0],) + current.shape[1:])
        return current, updates

    def _kernel_dense(
        self,
        config: RuntimeConfig,
        layer: LayerPlan,
        batch: np.ndarray,
        route: "_Route",
        pool: BufferPool,
        out: np.ndarray,
    ) -> None:
        if layer.kind != "conv":
            out[...] = dense_fc(layer, batch.reshape(batch.shape[0], -1))
        elif route.int_dense:
            dense_conv_int(
                layer, batch, buffers=pool,
                max_elements=config.max_fused_elements, out=out,
            )
        else:
            dense_conv(
                layer, batch, buffers=pool,
                max_elements=config.max_fused_elements,
                kblock=route.block or None, out=out,
            )

    def _kernel_event(
        self,
        layer: LayerPlan,
        batch: np.ndarray,
        route: "_Route",
        out: np.ndarray,
    ) -> int:
        if route.int_event:
            # No blocked variant: the integer fold is exact in any order.
            _, updates = event_conv_int(layer, batch, out=out)
        elif route.block:
            _, updates = event_conv_blocked(layer, batch, route.block, out=out)
        else:
            _, updates = event_conv(layer, batch, out=out)
        return updates


@dataclass
class _Route:
    """One layer's whole-batch routing, executed alike by every lane.

    ``paths`` names the kernel of each computed frame: ``'empty'`` (the
    bias), ``'dense'`` or ``'event'``. A time-invariant layer computes
    one frame and broadcasts it over every timestep (``broadcast``).
    ``whole_batch`` layers compute their current on the whole batch
    before the lanes split (``current``); the lanes slice it.
    """

    paths: List[str]
    block: Optional[int] = None
    int_dense: bool = False
    int_event: bool = False
    broadcast: bool = False
    whole_batch: bool = False
    current: Optional[np.ndarray] = None


@dataclass
class _LaneResult:
    """What one lane reports for one layer: exact per-timestep spike
    counts of its LIF output and of its output train (the pooled one
    when the layer pools; the same list otherwise), its scatter updates
    and its blocks' reducer results."""

    counts: List[int]
    train_counts: List[int]
    updates: int
    reduced: List[object]


def _out_shape(layer: LayerPlan) -> Tuple[int, ...]:
    """Per-sample shape of a layer's current and spike output."""
    if layer.kind == "conv":
        return (layer.out_channels, layer.geometry.oh, layer.geometry.ow)
    return (layer.out_channels,)


def _block_samples(
    config: RuntimeConfig, layer: LayerPlan, route: "_Route", timesteps: int
) -> int:
    """Samples per block of a lane: as many as keep the block's float32
    current within ``max_fused_elements`` elements, one at least. A
    broadcast layer's current holds one frame per sample, any other
    layer's ``timesteps``."""
    frames = 1 if route.broadcast else timesteps
    per_sample = frames * math.prod(_out_shape(layer))
    return max(1, config.max_fused_elements // per_sample)


def _runs(paths: List[str]) -> List[Tuple[str, int, int]]:
    """``(path, first, stop)`` timestep ranges covering ``paths``:
    maximal runs of one path."""
    runs: List[Tuple[str, int, int]] = []
    for t, path in enumerate(paths):
        if runs and runs[-1][0] == path:
            runs[-1] = (path, runs[-1][1], t + 1)
        else:
            runs.append((path, t, t + 1))
    return runs
