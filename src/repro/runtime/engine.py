"""The fused, event-driven inference engine.

Executes a :class:`~repro.runtime.plan.NetworkPlan` layer-major: for each
layer the ``(T, N, ...)`` input train is turned into currents one block
of samples at a time, each block in one or two kernel calls (time
folded into the batch axis), the LIF state scan runs sequentially over
``T`` on the block's fused current, and the spike train feeds the next
layer. Because the network is feed-forward and LIF state is purely
per-layer and per-sample, this reordering of a time-major loop is exact.

Per layer and timestep the dispatcher measures input activity and routes
the step to the dense gather-matmul kernel or the event-driven scatter
kernel (see :mod:`repro.runtime.kernels`); both are calibrated
bit-identical -- for deep conv shapes via the canonical blocked k-fold,
which both kernels share -- so dispatch never changes results, only
speed. Which fold a layer uses is a pure function of the layer shape and
``event_kblock``; the routing knobs (``force_path``,
``dispatch_threshold``) choose between already-bit-identical kernels. A
binary conv timestep takes the event path iff its input density is at
most ``dispatch_threshold`` and the layer has a calibrated fold, so the
route is a pure function of (plan, input activity) and every counter
repeats exactly across runs and processes. Every dense decision is
attributed to its cause (density, calibration, forced) in the layer
counters. The engine also memoises the first-layer current under
time-invariant encodings (direct coding presents the same frame every
timestep), which removes ``(T-1)/T`` of the dense-core work outright.

**Sample lanes and blocks.** A batch of at least ``2 * MIN_LANE_SAMPLES``
runs in several lanes of contiguous samples, one per worker
(:mod:`repro.runtime.lanes`). Per layer the calling thread routes on
whole-batch numbers -- input totals, the per-timestep classification,
integer verdicts, block resolution -- then every lane executes those
decisions on its samples, one block of samples at a time: the block's
current (whose float32 array holds at most ``max_fused_elements``
elements, one sample at least), then one pass per LIF block of samples
for BN, LIF scan, spike counts and OR-pool (:func:`spike_pass`) --
writing its slice of one whole-batch uint8 train, so a recorded train
is never copied, no conv layer's whole current ever exists, and a
pooling layer's unpooled train only exists block by block. The calling
thread sums the lanes' exact integer counts into ``SpikeStats``, the
next layer's activity and the counters. Lanes and blocks are
byte-identical to one whole-batch call because no kernel's per-sample
output depends on the other samples of its call: conv GEMMs run per
sample (``np.matmul`` over stacked im2col matrices), CSR rows fold per
output row in ascending k, LIF, BN and OR-pool are elementwise, and
OpenBLAS splits a GEMM over M and N, never K, so running the lanes'
GEMMs on one BLAS thread changes no fold. FC GEMMs are the exception --
OpenBLAS picks a row's fold by the batch height -- so FC currents, and
the currents of uncalibrated float dense folds, are computed on the
whole batch before the split.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.runtime.config import LayerCounters, RuntimeConfig, runtime_config
from repro.runtime.heap import retain_freed_memory
from repro.runtime.kernels import (
    BufferPool,
    calibrate_event_exact,
    calibrate_int_exact,
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


def spike_pass(
    current: np.ndarray,
    beta: float,
    threshold: float,
    spike_rule: str,
    window: int,
    out: np.ndarray,
    pool: Optional[BufferPool] = None,
    bn: Optional[LayerPlan] = None,
) -> Tuple[List[int], List[int]]:
    """Everything after a layer's kernel, one pass per ``lif_scan``
    block of samples: BN (of ``bn``, when given), the LIF scan, its
    per-timestep spike counts, the OR-pool over ``window`` and the
    pooled train's counts.

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
        block = current[:, start:stop]
        if bn is not None:
            block = (block - bn.bn_mu) * bn.bn_inv_std
            block = block * bn.bn_gamma + bn.bn_beta
        spikes = out[:, start:stop] if window == 1 else scratch[:, : stop - start]
        lif_scan(
            block, beta, threshold, spike_rule, final_reset=False, out=spikes
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
    dispatcher's dense/event split.
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
        # Block temporaries are freed and reallocated block after block;
        # keep the heap from returning them to the kernel in between.
        retain_freed_memory()
        self._block_by_layer: Dict[str, Optional[int]] = {}
        self._int_by_layer: Dict[str, Tuple[bool, Optional[str]]] = {}

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
        the float kernels' code at the float kernels' speed, so the
        dense/event route is the same whichever datapath runs.
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
            if not layer.int_overflow_ok:
                reason = "overflow"
            elif config.int_kernels == "on" or calibrate_int_exact(layer, block):
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
        bounds = lane_bounds(samples, lane_count(samples))
        # Scratch pools are made here, not in the lanes.
        pools = [self.buffers.lane(i) for i in range(len(bounds))]
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
            # Per-timestep activity: reused for the time-major input
            # totals, the density dispatch, and the binary check. A spike
            # train's count is both its sum and its nnz (binary values,
            # exact below 2^24 per timestep), and a binary encoder's byte
            # frames are a spike train; only float encoder output is
            # scanned twice. A time-invariant first layer scans its one
            # frame once.
            invariant = time_invariant and layer.is_input_layer
            if counts is None and x.dtype == np.uint8:
                counts = _spike_counts(x)
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
            route = self._route(
                config,
                layer,
                x,
                t_sums,
                t_nnz,
                analog=analog_first and layer.is_input_layer,
                time_invariant=invariant,
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
            lanes = run_lanes(
                lambda i: self._lane(
                    config, layer, route, x, train, bounds[i], pools[i]
                ),
                len(bounds),
            )
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
    ) -> "_LaneResult":
        """One lane's share of a layer, samples ``[lo, hi)``, one block
        of samples at a time: the block's current (its slice of a
        whole-batch ``route.current``, when there is one), its
        :func:`spike_pass` into that slice of the whole-batch output
        ``train``, and its exact counts and scatter updates added to the
        lane's."""
        lo, hi = bounds
        timesteps = x.shape[0]
        rows = _block_samples(config, layer, route, timesteps)
        counts = [0] * timesteps
        train_counts = [0] * timesteps
        updates = 0
        plan = self.plan
        for start in range(lo, hi, rows):
            stop = min(hi, start + rows)
            if route.current is not None:
                current = route.current[:, start:stop]
            else:
                current, block_updates = self._current(
                    config, layer, route, x[:, start:stop], pool, block=True
                )
                updates += block_updates
            block_counts, block_train_counts = spike_pass(
                current, plan.beta, plan.threshold, plan.spike_rule,
                layer.pool_after, train[:, start:stop], pool,
                bn=layer if layer.has_bn else None,
            )
            _add_lists(counts, block_counts)
            _add_lists(train_counts, block_train_counts)
        return _LaneResult(counts, train_counts, updates)

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def _route(
        self,
        config: RuntimeConfig,
        layer: LayerPlan,
        x: np.ndarray,
        t_sums: List[float],
        t_nnz: Optional[List[int]],
        analog: bool,
        time_invariant: bool,
        counter: LayerCounters,
    ) -> "_Route":
        """Decide, on whole-batch activity, which kernel computes each
        timestep of ``layer`` and tally the decisions in ``counter``
        (all but the scatter updates, which the kernels count).

        Lazily built state the kernels read (block tables, integer
        weight copies) is built here, before any lane runs.
        """
        timesteps = x.shape[0]
        conv = layer.kind == "conv"
        block = self._layer_block(layer) if conv and not analog else None
        int_eligible = conv and not analog and layer.has_int_lowering
        use_int, int_reason = (
            self._layer_int(layer, block) if int_eligible else (False, None)
        )
        if time_invariant:
            route = self._route_frame(
                config, layer, x[0], t_sums[0],
                t_nnz[0] if t_nnz is not None else None,
                analog, block, use_int, int_reason, timesteps, counter,
            )
        elif t_nnz is None:  # dispatch disabled: everything is dense
            reason = "forced" if config.force_path == "dense" else "density"
            if not conv or analog:
                reason = None
            counter.count_dense(reason, timesteps)
            int_dense = False
            if use_int:
                # The int dense kernel needs strictly binary input; with
                # the per-timestep scan disabled, check the whole batch.
                int_dense = float(np.count_nonzero(x)) == sum(t_sums)
                if int_dense:
                    counter.int_dense_steps += timesteps
            elif int_reason is not None:
                counter.count_float_fallback(int_reason, timesteps)
            route = _Route(["dense"] * timesteps, block, int_dense=int_dense)
        else:
            route = self._route_steps(
                config, layer, t_sums, t_nnz, x[0].size, analog,
                block, use_int, int_eligible, int_reason, counter,
            )
        # A GEMM's fold may depend on the BLAS thread count, which is
        # one in the lanes: only a fold calibrated equal to the scatter
        # kernel's ascending-k fold is proven not to. FC layers and
        # uncalibrated float dense folds run on the whole batch here.
        route.whole_batch = not conv or (
            "dense" in route.paths
            and not route.int_dense
            and not self._fold_calibrated(layer, block, analog)
        )
        if block:
            layer.block_tables(block)
        if route.int_dense:
            layer.wq_f32()
        if route.int_event:
            layer.wqT_f32()
        return route

    def _fold_calibrated(
        self, layer: LayerPlan, block: Optional[int], analog: bool
    ) -> bool:
        """Whether the layer's float dense fold is calibrated identical to
        the event kernel's -- a sequential ascending-k fold per output,
        which OpenBLAS computes alike at every thread count. Analog
        input runs the unblocked fold whatever the layer's block."""
        if analog:
            return calibrate_event_exact(layer)
        return block is not None

    def _route_frame(
        self, config, layer, frame, f_sum, f_nnz, analog, block,
        use_int, int_reason, timesteps, counter,
    ) -> "_Route":
        """Route a time-invariant layer's one frame (memoised current,
        broadcast over every timestep)."""
        conv = layer.kind == "conv"
        path, reason = "dense", None
        if f_nnz is None:
            reason = "forced" if config.force_path == "dense" else "density"
            if not conv or analog:
                reason = None
        elif f_nnz == 0 and conv and not analog:
            path = "empty"  # same shortcut as the per-timestep route
        else:
            use_event, reason = self._classify_step(
                config, layer, block, analog, f_sum, f_nnz, frame.size
            )
            path = "event" if use_event else "dense"
        if path == "dense":
            counter.count_dense(reason, timesteps)
        else:
            counter.event_steps += timesteps
            if path == "event":
                if use_int:
                    counter.int_event_steps += timesteps
                elif int_reason is not None:
                    counter.count_float_fallback(int_reason, timesteps)
        return _Route(
            [path], block, int_event=use_int and path == "event", broadcast=True
        )

    def _route_steps(
        self, config, layer, t_sums, t_nnz, slice_size, analog,
        block, use_int, int_eligible, int_reason, counter,
    ) -> "_Route":
        """Route every timestep of a layer on its own activity."""
        # Timesteps with zero events short-circuit to a bias broadcast:
        # a GEMM over an all-zero input yields exact zeros under *any*
        # BLAS fold, so this is bit-exact without calibration (and it is
        # where near-silent deep layers spend most of their steps). The
        # integer path agrees by construction: a zero accumulator
        # dequantizes to exactly the bias.
        paths: List[str] = []
        dense_binary = True  # every routed dense step had binary input
        for t, nnz in enumerate(t_nnz):
            if nnz == 0:
                paths.append("empty")
                continue
            use_event, reason = self._classify_step(
                config, layer, block, analog, t_sums[t], nnz, slice_size
            )
            if use_event:
                paths.append("event")
            else:
                paths.append("dense")
                counter.count_dense(reason)
                if float(nnz) != t_sums[t]:
                    dense_binary = False
        events = paths.count("event")
        denses = paths.count("dense")
        counter.event_steps += events + paths.count("empty")
        # Dense steps run the int flavour only when every routed dense
        # step is binary.
        int_dense = use_int and denses > 0 and dense_binary
        if events:
            if use_int:
                counter.int_event_steps += events
            elif int_reason is not None:
                counter.count_float_fallback(int_reason, events)
        if denses and int_eligible and dense_binary:
            if int_dense:
                counter.int_dense_steps += denses
            elif int_reason is not None:
                counter.count_float_fallback(int_reason, denses)
        return _Route(
            paths, block, int_dense=int_dense, int_event=use_int and events > 0
        )

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
        """Route one layer-timestep: ``(use_event, dense_reason)``.

        A binary conv step takes the event path iff its density
        ``nnz / size`` is at most ``dispatch_threshold`` and the layer
        has a calibrated fold. ``dense_reason`` attributes a dense
        decision for the counters: ``None`` (ineligible by
        construction), ``'forced'``, ``'density'`` or ``'calibration'``.
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
    when the layer pools; the same list otherwise) and its scatter
    updates."""

    counts: List[int]
    train_counts: List[int]
    updates: int


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
