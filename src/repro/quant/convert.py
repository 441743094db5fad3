"""Conversion to a deployable (inference-only) network.

:func:`convert` takes a trained :class:`~repro.snn.network.SpikingNetwork`
-- plain or QAT-wrapped -- folds batch norm away, quantizes weights and
biases per the scheme, and emits a :class:`DeployableNetwork`: the exact
functional model of what the accelerator executes (integer weights +
scales, float membranes). The hardware simulator wraps this model with
timing, resource and power estimates; keeping function and timing apart
makes each independently testable.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import QuantizationError, ShapeError
from repro.quant.fold import fold_batchnorm
from repro.quant.quantizer import dequantize_array, quantize_array
from repro.quant.schemes import FP32, QuantScheme, scheme_by_name
from repro.runtime import (
    BufferPool,
    InferenceEngine,
    LayerCounters,
    plan_deployable,
    stack_encoder_frames,
)
from repro.runtime.engine import Reducer
from repro.snn.encoding import DirectEncoder, Encoder
from repro.snn.metrics import SpikeStats
from repro.snn.network import SpikingNetwork
from repro.snn.neuron import LIFConfig
from repro.utils.serialization import load_npz, save_npz


@dataclass
class DeployableLayer:
    """One weight-bearing layer in deployment form.

    ``weight_q`` holds integers (int32 storage) when quantized, floats for
    fp32. ``pool_after`` is the OR-pool window applied to this layer's
    output spikes (1 = none). ``is_input_layer`` marks the direct-coding
    dense-core layer.
    """

    name: str
    kind: str  # 'conv' | 'fc'
    weight_q: np.ndarray
    bias_q: np.ndarray
    weight_scale: Optional[np.ndarray]
    bias_scale: Optional[np.ndarray]
    kernel: int
    padding: int
    input_shape: Tuple[int, ...]
    output_shape: Tuple[int, ...]
    pool_after: int = 1
    is_input_layer: bool = False

    def effective_weight(self) -> np.ndarray:
        """Dequantized weights -- what the shift-and-add units produce."""
        if self.weight_scale is None:
            return self.weight_q.astype(np.float32)
        return dequantize_array(self.weight_q, self.weight_scale)

    def effective_bias(self) -> np.ndarray:
        if self.bias_scale is None:
            return self.bias_q.astype(np.float32)
        return dequantize_array(self.bias_q, self.bias_scale)

    @property
    def out_channels(self) -> int:
        return int(self.weight_q.shape[0])

    @property
    def weight_count(self) -> int:
        return int(self.weight_q.size)

    def weight_storage_bits(self, weight_bits: int) -> int:
        """Bits of on-chip storage for this layer's weights + biases."""
        return (self.weight_q.size + self.bias_q.size) * weight_bits

    @property
    def zero_weight_fraction(self) -> float:
        """Fraction of exactly-zero weights (quantization snaps small
        weights to zero -- one mechanism behind Fig. 1's sparsity gain)."""
        return float((self.effective_weight() == 0).mean())


@dataclass
class DeployableOutput:
    """Results of one deployable forward pass.

    When recording, ``spike_trains_stacked`` holds each layer's input
    train as one ``(T, N, ...)`` array, which the hardware simulator
    consumes in a single batched pass, and ``spike_trains`` the same
    trains as per-timestep lists of zero-copy views.
    ``runtime_counters`` holds the dispatcher's per-layer counts and
    ``reduced`` what a forward's ``reducer`` returned per layer (see
    :meth:`DeployableNetwork.forward`).

    A binary train is uint8 with values in {0, 1} (every layer's input
    after the first, and a rate- or TTFS-coded first layer's); direct
    coding's analog first-layer input stays float32. Compare trains by
    value: the runtime does not cast its trains back to float32, as
    that copy would be four times their size.
    """

    logits: np.ndarray
    stats: SpikeStats
    input_spike_totals: Dict[str, float] = field(default_factory=dict)
    spike_trains: Optional[Dict[str, List[np.ndarray]]] = None
    spike_trains_stacked: Optional[Dict[str, np.ndarray]] = None
    runtime_counters: Optional[Dict[str, LayerCounters]] = None
    reduced: Optional[Dict[str, List[object]]] = None


class DeployableNetwork:
    """Inference-only network with (optionally) integer weights.

    Execution is pure NumPy -- no autograd tape -- and mirrors the
    hardware's arithmetic: dequantized weights, float membrane
    accumulation, reset-by-subtraction LIF, OR-pooling on spikes.
    """

    def __init__(
        self,
        layers: List[DeployableLayer],
        lif: LIFConfig,
        num_classes: int,
        scheme: QuantScheme,
        input_shape: Tuple[int, int, int],
    ) -> None:
        if not layers:
            raise QuantizationError("deployable network needs at least one layer")
        self.layers = layers
        self.lif = lif
        self.num_classes = num_classes
        self.scheme = scheme
        self.input_shape = tuple(input_shape)
        self.population_size = layers[-1].out_channels
        if self.population_size % num_classes:
            raise QuantizationError(
                f"population {self.population_size} not divisible by "
                f"{num_classes} classes"
            )
        self.population_group = self.population_size // num_classes
        self._runtime_plan = None
        self._runtime_buffers = BufferPool()

    # ------------------------------------------------------------------
    # Inference
    # ------------------------------------------------------------------
    def _checked_images(self, images: np.ndarray, timesteps: int) -> np.ndarray:
        """``images`` as float32, once they and ``timesteps`` are known
        to describe at least one step of a non-empty batch."""
        if timesteps < 1:
            raise ShapeError(f"timesteps must be >= 1, got {timesteps}")
        images = np.asarray(images, dtype=np.float32)
        if images.ndim != 4 or images.shape[1:] != self.input_shape:
            raise ShapeError(
                f"expected (N, {self.input_shape}) images, got {images.shape}"
            )
        if images.shape[0] == 0:
            raise ShapeError("expected at least one image, got an empty batch")
        return images

    def forward(
        self,
        images: np.ndarray,
        timesteps: int,
        encoder: Optional[Encoder] = None,
        record: bool = False,
        reducer: Optional[Reducer] = None,
    ) -> DeployableOutput:
        """Run ``timesteps`` of inference on an image batch through the
        fused inference runtime (see :mod:`repro.runtime`).

        A ``reducer`` is called on every sample block of every layer's
        input train while it is live, and its results are returned in
        ``DeployableOutput.reduced`` (see
        :meth:`~repro.runtime.engine.InferenceEngine.run`): a train
        read that way is never recorded.

        Results are bit-identical across every dispatch setting (forced
        dense == forced event == density-routed). Shapes on the
        unblocked fold (every layer, when ``event_kblock=0``) also match
        a per-timestep loop over full-``K`` GEMMs bit for bit; deep conv
        shapes on the default canonical blocked fold may differ from
        that loop in the last ulp.
        """
        images = self._checked_images(images, timesteps)
        encoder = encoder or DirectEncoder()
        stacked, time_invariant = stack_encoder_frames(
            encoder, images, timesteps, record=record
        )
        if self._runtime_plan is None:
            self._runtime_plan = plan_deployable(self)
        engine = InferenceEngine(
            self._runtime_plan, buffers=self._runtime_buffers
        )
        result = engine.run(
            stacked,
            record=record,
            analog_first=encoder.analog_input,
            time_invariant=time_invariant,
            reducer=reducer,
        )
        n = images.shape[0]
        logits = result.accumulated.reshape(
            n, self.num_classes, self.population_group
        ).sum(axis=2)
        trains = (
            {name: list(arr) for name, arr in result.trains.items()}
            if result.trains is not None
            else None
        )
        return DeployableOutput(
            logits=logits,
            stats=result.stats,
            input_spike_totals=result.input_totals,
            spike_trains=trains,
            spike_trains_stacked=result.trains,
            runtime_counters=result.counters,
            reduced=result.reduced,
        )

    def invalidate_runtime_cache(self) -> None:
        """Drop the cached plan (call after mutating layer weights)."""
        self._runtime_plan = None
        self._runtime_buffers.clear()

    def weights_digest(self) -> str:
        """Content digest of the stored (quantized) parameters.

        Cheap (no dequantization) and stable across save/load; it ties an
        ``.eval.json`` entry and a sharded call's worker generation to
        the exact weights behind them, so a retrain can never be served
        a stale result.
        """
        digest = hashlib.sha256()
        for layer in self.layers:
            for array in (
                layer.weight_q, layer.bias_q, layer.weight_scale, layer.bias_scale
            ):
                if array is None:
                    continue
                array = np.ascontiguousarray(array)
                digest.update(str(array.dtype).encode("utf-8"))
                digest.update(str(array.shape).encode("utf-8"))
                digest.update(array.tobytes())
        return digest.hexdigest()

    def __getstate__(self) -> Dict[str, object]:
        """Pickle the model, not what it derives from it: the lowered
        plan and the scratch buffers are rebuilt by the receiving
        process, so the bytes stay small and do not change with the
        forwards run before pickling."""
        state = dict(self.__dict__)
        del state["_runtime_plan"], state["_runtime_buffers"]
        return state

    def __setstate__(self, state: Dict[str, object]) -> None:
        self.__dict__.update(state)
        self._runtime_plan = None
        self._runtime_buffers = BufferPool()

    def predict(
        self,
        images: np.ndarray,
        timesteps: int,
        encoder: Optional[Encoder] = None,
        batch_size: int = 128,
    ) -> np.ndarray:
        """Class predictions, batched to bound memory.

        Offsets are threaded per batch (``encoder.for_samples``) so
        counter-stream encodings do not depend on ``batch_size``.
        """
        encoder = encoder or DirectEncoder()
        outputs = []
        for start in range(0, len(images), batch_size):
            out = self.forward(
                images[start : start + batch_size],
                timesteps,
                encoder.for_samples(start),
            )
            outputs.append(out.logits.argmax(axis=1))
        return np.concatenate(outputs) if outputs else np.empty(0, dtype=int)

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save(self, path: str) -> None:
        arrays: Dict[str, np.ndarray] = {}
        meta = {
            "scheme": self.scheme.name,
            "num_classes": self.num_classes,
            "input_shape": list(self.input_shape),
            "lif_beta": self.lif.beta,
            "lif_threshold": self.lif.threshold,
            "layers": [],
        }
        for index, layer in enumerate(self.layers):
            prefix = f"layer{index}"
            arrays[f"{prefix}.weight_q"] = layer.weight_q
            arrays[f"{prefix}.bias_q"] = layer.bias_q
            if layer.weight_scale is not None:
                arrays[f"{prefix}.weight_scale"] = layer.weight_scale
                arrays[f"{prefix}.bias_scale"] = layer.bias_scale
            meta["layers"].append(
                {
                    "name": layer.name,
                    "kind": layer.kind,
                    "kernel": layer.kernel,
                    "padding": layer.padding,
                    "input_shape": list(layer.input_shape),
                    "output_shape": list(layer.output_shape),
                    "pool_after": layer.pool_after,
                    "is_input_layer": layer.is_input_layer,
                    "quantized": layer.weight_scale is not None,
                }
            )
        save_npz(path, arrays, meta)

    @classmethod
    def load(cls, path: str) -> "DeployableNetwork":
        arrays, meta = load_npz(path)
        layers = []
        for index, info in enumerate(meta["layers"]):
            prefix = f"layer{index}"
            quantized = info["quantized"]
            layers.append(
                DeployableLayer(
                    name=info["name"],
                    kind=info["kind"],
                    weight_q=arrays[f"{prefix}.weight_q"],
                    bias_q=arrays[f"{prefix}.bias_q"],
                    weight_scale=arrays.get(f"{prefix}.weight_scale") if quantized else None,
                    bias_scale=arrays.get(f"{prefix}.bias_scale") if quantized else None,
                    kernel=info["kernel"],
                    padding=info["padding"],
                    input_shape=tuple(info["input_shape"]),
                    output_shape=tuple(info["output_shape"]),
                    pool_after=info["pool_after"],
                    is_input_layer=info["is_input_layer"],
                )
            )
        return cls(
            layers,
            lif=LIFConfig(beta=meta["lif_beta"], threshold=meta["lif_threshold"]),
            num_classes=meta["num_classes"],
            scheme=scheme_by_name(meta["scheme"]),
            input_shape=tuple(meta["input_shape"]),
        )

    def describe(self) -> str:
        lines = [
            f"DeployableNetwork({self.scheme.name}, input={self.input_shape}, "
            f"classes={self.num_classes})"
        ]
        for layer in self.layers:
            pool = f" +pool{layer.pool_after}" if layer.pool_after > 1 else ""
            dense = " [dense-core]" if layer.is_input_layer else ""
            lines.append(
                f"  {layer.name:<10s} {layer.kind:<5s} "
                f"{layer.input_shape} -> {layer.output_shape}{pool}{dense}"
            )
        return "\n".join(lines)


def convert(network: SpikingNetwork, scheme: QuantScheme = FP32) -> DeployableNetwork:
    """Fold BN, quantize, and package ``network`` for deployment."""
    folded = fold_batchnorm(network)
    layers: List[DeployableLayer] = []
    pending: Optional[DeployableLayer] = None
    for stage in network.stages:
        if stage.spec.kind == "pool":
            if pending is None:
                raise QuantizationError("pool layer precedes any compute layer")
            pending.pool_after = stage.spec.kernel
            continue
        weight, bias = folded[stage.name]
        if scheme.is_float:
            weight_q, weight_scale = weight, None
            bias_q, bias_scale = bias, None
        else:
            weight_q, weight_scale = quantize_array(weight, scheme)
            bias_scheme = QuantScheme(bits=scheme.bits, per_channel=False)
            bias_q, bias_scale = quantize_array(bias, bias_scheme)
        layer = DeployableLayer(
            name=stage.name,
            kind="conv" if stage.spec.kind == "conv" else "fc",
            weight_q=weight_q,
            bias_q=bias_q,
            weight_scale=weight_scale,
            bias_scale=bias_scale,
            kernel=stage.spec.kernel if stage.spec.kind == "conv" else 0,
            padding=(stage.spec.kernel // 2) if stage.spec.kind == "conv" else 0,
            input_shape=stage.input_shape,
            output_shape=stage.output_shape,
            is_input_layer=not layers,
        )
        layers.append(layer)
        pending = layer
    return DeployableNetwork(
        layers,
        lif=network.lif_config,
        num_classes=network.num_classes,
        scheme=scheme,
        input_shape=network.input_shape,
    )
