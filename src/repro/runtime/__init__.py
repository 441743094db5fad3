"""Time-fused, event-driven inference runtime for the hot forward path.

Every experiment, table and benchmark in this reproduction funnels
through the same forward loops; this package replaces their per-timestep
Python iteration with a batched engine that exploits exactly the
property the paper's architecture exploits -- spike sparsity.

Execution model
---------------

1. **Plan** (:mod:`repro.runtime.plan`): each deployable network is
   lowered once into per-layer plans holding pre-reshaped
   ``(Cout, Cin*K*K)`` BN-folded weight matrices, cached im2col
   geometry and the precomputed per-pixel index tables used by the
   event path. Repeated timesteps and batches therefore do zero
   redundant index math or dequantization.
2. **Time fusion** (:mod:`repro.runtime.engine`): the stateless
   conv/linear current computation folds ``T`` into the batch axis --
   one gather + one matmul per layer instead of ``T`` small ones. Only
   the LIF membrane scan (Eq. 1/2) stays sequential in time, and it runs
   vectorised over the fused pre-activation tensor.
3. **Event dispatch** (:mod:`repro.runtime.kernels`): per layer and
   timestep, when input spike density falls at or below the dispatch
   threshold, the engine gathers the active event coordinates and
   scatter-accumulates the corresponding weight columns instead of
   running the dense kernel. This is the software twin of the paper's
   Sec. IV-B sparse pipeline: the ECU compresses the input train to
   event addresses, and the accumulation units add one weight column per
   event x tap -- silent neurons cost nothing. Dense timesteps (and the
   analog direct-coded input layer, the dense core's job in hardware)
   keep the matmul path, mirroring the hybrid dense/sparse split.

Bit-exactness is enforced, not assumed: the scatter kernel reproduces a
sequential ascending-``k`` BLAS fold while skipping zero terms, and each
conv layer shape is *calibrated* once against the environment's actual
BLAS kernel (:func:`~repro.runtime.kernels.calibrate_event_exact`).
Shapes whose full-``K`` GEMM folds multi-lane (deep conv layers,
``K >= ~500`` here) switch both kernels to the canonical **blocked
k-fold** (:func:`~repro.runtime.kernels.resolve_event_block` picks the
largest block size whose within-block fold proves single-lane), so the
event path stays open at any depth; only shapes with no bit-exact
configuration at all remain on the dense fallback. Dispatch therefore
affects speed only, and it is a pure function of the plan and the input
activity: a binary conv timestep takes the event path iff its density is
at most the dispatch threshold and its layer has a calibrated fold, so
every dispatch count repeats exactly across runs and processes. Dispatch
decisions -- with the reason for every dense one -- are tallied per
layer in :class:`~repro.runtime.config.LayerCounters` and surfaced in
simulation reports and :func:`~repro.runtime.kernels.plan_report`.

Quantized conv layers carry their integer weights into the plan
(:func:`~repro.runtime.plan.attach_int_lowering`), and their binary
steps run the **integer datapath** -- the paper's sparse-core
arithmetic: the dense and event kernels accumulate the integer weights
exactly and dequantize once at the layer boundary
(:func:`~repro.runtime.kernels.dense_conv_int`,
:func:`~repro.runtime.kernels.event_conv_int`). There is one numeric
path, not a mode: it runs wherever the layer's 2^24 accumulation bound
holds, and only analog input, FC layers and layers over the bound keep
the dequantized float fold.
"""

from repro.runtime.config import (
    LayerCounters,
    RuntimeConfig,
    configure,
    runtime_config,
    runtime_overrides,
    set_runtime_config,
)
from repro.runtime.engine import (
    InferenceEngine,
    RuntimeResult,
    stack_encoder_frames,
)
from repro.runtime.kernels import (
    KBLOCK_CANDIDATES,
    BufferPool,
    calibrate_block_exact,
    calibrate_event_exact,
    calibration_key,
    dense_conv_int,
    event_conv_int,
    plan_report,
    resolve_event_backend,
    resolve_event_block,
)
from repro.runtime.plan import (
    ConvGeometry,
    LayerPlan,
    NetworkPlan,
    attach_int_lowering,
    conv_geometry,
    plan_deployable,
)

__all__ = [
    "BufferPool",
    "ConvGeometry",
    "InferenceEngine",
    "KBLOCK_CANDIDATES",
    "LayerCounters",
    "LayerPlan",
    "NetworkPlan",
    "RuntimeConfig",
    "RuntimeResult",
    "attach_int_lowering",
    "calibrate_block_exact",
    "calibrate_event_exact",
    "calibration_key",
    "configure",
    "conv_geometry",
    "dense_conv_int",
    "event_conv_int",
    "plan_deployable",
    "plan_report",
    "resolve_event_backend",
    "resolve_event_block",
    "runtime_config",
    "runtime_overrides",
    "set_runtime_config",
    "stack_encoder_frames",
]
