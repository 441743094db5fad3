"""Runtime configuration and per-layer dispatch counters.

One process-wide :class:`RuntimeConfig` governs where the density
dispatcher switches between the dense and the event-driven kernel, how
deep conv shapes fold and how large a fused dense call may grow. The
fused runtime is the only inference path of a deployable network; the
event path's scatter is always scipy's CSR matmul. Quantized conv
layers run the integer datapath wherever its overflow bound holds,
which no setting changes. Tests pin behaviour with
:func:`runtime_overrides`.
"""

from __future__ import annotations

import numbers
from contextlib import contextmanager
from dataclasses import dataclass, fields, replace
from typing import ClassVar, Dict, Iterator, Optional

from repro.errors import ConfigError

#: Default cap on a fused dense call's im2col buffer, in float32 elements
#: (4 MB). A chunk whose columns fit in the core-local caches is read
#: back by the GEMM while still resident, where a 64 MB cap streams every
#: batch-64 chunk through main memory and keeps that much resident per
#: layer shape. On a 2-core Xeon with 2 MB of L2 per core, 1 << 20 was
#: the fastest of 1 << 19, 1 << 20 and 1 << 21 on the heaviest conv
#: layers of the small-scale VGG9 at batch 64.
MAX_FUSED_ELEMENTS = 1 << 20


@dataclass(frozen=True)
class RuntimeConfig:
    """Knobs of the fused inference runtime.

    Attributes:
        dispatch_threshold: input spike density (fraction of set bits) at
            or below which a binary conv layer-timestep takes the
            event-driven path (when the layer has a calibrated fold); 0
            disables the event path, 1 takes it whenever legal.
        force_path: pin every eligible layer-timestep to ``'dense'`` or
            ``'event'`` regardless of density (equivalence testing).
        event_kblock: canonical blocked k-fold control. ``None`` (auto)
            calibrates per shape and picks the largest bit-exact block
            for shapes whose unblocked fold fails; ``0`` disables
            blocking (deep shapes return to the dense fallback). No
            other value is accepted.
        max_fused_elements: cap, in elements, on the im2col buffer of a
            fused dense call and on the float32 current of an engine
            lane's sample block; larger batches are chunked and larger
            lanes run block by block (bit-exact either way, and a block
            holds one sample at least). An integer >= 1, not a bool.
            The default, :data:`MAX_FUSED_ELEMENTS`, is sized to the
            cache rather than to memory: small chunks keep the columns
            cache-resident between the unfold and the GEMM.
    """

    #: The event path's scatter backend: CSR scatter-matmul, the only
    #: one. A class constant, not a field, so it cannot be set. Kept only
    #: because the benchmark harness records it (``perfbench/envinfo.py``).
    event_backend: ClassVar[str] = "scipy"

    dispatch_threshold: float = 0.05
    force_path: Optional[str] = None
    event_kblock: Optional[int] = None
    max_fused_elements: int = MAX_FUSED_ELEMENTS

    def __post_init__(self) -> None:
        if not 0.0 <= self.dispatch_threshold <= 1.0:
            raise ConfigError(
                f"dispatch_threshold must be in [0, 1], got {self.dispatch_threshold}"
            )
        if self.force_path not in (None, "dense", "event"):
            raise ConfigError(
                f"force_path must be None, 'dense' or 'event', got {self.force_path!r}"
            )
        if self.event_kblock not in (None, 0):
            raise ConfigError(
                f"event_kblock must be None (auto) or 0, "
                f"got {self.event_kblock!r}"
            )
        # bool is an int subclass; 2.5e6 or nan elements would reach
        # range() or quietly mean blocks of one sample.
        fused = self.max_fused_elements
        if (
            isinstance(fused, bool)
            or not isinstance(fused, numbers.Integral)
            or fused < 1
        ):
            raise ConfigError(
                f"max_fused_elements must be an integer >= 1, got {fused!r}"
            )


_CONFIG = RuntimeConfig()  # repro: lint-ok[P102] per-process config; pool workers receive the parent's at bootstrap


def runtime_config() -> RuntimeConfig:
    """The active process-wide runtime configuration."""
    return _CONFIG


def set_runtime_config(config: RuntimeConfig) -> None:
    global _CONFIG
    _CONFIG = config


def configure(**overrides) -> RuntimeConfig:
    """Update individual fields of the active configuration."""
    set_runtime_config(replace(_CONFIG, **overrides))
    return _CONFIG


@contextmanager
def runtime_overrides(**overrides) -> Iterator[RuntimeConfig]:
    """Temporarily override runtime settings (test/bench scoping)."""
    global _CONFIG
    previous = _CONFIG
    _CONFIG = replace(previous, **overrides)
    try:
        yield _CONFIG
    finally:
        _CONFIG = previous


@dataclass
class LayerCounters:
    """Dispatch statistics for one layer across one forward pass.

    ``dense_steps`` is the total; the ``dense_*_steps`` fields attribute
    each dense decision to its cause so a report can explain *why* a
    layer stayed dense: ``density`` (input activity above the dispatch
    threshold, or the event path disabled), ``calibration`` (no
    bit-exact event configuration at this shape -- the dense fallback),
    ``forced`` (``force_path='dense'``). Steps that are ineligible by
    construction (FC layers, analog or non-binary input) are counted in
    the total only.

    The ``int_*`` fields attribute the integer datapath the same way:
    ``int_dense_steps`` / ``int_event_steps`` are the sub-counts of
    ``dense_steps`` / ``event_steps`` that ran the integer kernels (so
    the float-step count is the difference), ``int_event_updates`` the
    scatter contributions they accumulated, and ``float_overflow_steps``
    counts the binary conv steps of int-lowered layers that stayed float
    because the 2^24 accumulation bound failed.
    """

    dense_steps: int = 0
    event_steps: int = 0
    event_updates: int = 0  # scatter contributions routed through the event path
    dense_density_steps: int = 0
    dense_calibration_steps: int = 0
    dense_forced_steps: int = 0
    int_dense_steps: int = 0
    int_event_steps: int = 0
    int_event_updates: int = 0
    float_overflow_steps: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def count_dense(self, reason: Optional[str], steps: int = 1) -> None:
        """Tally ``steps`` dense layer-timesteps attributed to ``reason``."""
        self.dense_steps += steps
        if reason == "density":
            self.dense_density_steps += steps
        elif reason == "calibration":
            self.dense_calibration_steps += steps
        elif reason == "forced":
            self.dense_forced_steps += steps

    def merge(self, other: "LayerCounters") -> None:
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))
