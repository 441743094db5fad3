"""NetworkPlan persistence and the per-layer plan report.

A lowered :class:`~repro.runtime.plan.NetworkPlan` is expensive to build
only in two places: dequantizing weights (the lowering itself) and the
per-shape BLAS-fold *calibration* probes that decide event-path
eligibility. Both are deterministic, so they can be captured once and
shipped next to the deployable ``.npz``: :func:`save_plan` writes a
``<model>.plan.npz`` sidecar holding the lowered weight matrices, bias
and BN constants plus the calibration verdict of every conv shape;
:func:`load_plan` rebuilds the plan without touching the network (the
im2col geometry is recomputed through the shared process-wide cache --
pure index math, paid once per shape per process) and seeds the
calibration cache so cold-started worker processes skip the probes
entirely.

Calibration verdicts are only trusted when the sidecar's environment
fingerprint (numpy version, platform, BLAS-visible machine) matches the
loading process -- a different BLAS may fold GEMMs differently, and a
wrong ``True`` verdict would break bit-exactness. On mismatch the plan
still loads; the verdicts are simply re-probed on first dispatch.

:func:`plan_report` renders the per-layer lowering outcome -- which conv
shapes take the unblocked event path, which needed the canonical blocked
k-fold (and at what block size), and which have no bit-exact event
configuration at all and stay on the dense fallback. Passing a run's
dispatch counters additionally explains every dense *decision* taken at
runtime (density vs calibration vs forced).

The sidecar format is ``network-plan-v6``: weights, BN constants and
calibration verdicts (with each conv shape's resolved k-block), and each
quantized conv layer's integer lowering -- the int8/int16 weight matrix,
its dequantization scale(s), the integer bit-exactness verdict and
overflow bound. Calibration keys are conv shapes alone. Verdicts are
trusted under the same environment fingerprint. A sidecar is a
regenerable cache, so any other format -- and any sidecar whose
metadata does not parse -- is rejected with a typed error, and
:func:`try_load_plan` callers simply rebuild it.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import zipfile
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.errors import ReproError, RuntimeUnsupportedError
from repro.runtime.config import runtime_config
from repro.runtime.kernels import (
    calibrate_event_exact,
    calibrate_int_exact,
    calibration_key,
    resolve_event_block,
    seed_block_resolution,
    seed_calibration,
    seed_int_exact,
)
from repro.runtime.plan import LayerPlan, NetworkPlan, conv_geometry
from repro.utils.serialization import load_npz, save_npz

PLAN_SIDECAR_SUFFIX = ".plan.npz"

#: The one sidecar format written and accepted.
_PLAN_FORMAT = "network-plan-v6"

_BN_FIELDS = ("bn_mu", "bn_inv_std", "bn_gamma", "bn_beta")


def _blas_signature() -> str:
    """Digest of the BLAS/LAPACK numpy was built against.

    The fold a GEMM uses depends on the linked BLAS and its per-CPU
    kernel selection, not just the numpy version -- two identical numpy
    wheels on MKL vs OpenBLAS fold differently, and a calibration
    verdict must never cross that boundary.
    """
    try:
        config = np.show_config(mode="dicts")
    except TypeError:  # pragma: no cover - numpy < 1.25 has no dicts mode
        config = None
    if config is not None:
        dependencies = config.get("Build Dependencies", {})
        raw = json.dumps(
            [dependencies.get("blas", {}), dependencies.get("lapack", {})],
            sort_keys=True,
            default=str,
        )
    else:  # pragma: no cover - legacy numpy fallback
        raw = str(getattr(np.__config__, "blas_opt_info", ""))
    return hashlib.sha256(raw.encode("utf-8")).hexdigest()[:16]


def environment_fingerprint() -> Dict[str, str]:
    """Identity of everything that can change a BLAS fold verdict."""
    return {
        "numpy": np.__version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "processor": platform.processor(),
        "blas": _blas_signature(),
    }


def arrays_digest(arrays: Iterable[np.ndarray]) -> str:
    """Order-sensitive content digest of a sequence of arrays."""
    digest = hashlib.sha256()
    for array in arrays:
        array = np.ascontiguousarray(array)
        digest.update(str(array.dtype).encode("utf-8"))
        digest.update(str(array.shape).encode("utf-8"))
        digest.update(array.tobytes())
    return digest.hexdigest()


def plan_sidecar_path(model_path: str) -> str:
    """``<dir>/<stem>.plan.npz`` next to a deployable ``.npz`` artifact."""
    stem, ext = os.path.splitext(model_path)
    if ext != ".npz":
        stem = model_path
    return stem + PLAN_SIDECAR_SUFFIX


def save_plan(
    plan: NetworkPlan, path: str, model_digest: Optional[str] = None
) -> None:
    """Serialize ``plan`` (weights, BN, calibration verdicts) to ``path``.

    ``model_digest`` ties the sidecar to the exact stored parameters of
    the model it was lowered from (see
    :meth:`DeployableNetwork.weights_digest`); loaders passing the same
    digest will reject a stale sidecar left behind by a retrain.
    """
    arrays: Dict[str, np.ndarray] = {}
    meta: Dict[str, object] = {
        "format": _PLAN_FORMAT,
        "model_digest": model_digest,
        "beta": plan.beta,
        "threshold": plan.threshold,
        "num_classes": plan.num_classes,
        "population_group": plan.population_group,
        "spike_rule": plan.spike_rule,
        "source": plan.source,
        "fingerprint": environment_fingerprint(),
        "layers": [],
        "calibration": [],
    }
    for index, layer in enumerate(plan.layers):
        prefix = f"layer{index}"
        arrays[f"{prefix}.wmat"] = layer.wmat
        arrays[f"{prefix}.bias"] = layer.bias
        for bn_field in _BN_FIELDS:
            value = getattr(layer, bn_field)
            if value is not None:
                arrays[f"{prefix}.{bn_field}"] = value
        if layer.has_int_lowering:
            arrays[f"{prefix}.wq"] = layer.wq
            arrays[f"{prefix}.wq_scale"] = np.asarray(layer.wq_scale)
        geometry = layer.geometry
        meta["layers"].append(
            {
                "name": layer.name,
                "kind": layer.kind,
                "input_shape": list(layer.input_shape),
                "output_shape": list(layer.output_shape),
                "pool_after": layer.pool_after,
                "is_input_layer": layer.is_input_layer,
                "kernel": geometry.kernel if geometry is not None else 0,
                "padding": geometry.padding if geometry is not None else 0,
                "has_bn": layer.has_bn,
                "has_int": layer.has_int_lowering,
            }
        )
        if layer.kind == "conv":
            block = resolve_event_block(layer)
            entry: Dict[str, object] = {
                "key": list(calibration_key(layer)),
                "exact": calibrate_event_exact(layer),
                # Auto resolution (None = dense fallback, 0 =
                # unblocked, >0 = blocked): probed here once so cold
                # loaders skip every block-candidate GEMM.
                "block": block,
            }
            if layer.has_int_lowering:
                # Integer datapath verdicts: the per-layer bit-exactness
                # probe and overflow bound.
                entry["int"] = {
                    "exact": bool(calibrate_int_exact(layer, block)),
                    "bound": int(layer.int_bound),
                }
            meta["calibration"].append(entry)
    save_npz(path, arrays, meta)


def load_plan(path: str, model_digest: Optional[str] = None) -> NetworkPlan:
    """Rebuild a :class:`NetworkPlan` written by :func:`save_plan`.

    Seeds the process-wide calibration cache from the sidecar's verdicts
    when the environment fingerprint matches, so the loading process
    never re-probes shapes the saving process already settled. When both
    sides carry a ``model_digest`` and they differ, the sidecar is stale
    (the model was retrained under it) and loading fails. A sidecar in
    any other format, or with metadata that does not parse, raises
    :class:`~repro.errors.RuntimeUnsupportedError`; nothing is seeded
    from it.
    """
    arrays, meta = load_npz(path)
    if not isinstance(meta, dict) or meta.get("format") != _PLAN_FORMAT:
        raise RuntimeUnsupportedError(
            f"{path!r} is not a {_PLAN_FORMAT} network plan"
        )
    stored_digest = meta.get("model_digest")
    if (
        model_digest is not None
        and stored_digest is not None
        and stored_digest != model_digest
    ):
        raise RuntimeUnsupportedError(
            f"plan sidecar {path!r} was lowered from a different model "
            "(digest mismatch; retrain left a stale sidecar)"
        )
    try:
        plan = _plan_from_meta(arrays, meta)
        shape_seeds = (
            _seed_layers(plan, meta)
            if meta.get("fingerprint") == environment_fingerprint()
            else []
        )
    except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
        raise RuntimeUnsupportedError(
            f"plan sidecar {path!r} has malformed metadata: {exc!r}"
        ) from exc
    # Process-wide caches are seeded only once the whole sidecar parsed.
    for key, exact, block in shape_seeds:
        seed_calibration(key, exact)
        seed_block_resolution(key, block)
    return plan


def _plan_from_meta(arrays: Dict[str, np.ndarray], meta: Dict) -> NetworkPlan:
    layers: List[LayerPlan] = []
    for index, info in enumerate(_as_list(meta["layers"])):
        prefix = f"layer{index}"
        wmat = np.ascontiguousarray(arrays[f"{prefix}.wmat"])
        input_shape = tuple(info["input_shape"])
        geometry = (
            conv_geometry(
                input_shape[0], input_shape[1], input_shape[2],
                info["kernel"], info["padding"],
            )
            if info["kind"] == "conv"
            else None
        )
        layer = LayerPlan(
            name=info["name"],
            kind=info["kind"],
            wmat=wmat,
            wT=np.ascontiguousarray(wmat.T),
            bias=np.ascontiguousarray(arrays[f"{prefix}.bias"]),
            input_shape=input_shape,
            output_shape=tuple(info["output_shape"]),
            geometry=geometry,
            pool_after=info["pool_after"],
            is_input_layer=info["is_input_layer"],
        )
        if info["has_bn"]:
            for bn_field in _BN_FIELDS:
                setattr(layer, bn_field, arrays[f"{prefix}.{bn_field}"])
        if info["has_int"]:
            layer.wq, layer.wq_scale = _int_lowering(arrays, prefix, wmat)
        layers.append(layer)
    return NetworkPlan(
        layers=layers,
        beta=meta["beta"],
        threshold=meta["threshold"],
        num_classes=meta["num_classes"],
        population_group=meta["population_group"],
        spike_rule=meta["spike_rule"],
        source=meta["source"],
    )


def _int_lowering(
    arrays: Dict[str, np.ndarray], prefix: str, wmat: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """A layer's stored ``(wq, wq_scale)``, refused unless they are what
    :func:`~repro.runtime.plan.attach_int_lowering` writes: ``wq`` int8
    or int16 of ``wmat``'s shape, ``wq_scale`` a float32 scalar or one
    scale per output channel."""
    wq = arrays[f"{prefix}.wq"]
    scale = arrays[f"{prefix}.wq_scale"]
    if wq.dtype not in (np.int8, np.int16) or wq.shape != wmat.shape:
        raise RuntimeUnsupportedError(
            f"{prefix}.wq must be int8/int16 of shape {wmat.shape}, "
            f"got {wq.dtype} {wq.shape}"
        )
    if scale.dtype != np.float32 or scale.shape not in ((), (wmat.shape[0],)):
        raise RuntimeUnsupportedError(
            f"{prefix}.wq_scale must be float32 of shape () or "
            f"({wmat.shape[0]},), got {scale.dtype} {scale.shape}"
        )
    return np.ascontiguousarray(wq), np.ascontiguousarray(scale)


def _seed_layers(plan: NetworkPlan, meta: Dict) -> List[Tuple]:
    """Attach the sidecar's per-layer integer verdicts to ``plan``;
    return the ``(key, exact, block)`` shape verdicts for the
    process-wide caches.

    Calibration entries follow the conv-layer order :func:`save_plan`
    walked. The integer verdict is weight-dependent, so it is seeded per
    layer object, not into the shape-keyed calibration cache.
    """
    conv_layers = [layer for layer in plan.layers if layer.kind == "conv"]
    seeds = []
    for index, entry in enumerate(_as_list(meta["calibration"])):
        key = tuple(_as_list(entry["key"]))
        block = entry["block"]
        block = None if block is None else int(block)
        seeds.append((key, bool(entry["exact"]), block))
        if index >= len(conv_layers):
            continue
        conv = conv_layers[index]
        int_entry = entry.get("int")
        if int_entry is not None and conv.has_int_lowering:
            seed_int_exact(conv, block, bool(int_entry["exact"]))
    return seeds


def _as_list(value) -> list:
    """``value`` when it is a JSON list, else a ``TypeError``."""
    if not isinstance(value, list):
        raise TypeError(f"expected a list, got {type(value).__name__}")
    return value


def try_load_plan(
    path: str, model_digest: Optional[str] = None
) -> Optional[NetworkPlan]:
    """:func:`load_plan`, returning ``None`` instead of raising.

    The one loader every sidecar consumer should use: a missing, stale
    (digest mismatch), foreign-format, truncated or otherwise corrupt
    sidecar yields ``None`` -- the caller falls back to live lowering,
    which is always correct, just slower.
    """
    if not os.path.exists(path):
        return None
    try:
        return load_plan(path, model_digest=model_digest)
    except (
        ReproError,
        EOFError,  # zero-byte/torn file: np.load dies before the zip layer
        KeyError,
        ValueError,
        OSError,
        zipfile.BadZipFile,
    ):
        return None


def plan_report(
    plan: NetworkPlan, counters: Optional[Dict] = None
) -> List[Dict]:
    """Per-layer lowering outcome: kernel shape and dispatch eligibility.

    Each row carries ``event_exact`` (``None`` for FC layers, which never
    take the event path), the resolved ``k_block`` (``None`` = no exact
    event configuration, ``0`` = unblocked, ``B > 0`` = canonical
    blocked fold at that size) and a human-readable ``path`` that
    distinguishes the *calibration* dense fallback (no bit-exact fold at
    this shape) from shapes that are event-eligible and merely routed
    dense at runtime. Passing a run's dispatch counters (a mapping of
    layer name to :class:`~repro.runtime.config.LayerCounters`) adds a
    ``dispatch`` column explaining every dense decision of that run --
    density above threshold vs calibration fallback vs forced.
    """
    kblock = runtime_config().event_kblock
    rows: List[Dict] = []
    for layer in plan.layers:
        if layer.kind != "conv":
            row = {
                "name": layer.name,
                "kind": layer.kind,
                "k": int(layer.wmat.shape[1]),
                "event_exact": None,
                "k_block": None,
                "path": "dense (fc layers never dispatch)",
            }
        else:
            exact = calibrate_event_exact(layer)
            block = resolve_event_block(layer, kblock)
            if block is None:
                path = "dense-fallback (calibration: no bit-exact fold at this shape)"
            elif block == 0:
                path = "event-eligible"
            else:
                path = f"event-eligible (blocked fold, k_block={block})"
            row = {
                "name": layer.name,
                "kind": layer.kind,
                "k": int(layer.geometry.k),
                "event_exact": exact,
                "k_block": block,
                "path": path,
            }
        if counters is not None and layer.name in counters:
            row["dispatch"] = counters[layer.name].as_dict()
        rows.append(row)
    return rows
