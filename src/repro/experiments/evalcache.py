"""Disk-backed evaluation cache: ``EvaluationResult`` sidecars.

The in-memory ``ExperimentContext._evaluations`` memo dies with its
process, so pooled ``run_all`` workers used to re-run test-set
evaluations that fig1's cells had already computed in a sibling worker.
This module persists each :class:`EvaluationResult` as a small JSON
sidecar next to the model artifacts -- ``<workspace>/models/
<cache_key>.eval.json``, sibling to the ``.npz`` weights -- keyed by
the exact in-memory cache key ``ExperimentContext.evaluate`` already
uses, so any process that shares the workspace shares the work.

Staleness and corruption guards:

* every entry records the ``weights_digest`` of the model it was
  evaluated against; a retrain changes the digest and the entry is
  ignored (then overwritten by the recompute);
* every entry records the *encoding stream signature*
  (:meth:`repro.snn.encoding.Encoder.stream_signature`: scheme + seed
  + gain) the evaluation encoded its inputs with; a different stream
  -- another ``--encoder-seed``, a changed scheme -- misses instead of
  silently serving numbers drawn from the wrong spike trains;
* the format tag is ``evaluation-result-v3``: older entries are
  *auto-invalidated* -- the format check rejects them and the caller
  recomputes and overwrites. v1 entries were written under the
  snapshot-per-shard rate semantics (results depended on the shard
  geometry); v2 entries of max-abs quantized models hold the numbers of
  the dequantized float datapath, which quantized conv layers no longer
  run on binary input;
* a missing, truncated, corrupt, foreign-format or stale entry makes
  :func:`try_load_evaluation` return ``None`` -- the caller recomputes,
  which is always correct, just slower;
* writes are atomic (temp file + ``os.replace``), so a crash can never
  leave a half-written entry that a later run would trust.

Bit-identity: entries round-trip through :func:`json.dumps` /
:func:`json.loads`, whose float encoding is the shortest repr that
parses back to the identical IEEE-754 double -- a cache hit returns
exactly the values the original evaluation produced (values are
normalised to builtin ``float``/``int`` on save; NumPy scalars compare
exactly equal to them).

``REPRO_EVAL_CACHE=0`` (or ``--no-eval-cache`` on the CLI) disables the
cache; :func:`invalidate_evaluations` is the explicit invalidation path.
Per-process hit/miss/store counters are kept in
:func:`eval_cache_stats` for logging and the runtime bench's
``eval_cache`` section.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass
from typing import Dict, Optional

from repro.errors import ExperimentError

# Historical home of these names; the definitions moved to the layer's
# env-reading module (rule P101) and stay importable from here.
from repro.experiments.config import (  # noqa: F401
    EVAL_CACHE_ENV,
    eval_cache_enabled,
)

EVAL_CACHE_SUFFIX = ".eval.json"

#: v1 entries predate counter-stream rate coding: their rate-coded
#: results were a function of the shard geometry that produced them. v2
#: entries of max-abs quantized models were computed on the dequantized
#: float datapath, before quantized conv layers ran the integer one. Each
#: format bump deliberately invalidates every older entry on load.
_FORMAT = "evaluation-result-v3"


@dataclass
class EvaluationResult:
    """Test-set evaluation of one deployed model."""

    accuracy: float
    spikes_per_image: float
    per_layer_spikes: Dict[str, float]
    input_events_per_image: Dict[str, float]
    samples: int


@dataclass
class CacheStats:
    """Per-process evaluation-cache counters."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    invalidations: int = 0
    corrupt: int = 0  # entries quarantined to <entry>.corrupt on load

    def as_dict(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "invalidations": self.invalidations,
            "corrupt": self.corrupt,
        }


_STATS = CacheStats()  # repro: lint-ok[P102] per-process hit/miss counters; merged only for reporting, never for results


def eval_cache_stats() -> CacheStats:
    """This process's cache counters (workers each count their own)."""
    return _STATS


def reset_eval_cache_stats() -> None:
    global _STATS
    _STATS = CacheStats()


def eval_cache_path(models_dir: str, cache_key: str) -> str:
    """``<models_dir>/<cache_key>.eval.json`` next to the model ``.npz``."""
    return os.path.join(models_dir, cache_key + EVAL_CACHE_SUFFIX)


def save_evaluation(
    path: str,
    result: EvaluationResult,
    model_digest: Optional[str] = None,
    encoding: Optional[str] = None,
) -> None:
    """Atomically persist ``result`` (and its staleness guards) to ``path``.

    ``model_digest`` ties the entry to the exact stored parameters of the
    evaluated model (:meth:`DeployableNetwork.weights_digest`);
    ``encoding`` ties it to the exact encoding stream
    (:meth:`Encoder.stream_signature`). Loaders passing the same values
    will reject entries left behind by a retrain or produced under a
    different stream.
    """
    payload = {
        "format": _FORMAT,
        "model_digest": model_digest,
        "encoding": encoding,
        "result": {
            "accuracy": float(result.accuracy),
            "spikes_per_image": float(result.spikes_per_image),
            "per_layer_spikes": {
                str(name): float(value)
                for name, value in result.per_layer_spikes.items()
            },
            "input_events_per_image": {
                str(name): float(value)
                for name, value in result.input_events_per_image.items()
            },
            "samples": int(result.samples),
        },
    }
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".eval.tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, sort_keys=True)
            handle.write("\n")
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.remove(tmp_path)
        raise
    _STATS.stores += 1


def load_evaluation(
    path: str,
    model_digest: Optional[str] = None,
    encoding: Optional[str] = None,
) -> EvaluationResult:
    """Load an entry written by :func:`save_evaluation`, strictly.

    Raises :class:`ExperimentError` on a foreign (or superseded v1/v2)
    format, a digest mismatch (the model was retrained under the
    entry) or an encoding-stream mismatch (the entry was evaluated under
    a different encoder seed/scheme). Malformed JSON or missing keys
    raise their native exceptions. Most callers want
    :func:`try_load_evaluation` instead.
    """
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    if payload.get("format") != _FORMAT:
        raise ExperimentError(
            f"{path!r} is not a current serialized evaluation result "
            "(foreign format, or a stale entry of an older format)"
        )
    stored_digest = payload.get("model_digest")
    if (
        model_digest is not None
        and stored_digest is not None
        and stored_digest != model_digest
    ):
        raise ExperimentError(
            f"evaluation cache entry {path!r} belongs to a different model "
            "(digest mismatch; retrain left a stale entry)"
        )
    stored_encoding = payload.get("encoding")
    if (
        encoding is not None
        and stored_encoding is not None
        and stored_encoding != encoding
    ):
        raise ExperimentError(
            f"evaluation cache entry {path!r} was evaluated under encoding "
            f"stream {stored_encoding!r}, not {encoding!r}"
        )
    result = payload["result"]
    return EvaluationResult(
        accuracy=float(result["accuracy"]),
        spikes_per_image=float(result["spikes_per_image"]),
        per_layer_spikes={
            str(name): float(value)
            for name, value in result["per_layer_spikes"].items()
        },
        input_events_per_image={
            str(name): float(value)
            for name, value in result["input_events_per_image"].items()
        },
        samples=int(result["samples"]),
    )


def try_load_evaluation(
    path: str,
    model_digest: Optional[str] = None,
    encoding: Optional[str] = None,
) -> Optional[EvaluationResult]:
    """:func:`load_evaluation`, returning ``None`` instead of raising.

    The one loader cache consumers should use: a missing, stale (digest
    or encoding-stream mismatch), foreign-format (including superseded
    v1/v2), truncated or otherwise corrupt entry yields ``None``
    -- recompute and overwrite. Counts a hit or a miss in
    :func:`eval_cache_stats` either way.

    Stale and corrupt entries part ways on disk: a *stale* entry (valid
    JSON that fails a guard) is left in place to be overwritten by the
    recompute, but a *corrupt* one -- undecodable bytes, malformed JSON,
    a payload missing its keys -- is quarantined to ``<entry>.corrupt``
    (counted in :attr:`CacheStats.corrupt`) rather than silently
    recomputed over. Repeated corruption therefore stays visible, and
    the bad bytes survive for diagnosis instead of being destroyed by
    the next atomic store.
    """
    result = None
    if os.path.exists(path):
        try:
            result = load_evaluation(
                path,
                model_digest=model_digest,
                encoding=encoding,
            )
        except ExperimentError:
            # Stale or foreign-format, but well-formed: the recompute
            # overwrites it in place.
            result = None
        except (KeyError, TypeError, ValueError, OSError):
            quarantine_corrupt_entry(path)
            result = None
    if result is None:
        _STATS.misses += 1
    else:
        _STATS.hits += 1
    return result


def quarantine_corrupt_entry(path: str) -> bool:
    """Move a corrupt entry aside to ``<entry>.corrupt``; ``True`` on move.

    ``os.replace`` keeps the quarantine atomic (a crashed quarantine
    leaves either the corrupt entry or its renamed twin, never both);
    an entry that vanished or cannot be renamed is simply left to the
    recompute path.
    """
    try:
        os.replace(path, path + ".corrupt")
    except OSError:
        return False
    _STATS.corrupt += 1
    return True


def invalidate_evaluation(path: str) -> bool:
    """Drop one cache entry; ``True`` if something was removed."""
    if not os.path.exists(path):
        return False
    os.remove(path)
    _STATS.invalidations += 1
    return True


def invalidate_evaluations(models_dir: str) -> int:
    """Drop every ``*.eval.json`` entry under ``models_dir``.

    The explicit invalidation path -- e.g. after editing evaluation code
    in ways the (model digest, cache key) guards cannot see. Returns the
    number of entries removed; a missing directory removes zero.
    """
    if not os.path.isdir(models_dir):
        return 0
    removed = 0
    for name in sorted(os.listdir(models_dir)):
        if name.endswith(EVAL_CACHE_SUFFIX):
            if invalidate_evaluation(os.path.join(models_dir, name)):
                removed += 1
    return removed
