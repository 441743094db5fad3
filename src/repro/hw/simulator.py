"""Whole-network hybrid simulator.

:class:`HybridSimulator` binds a deployed network to an accelerator
configuration and produces, for a batch of images:

* functional outputs (logits / accuracy) via the
  :class:`~repro.quant.convert.DeployableNetwork` golden model,
* exact per-layer cycle counts -- the dense core serves the direct-coded
  input layer, sparse cores replay every recorded spike train through the
  compression + accumulation pipeline models,
* resource, power, energy, latency and throughput reports.

Two timing modes:

* **exact** (:meth:`run`): replays recorded spike trains; used whenever
  the network is small enough to execute functionally. Accepts a shard
  geometry (``shards`` / ``shard_size`` / ``workers``): each shard then
  executes its forward pass *and* reduces its trains to per-(layer,
  timestep) cycle **sums** locally -- only ``(T,)`` float64 vectors (plus
  the slim functional output) travel back, never the trains themselves.
  The sums are integer-valued and therefore merge exactly; the single
  mean-per-timestep division happens once, on the merged totals, in the
  same order the unsharded path uses -- so sharded cycle statistics are
  bit-identical to the unsharded run, for every encoder, at any shard
  geometry and worker count.
* **analytic** (:meth:`run_from_counts`): needs only per-layer event
  counts (e.g. the paper-scale workload profile); used by the Table I /
  Table III harnesses where only cycle/power structure matters.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field
from math import ceil
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigError, HardwareModelError
from repro.hw.compression import (
    compression_counts_batch,
    compression_cycles_estimate,
)
from repro.hw.config import AcceleratorConfig
from repro.hw.dense_core import DenseCoreModel
from repro.hw.energy import EnergyReport, build_energy_report
from repro.hw.power import PowerModel, PowerReport
from repro.hw.resources import ResourceEstimate, ResourceEstimator
from repro.quant.convert import DeployableNetwork
from repro.runtime.lanes import lane_bounds, lane_count, run_lanes
from repro.snn.encoding import DirectEncoder, Encoder


@dataclass(frozen=True)
class LayerSimStats:
    """Per-image averages for one layer."""

    name: str
    cores: int
    engine: str  # 'dense' | 'sparse'
    cycles: float
    compression_cycles: float
    accumulation_cycles: float
    activation_cycles: float
    input_events: float
    output_spikes: float


@dataclass
class SimulationReport:
    """Everything one simulation run produces."""

    config_name: str
    scheme_name: str
    timesteps: int
    samples: int
    layers: List[LayerSimStats]
    resources: ResourceEstimate
    utilization: Dict[str, float]
    power: PowerReport
    energy: EnergyReport
    accuracy: Optional[float] = None
    logits: Optional[np.ndarray] = None
    total_spikes_per_image: float = 0.0
    notes: List[str] = field(default_factory=list)

    @property
    def latency_ms(self) -> float:
        return self.energy.latency_ms

    @property
    def throughput_fps(self) -> float:
        return self.energy.throughput_fps

    @property
    def energy_mj(self) -> float:
        return self.energy.total_energy_mj

    @property
    def dynamic_power_w(self) -> float:
        return self.power.dynamic_w

    def summary(self) -> str:
        lines = [
            f"config {self.config_name} ({self.scheme_name}), T={self.timesteps}, "
            f"{self.samples} image(s)",
            f"  latency {self.latency_ms:.3f} ms | throughput "
            f"{self.throughput_fps:.1f} FPS | energy {self.energy_mj:.3f} mJ/img",
            f"  dynamic power {self.dynamic_power_w:.3f} W | static "
            f"{self.power.static_w:.2f} W | spikes/img "
            f"{self.total_spikes_per_image:.0f}",
        ]
        if self.accuracy is not None:
            lines.append(f"  accuracy {self.accuracy * 100.0:.2f}%")
        overheads = self.energy.layer_overheads()
        lines.append("  layer overheads: " + ", ".join(
            f"{name} {overheads[name]:.1f}%" for name in overheads
        ))
        return "\n".join(lines)


def sparse_layer_cycle_sums(
    layer, cores: int, trains: np.ndarray, chunk_bits: int
) -> Dict[str, np.ndarray]:
    """Per-timestep cycle *sums* over samples for one sparse layer.

    The whole stacked ``(T, N, ...)`` train goes through
    :func:`compression_counts_batch` in one vectorised pass, which also
    yields the events (sparse-core trains are binary: analog input is
    rejected when the dense core is off); the per-sample compression /
    accumulation / busy (their overlapped max, Sec. IV-B) and event
    values are then summed over the sample axis per timestep, in
    float64. Every summand is an exact integer, so the ``(T,)`` sums
    are exact and shard-order independent -- adding the sums of two
    shards equals the sum over their union bit-for-bit, which is what
    lets :meth:`HybridSimulator.run` merge sharded (and laned) cycle
    statistics without ever shipping trains.
    """
    owned = ceil(layer.out_channels / cores)
    timesteps, n = trains.shape[0], trains.shape[1]
    if layer.kind == "conv":
        channels, taps = layer.input_shape[0], layer.kernel * layer.kernel
    else:
        channels, taps = 1, 1
    cycles, spikes = compression_counts_batch(
        trains.reshape(timesteps, n, channels, -1), chunk_bits
    )
    compr_all = cycles.sum(axis=2).astype(np.float64)
    events_all = spikes.sum(axis=2).astype(np.float64)
    accum_all = events_all * (taps * owned)
    # Compression and accumulation overlap (Sec. IV-B): per sample and
    # timestep the layer is busy for the slower of the two.
    busy_all = np.maximum(compr_all, accum_all)
    return {
        "compr": compr_all.sum(axis=1),
        "accum": accum_all.sum(axis=1),
        "events": events_all.sum(axis=1),
        "busy": busy_all.sum(axis=1),
        "samples": np.float64(n),
    }


def merge_cycle_sums(
    parts: Sequence[Dict[str, Dict[str, np.ndarray]]]
) -> Dict[str, Dict[str, np.ndarray]]:
    """Fold per-shard ``{layer: sums}`` dicts (exact: integer sums)."""
    merged: Dict[str, Dict[str, np.ndarray]] = {}
    for part in parts:
        for name, sums in part.items():
            target = merged.get(name)
            if target is None:
                merged[name] = {key: np.copy(value) for key, value in sums.items()}
            else:
                for key, value in sums.items():
                    target[key] = target[key] + value
    return merged


# ---------------------------------------------------------------------------
# Sharded exact mode: worker-side cells (module level for pickling)
# ---------------------------------------------------------------------------

_SIM_WORKER_STATE: Optional[Dict] = None  # repro: lint-ok[P102] per-worker broadcast state; repopulated by the initializer in each process


def _sim_shard_result(model, config: AcceleratorConfig, out) -> Tuple:
    """Reduce one shard's forward output to what travels back: the slim
    functional output (no trains) plus per-layer cycle sums."""
    from repro.quant.convert import DeployableOutput

    sparse = []
    for index, layer in enumerate(model.layers):
        if index == 0 and config.use_dense_core:
            continue  # dense-core layer: activity-independent timing
        sparse.append(
            (layer, config.allocation[index], out.spike_trains_stacked[layer.name])
        )
    samples = out.logits.shape[0]
    bounds = lane_bounds(samples, lane_count(samples))

    def lane(i: int) -> Dict[str, Dict[str, np.ndarray]]:
        # A sample slice of a contiguous stack reshapes to a view, so
        # no lane copies its train.
        lo, hi = bounds[i]
        return {
            layer.name: sparse_layer_cycle_sums(
                layer, cores, trains[:, lo:hi], config.compression_chunk_bits
            )
            for layer, cores, trains in sparse
        }

    sums = merge_cycle_sums(run_lanes(lane, len(bounds)))
    slim = DeployableOutput(
        logits=out.logits,
        stats=out.stats,
        input_spike_totals=out.input_spike_totals,
        runtime_counters=out.runtime_counters,
    )
    return slim, sums


def _init_sim_worker(model_payload, config, encoder_blob) -> None:
    from repro.parallel.shard import _materialize_model

    global _SIM_WORKER_STATE
    _SIM_WORKER_STATE = {
        "model": _materialize_model(model_payload),
        "config": config,
        "encoder_blob": encoder_blob,
    }


def _run_sim_shard(task: Tuple[object, int, int]):
    from repro.parallel.shard import resolve_task_images

    payload, start, timesteps = task
    state = _SIM_WORKER_STATE
    shard_images = resolve_task_images(payload)
    # Position the encoder on the shard's global sample offset so
    # counter-stream encoders replay the unsharded stream exactly.
    encoder = pickle.loads(state["encoder_blob"]).for_samples(start)
    out = state["model"].forward(
        shard_images, timesteps, encoder, record=True
    )
    return _sim_shard_result(state["model"], state["config"], out)


class HybridSimulator:
    """Simulates a deployable network on the hybrid accelerator."""

    def __init__(
        self, network: DeployableNetwork, config: AcceleratorConfig
    ) -> None:
        if len(network.layers) != len(config.allocation):
            raise ConfigError(
                f"config {config.name!r} allocates {len(config.allocation)} "
                f"layers; network has {len(network.layers)}"
            )
        self.network = network
        self.config = config
        self._resource_estimator = ResourceEstimator(config)
        self._power_model = PowerModel(config)

    # ------------------------------------------------------------------
    # Exact mode
    # ------------------------------------------------------------------
    def run(
        self,
        images: np.ndarray,
        timesteps: int,
        encoder: Optional[Encoder] = None,
        labels: Optional[np.ndarray] = None,
        shards: Optional[int] = None,
        shard_size: Optional[int] = None,
        workers: Optional[int] = None,
    ) -> SimulationReport:
        """Functionally execute a batch and time every recorded train.

        With a shard geometry (``shards`` / ``shard_size`` /
        ``workers``) the batch is split exactly like
        :func:`~repro.parallel.shard.sharded_forward` splits it, each
        shard reduces its own trains to per-(layer, timestep) cycle sums
        in place (in a worker process, or inline under the serial
        fallback), and the merged statistics are bit-identical to the
        unsharded run -- see the module docstring. Every task carries
        its shard's global sample offset, so counter-stream rate coding
        replays the unsharded stream exactly.
        """
        encoder = encoder or DirectEncoder()
        self._check_encoder(encoder)
        if shards is not None or shard_size is not None or workers is not None:
            return self._run_sharded(
                images, timesteps, encoder, labels,
                shards=shards, shard_size=shard_size, workers=workers,
            )
        out = self.network.forward(images, timesteps, encoder, record=True)
        slim, sums = _sim_shard_result(self.network, self.config, out)
        return self._report_from_sums(
            slim, sums, timesteps, len(images), encoder, labels
        )

    def _run_sharded(
        self,
        images: np.ndarray,
        timesteps: int,
        encoder: Encoder,
        labels: Optional[np.ndarray],
        shards: Optional[int],
        shard_size: Optional[int],
        workers: Optional[int],
    ) -> SimulationReport:
        """Exact mode over shards: ship (slim output, cycle sums) only."""
        from repro.parallel.config import resolve_workers
        from repro.parallel.pool import run_tasks
        from repro.parallel.shard import (
            merge_outputs,
            plan_task_images,
            shard_slices,
        )

        images = np.asarray(images, dtype=np.float32)
        slices = shard_slices(len(images), shards=shards, shard_size=shard_size)
        encoder_blob = pickle.dumps(encoder)
        count = min(resolve_workers(workers), len(slices))
        if count <= 1 or len(slices) <= 1:
            parts = []
            for piece in slices:
                shard_encoder = pickle.loads(encoder_blob).for_samples(
                    piece.start
                )
                out = self.network.forward(
                    images[piece], timesteps, shard_encoder, record=True
                )
                parts.append(
                    _sim_shard_result(self.network, self.config, out)
                )
        else:
            image_payloads, cleanup = plan_task_images(images, slices)
            tasks = [
                (payload, piece.start, timesteps)
                for payload, piece in zip(image_payloads, slices)
            ]
            try:
                parts = run_tasks(
                    _run_sim_shard,
                    tasks,
                    workers=count,
                    initializer=_init_sim_worker,
                    initargs=(
                        ("object", self.network, None),
                        self.config,
                        encoder_blob,
                    ),
                )
            finally:
                cleanup()
        merged_out = merge_outputs([slim for slim, _ in parts])
        merged_sums = merge_cycle_sums([sums for _, sums in parts])
        return self._report_from_sums(
            merged_out, merged_sums, timesteps, len(images), encoder, labels
        )

    def _report_from_sums(
        self,
        out,
        sums: Dict[str, Dict[str, np.ndarray]],
        timesteps: int,
        samples: int,
        encoder: Encoder,
        labels: Optional[np.ndarray],
    ) -> SimulationReport:
        """Assemble the report from a (merged) slim output + cycle sums."""
        layer_stats: List[LayerSimStats] = []
        for index, layer in enumerate(self.network.layers):
            cores = self.config.allocation[index]
            if self._runs_on_dense(index, encoder):
                stats = self._dense_layer_stats(layer, cores, timesteps, samples)
            else:
                stats = self._sparse_layer_stats_from_sums(
                    layer, cores, sums[layer.name], timesteps
                )
            layer_stats.append(stats)
        report = self._finalize(layer_stats, timesteps, samples, out.stats)
        report.logits = out.logits
        if labels is not None:
            report.accuracy = float(
                (out.logits.argmax(axis=1) == np.asarray(labels)).mean()
            )
        counters = out.runtime_counters
        if counters:
            dense = sum(c.dense_steps for c in counters.values())
            event = sum(c.event_steps for c in counters.values())
            report.notes.append(
                f"runtime dispatch: {dense} dense / {event} event "
                "layer-timesteps ("
                + ", ".join(
                    f"{name} d{c.dense_steps}/e{c.event_steps}"
                    for name, c in counters.items()
                )
                + ")"
            )
            int_steps = sum(
                c.int_dense_steps + c.int_event_steps
                for c in counters.values()
            )
            if int_steps:
                # The integer datapath is the software twin of the
                # quantized MAC arrays this simulator models: these
                # layer-timesteps accumulated in int32 and requantized
                # at the layer boundary instead of running float GEMMs.
                report.notes.append(
                    f"integer datapath: {int_steps} of {dense + event} "
                    "layer-timesteps ran int32 accumulation ("
                    + ", ".join(
                        f"{name} d{c.int_dense_steps}/e{c.int_event_steps}"
                        for name, c in counters.items()
                        if c.int_dense_steps or c.int_event_steps
                    )
                    + ")"
                )
        return report

    # ------------------------------------------------------------------
    # Analytic mode
    # ------------------------------------------------------------------
    def run_from_counts(
        self,
        input_events_per_layer: Dict[str, float],
        timesteps: int,
        output_spikes_per_layer: Optional[Dict[str, float]] = None,
    ) -> SimulationReport:
        """Time the network from per-layer event counts alone.

        Args:
            input_events_per_layer: per layer name, total input events per
                image across all timesteps (sparse layers). The dense
                input layer ignores its entry (its work is activity-
                independent).
            timesteps: T.
            output_spikes_per_layer: optional, only feeds the report's
                spike totals.
        """
        return self.run_from_counts_batch(
            [input_events_per_layer], timesteps, [output_spikes_per_layer]
        )[0]

    def run_from_counts_batch(
        self,
        events_batch: Sequence[Dict[str, float]],
        timesteps: int,
        output_spikes_batch: Optional[Sequence[Optional[Dict[str, float]]]] = None,
    ) -> List["SimulationReport"]:
        """Analytic timing for many sweep points in one batched pass.

        Bit-identical to calling :meth:`run_from_counts` once per entry
        of ``events_batch`` (same per-point arithmetic, verified by the
        parallel equivalence suite), but the layer walk runs once, the
        activity-independent dense-layer stats are computed once and
        shared, and -- the dominant per-point cost -- the resource and
        power estimates are computed once for the whole sweep instead of
        once per point. Fig. 1 / design-space sweeps evaluating hundreds
        of (scheme, density) cells therefore pay the network-model walk
        a single time.
        """
        if output_spikes_batch is not None and len(output_spikes_batch) != len(
            events_batch
        ):
            raise HardwareModelError(
                f"{len(output_spikes_batch)} spike dicts for "
                f"{len(events_batch)} sweep points"
            )
        points = len(events_batch)
        if points == 0:
            return []
        per_point: List[List[LayerSimStats]] = [[] for _ in range(points)]
        for index, layer in enumerate(self.network.layers):
            cores = self.config.allocation[index]
            if index == 0 and self.config.use_dense_core:
                # Dense-core work is activity-independent: one frozen
                # stats record serves every sweep point.
                shared = self._dense_layer_stats(layer, cores, timesteps, 1)
                for stats_list in per_point:
                    stats_list.append(shared)
                continue
            for j, counts in enumerate(events_batch):
                events = counts.get(layer.name)
                if events is None:
                    raise HardwareModelError(
                        f"no event count supplied for layer {layer.name!r}"
                    )
                per_point[j].append(
                    self._sparse_layer_stats_analytic(
                        layer, cores, float(events), timesteps
                    )
                )
        resources = self._resource_estimator.estimate(self.network, timesteps)
        power = self._power_model.estimate(resources)
        reports: List[SimulationReport] = []
        for j in range(points):
            report = self._finalize_with(
                per_point[j], timesteps, 1, None, resources, power
            )
            spikes = (
                output_spikes_batch[j] if output_spikes_batch is not None else None
            )
            if spikes:
                report.total_spikes_per_image = float(sum(spikes.values()))
            reports.append(report)
        return reports

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _check_encoder(self, encoder: Encoder) -> None:
        if encoder.analog_input and not self.config.use_dense_core:
            raise HardwareModelError(
                "direct (analog) coding requires the dense core; "
                "rate-coded inputs are needed when use_dense_core=False "
                "(Table II methodology)"
            )

    def _runs_on_dense(self, index: int, encoder: Encoder) -> bool:
        return index == 0 and self.config.use_dense_core

    def _dense_layer_stats(
        self, layer, rows: int, timesteps: int, samples: int
    ) -> LayerSimStats:
        model = DenseCoreModel(rows, self.config.dense_pe_columns)
        out_c, out_h, out_w = layer.output_shape
        in_c = layer.input_shape[0]
        timing = model.layer_cycles(out_c, out_h, out_w, in_c, layer.kernel)
        cycles = float(timing.total_cycles * timesteps)
        return LayerSimStats(
            name=layer.name,
            cores=rows,
            engine="dense",
            cycles=cycles,
            compression_cycles=0.0,
            accumulation_cycles=cycles,
            activation_cycles=0.0,
            input_events=float(np.prod(layer.input_shape)) * timesteps,
            output_spikes=0.0,
        )

    def _sparse_layer_stats(
        self,
        layer,
        cores: int,
        trains: np.ndarray,
        samples: int,
    ) -> LayerSimStats:
        """Exact timing from the stacked (T, N, ...) recorded input train."""
        sums = sparse_layer_cycle_sums(
            layer, cores, trains, self.config.compression_chunk_bits
        )
        return self._sparse_layer_stats_from_sums(
            layer, cores, sums, trains.shape[0]
        )

    def _sparse_layer_stats_from_sums(
        self,
        layer,
        cores: int,
        sums: Dict[str, np.ndarray],
        timesteps: int,
    ) -> LayerSimStats:
        """Exact per-image averages from (possibly merged) cycle sums.

        One float64 division per timestep and quantity, accumulated in
        timestep order -- the same reduction order whether the sums came
        from one pass over the whole batch or were merged from shards,
        which (with the sums being exact integers) is what makes sharded
        cycle statistics bit-identical to unsharded ones.
        """
        owned = ceil(layer.out_channels / cores)
        if layer.kind == "conv":
            activation = (
                layer.output_shape[1] * layer.output_shape[2] * owned
            ) * timesteps
        else:
            activation = owned * timesteps
        n = float(sums["samples"])
        total_compr = 0.0
        total_accum = 0.0
        total_events = 0.0
        busy = 0.0
        for t in range(timesteps):
            total_compr += float(sums["compr"][t] / n)
            total_accum += float(sums["accum"][t] / n)
            total_events += float(sums["events"][t] / n)
            busy += float(sums["busy"][t] / n)
        cycles = busy + activation
        return LayerSimStats(
            name=layer.name,
            cores=cores,
            engine="sparse",
            cycles=cycles,
            compression_cycles=total_compr,
            accumulation_cycles=total_accum,
            activation_cycles=float(activation),
            input_events=total_events,
            output_spikes=0.0,
        )

    def _sparse_layer_stats_analytic(
        self, layer, cores: int, events: float, timesteps: int
    ) -> LayerSimStats:
        chunk = self.config.compression_chunk_bits
        owned = ceil(layer.out_channels / cores)
        events_per_t = events / timesteps
        if layer.kind == "conv":
            cin, height, width = layer.input_shape
            bits = height * width
            per_map = min(events_per_t / cin, bits)
            compr_t = cin * compression_cycles_estimate(bits, per_map, chunk)
            taps = layer.kernel * layer.kernel
            accum_t = events_per_t * taps * owned
            activation = layer.output_shape[1] * layer.output_shape[2] * owned
        else:
            nin = int(np.prod(layer.input_shape))
            per = min(events_per_t, nin)
            compr_t = compression_cycles_estimate(nin, per, chunk)
            accum_t = events_per_t * owned
            activation = owned
        busy = max(compr_t, accum_t) * timesteps
        cycles = busy + activation * timesteps
        return LayerSimStats(
            name=layer.name,
            cores=cores,
            engine="sparse",
            cycles=cycles,
            compression_cycles=compr_t * timesteps,
            accumulation_cycles=accum_t * timesteps,
            activation_cycles=float(activation * timesteps),
            input_events=events,
            output_spikes=0.0,
        )

    def _finalize(
        self,
        layer_stats: List[LayerSimStats],
        timesteps: int,
        samples: int,
        stats,
    ) -> SimulationReport:
        resources = self._resource_estimator.estimate(self.network, timesteps)
        power = self._power_model.estimate(resources)
        return self._finalize_with(
            layer_stats, timesteps, samples, stats, resources, power
        )

    def _finalize_with(
        self,
        layer_stats: List[LayerSimStats],
        timesteps: int,
        samples: int,
        stats,
        resources: ResourceEstimate,
        power: PowerReport,
    ) -> SimulationReport:
        power_by_name = power.by_name()
        energy = build_energy_report(
            names=[s.name for s in layer_stats],
            cycles=[s.cycles for s in layer_stats],
            dynamic_power_w=[power_by_name[s.name].total_w for s in layer_stats],
            clock_hz=self.config.clock_hz,
            static_power_w=power.static_w,
        )
        if stats is not None:
            spikes_per_image = stats.spikes_per_image()
            layer_stats = [
                LayerSimStats(
                    name=s.name,
                    cores=s.cores,
                    engine=s.engine,
                    cycles=s.cycles,
                    compression_cycles=s.compression_cycles,
                    accumulation_cycles=s.accumulation_cycles,
                    activation_cycles=s.activation_cycles,
                    input_events=s.input_events,
                    output_spikes=stats.layer_spikes_per_image(s.name),
                )
                for s in layer_stats
            ]
        else:
            spikes_per_image = 0.0
        return SimulationReport(
            config_name=self.config.name,
            scheme_name=self.config.scheme.name,
            timesteps=timesteps,
            samples=samples,
            layers=layer_stats,
            resources=resources,
            utilization=self._resource_estimator.utilization(resources),
            power=power,
            energy=energy,
            total_spikes_per_image=spikes_per_image,
        )
