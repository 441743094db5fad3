"""Runtime equivalence of the sharded/pooled execution subsystem.

The parallel layer is a pure scheduling layer: every test here asserts
*exact* equality against the serial reference -- merged ``SpikeStats``,
``LayerCounters``, logits, input totals, recorded trains, experiment
tables and analytic sweep reports must not differ by a single bit.
"""

import numpy as np
import pytest
from legacy_oracle import forward_legacy

from repro.hw.config import AcceleratorConfig
from repro.hw.simulator import HybridSimulator
from repro.parallel import sharded_forward, workers_override
from repro.quant import FP32, convert
from repro.runtime import runtime_overrides
from repro.snn import build_network
from repro.snn.encoding import RateEncoder, TtfsEncoder


@pytest.fixture(scope="module")
def deployable():
    net = build_network(
        "8C3-MP2-16C3-MP2-40", input_shape=(3, 8, 8), num_classes=10, seed=321
    )
    net.eval()
    return convert(net, FP32)


@pytest.fixture(scope="module")
def images():
    rng = np.random.default_rng(17)
    return rng.random((13, 3, 8, 8)).astype(np.float32)


def assert_stats_equal(got, want):
    assert got.per_layer == want.per_layer
    assert got.per_layer_timestep == want.per_layer_timestep
    assert got.samples == want.samples
    assert got.timesteps == want.timesteps


def assert_outputs_equal(got, want, trains=False, counters=False, totals=True):
    assert np.array_equal(got.logits, want.logits)
    assert_stats_equal(got.stats, want.stats)
    if totals:
        assert got.input_spike_totals == want.input_spike_totals
    if counters:
        assert set(got.runtime_counters) == set(want.runtime_counters)
        for name, counter in want.runtime_counters.items():
            assert got.runtime_counters[name].as_dict() == counter.as_dict()
    if trains:
        assert set(got.spike_trains) == set(want.spike_trains)
        for name, series in want.spike_trains.items():
            for t, train in enumerate(series):
                assert np.array_equal(got.spike_trains[name][t], train)


class TestShardedVsUnsharded:
    """Guarantee 2: deterministic encodings are shard-geometry invariant."""

    @pytest.mark.parametrize("timesteps", [2, 4])
    @pytest.mark.parametrize("shards", [1, 2, 4])
    @pytest.mark.parametrize("reference", ["runtime", "oracle"])
    def test_stats_and_logits_match_plain_forward(
        self, deployable, images, timesteps, shards, reference
    ):
        """Against the unsharded runtime forward and against the
        per-timestep oracle loop on the whole batch."""
        if reference == "runtime":
            plain = deployable.forward(images, timesteps)
        else:
            plain = forward_legacy(deployable, images, timesteps)
        merged = sharded_forward(
            deployable, images, timesteps, shards=shards, workers=1
        )
        assert np.array_equal(merged.logits, plain.logits)
        assert_stats_equal(merged.stats, plain.stats)

    def test_single_shard_is_fully_identical(self, deployable, images):
        plain = deployable.forward(images, 2, record=True)
        merged = sharded_forward(
            deployable, images, 2, shards=1, workers=1, record=True
        )
        assert_outputs_equal(merged, plain, trains=True, counters=True)

    def test_recorded_trains_concatenate_in_sample_order(
        self, deployable, images
    ):
        plain = deployable.forward(images, 2, record=True)
        merged = sharded_forward(
            deployable, images, 2, shards=4, workers=1, record=True
        )
        # The *analog* input layer's float total is a function of the
        # shard geometry (float addition is not associative), so it is
        # excluded here; every spike-domain quantity must match exactly.
        assert_outputs_equal(merged, plain, trains=True, totals=False)
        binary_totals = {
            name: value
            for name, value in plain.input_spike_totals.items()
            if name != "conv1_1"
        }
        for name, value in binary_totals.items():
            assert merged.input_spike_totals[name] == value
        for name, stacked in plain.spike_trains_stacked.items():
            assert np.array_equal(merged.spike_trains_stacked[name], stacked)


class TestPooledVsSerial:
    """Guarantee 1: worker count never changes a merged result."""

    @pytest.mark.parametrize("timesteps", [2, 4])
    @pytest.mark.parametrize("shards", [2, 4])
    @pytest.mark.parametrize("reference", ["serial", "oracle"])
    def test_pooled_bit_identical_to_serial_fallback(
        self, deployable, images, timesteps, shards, reference
    ):
        """Against the serial fallback (counters included) and against
        the per-timestep oracle loop on the whole batch, whose analog
        input total is a float sum in another association order."""
        pooled = sharded_forward(
            deployable, images, timesteps, shards=shards, workers=2,
            record=True,
        )
        if reference == "serial":
            serial = sharded_forward(
                deployable, images, timesteps, shards=shards, workers=1,
                record=True,
            )
            assert_outputs_equal(pooled, serial, trains=True, counters=True)
        else:
            oracle = forward_legacy(deployable, images, timesteps, record=True)
            assert_outputs_equal(pooled, oracle, trains=True, totals=False)

    def test_workers_resolved_from_override(self, deployable, images):
        serial = sharded_forward(deployable, images, 2, shards=2, workers=1)
        with workers_override(2):
            pooled = sharded_forward(deployable, images, 2, shards=2)
        assert_outputs_equal(pooled, serial)

    def test_forced_event_counters_merge_exactly(self, deployable, images):
        with runtime_overrides(force_path="event"):
            serial = sharded_forward(
                deployable, images, 2, shards=2, workers=1
            )
            pooled = sharded_forward(
                deployable, images, 2, shards=2, workers=2
            )
        assert_outputs_equal(pooled, serial, counters=True)
        # Workers inherit the parent's force_path override: every
        # non-input conv layer-timestep of every shard must have gone
        # event-driven.
        assert pooled.runtime_counters["conv2_1"].dense_steps == 0
        assert pooled.runtime_counters["conv2_1"].event_steps == 2 * 2

    def test_rate_coding_worker_count_invariant(self, deployable, images):
        """Counter-stream rate coding: pooled and serial draw identical
        streams -- and both match the unsharded forward (guarantee 2;
        the full geometry sweep lives in test_rate_stream_invariance)."""
        serial = sharded_forward(
            deployable, images, 4, RateEncoder(seed=11), shards=4, workers=1
        )
        pooled = sharded_forward(
            deployable, images, 4, RateEncoder(seed=11), shards=4, workers=2
        )
        assert_outputs_equal(pooled, serial)
        plain = deployable.forward(images, 4, RateEncoder(seed=11))
        assert np.array_equal(pooled.logits, plain.logits)
        assert_stats_equal(pooled.stats, plain.stats)

    def test_ttfs_encoder_shard_invariant(self, deployable, images):
        plain = deployable.forward(images, 4, TtfsEncoder(timesteps=4))
        merged = sharded_forward(
            deployable, images, 4, TtfsEncoder(timesteps=4), shards=3,
            workers=2,
        )
        assert np.array_equal(merged.logits, plain.logits)
        assert_stats_equal(merged.stats, plain.stats)

    def test_spawn_start_method_bit_identical(
        self, deployable, images, spawn_service
    ):
        """Spawn workers (the macOS default) share none of the parent's
        memory; the shared service must still merge identically."""
        serial = sharded_forward(deployable, images, 2, shards=2, workers=1)
        pooled = sharded_forward(deployable, images, 2, shards=2, workers=2)
        assert spawn_service() == "spawn"
        assert_outputs_equal(pooled, serial, counters=True)

    def test_model_path_workers_match_in_memory_model(
        self, deployable, images, tmp_path, spawn_service
    ):
        """Spawn workers cold-starting from the .npz alone -- each one
        lowers and calibrates the model itself -- must produce exactly
        what the in-memory model produces serially."""
        import os

        model_path = str(tmp_path / "model.npz")
        deployable.save(model_path)
        serial = sharded_forward(deployable, images, 2, shards=2, workers=1)
        cold_start = sharded_forward(
            deployable, images, 2, shards=2, workers=2, model_path=model_path
        )
        assert spawn_service() == "spawn"
        assert_outputs_equal(cold_start, serial, counters=True)
        assert os.listdir(tmp_path) == ["model.npz"]  # nothing written


@pytest.fixture
def spawn_service(monkeypatch):
    """The shared service restarted on ``REPRO_START_METHOD=spawn``.

    Yields a probe returning the running pool's start method, so a test
    can show its pooled calls really ran on spawn workers.
    """
    from repro.parallel import shared_service, shutdown_worker_service

    monkeypatch.setenv("REPRO_START_METHOD", "spawn")
    shutdown_worker_service()
    yield lambda: shared_service()._pool._ctx.get_start_method()
    shutdown_worker_service()


class TestAnalyticSweepEquivalence:
    """Batched run_from_counts vectorization is bit-identical."""

    @pytest.fixture(scope="class")
    def simulator(self, deployable):
        config = AcceleratorConfig(
            name="sweep-eq", allocation=(1, 2, 2), scheme=FP32
        )
        return HybridSimulator(deployable, config)

    @pytest.fixture(scope="class")
    def events_batch(self):
        rng = np.random.default_rng(23)
        return [
            {
                "conv2_1": float(rng.integers(0, 700)),
                "fc1": float(rng.integers(0, 150)),
            }
            for _ in range(9)
        ]

    @pytest.mark.parametrize("timesteps", [2, 4])
    def test_batch_matches_scalar_loop(
        self, simulator, events_batch, timesteps
    ):
        scalar = [
            simulator.run_from_counts(events, timesteps)
            for events in events_batch
        ]
        batched = simulator.run_from_counts_batch(events_batch, timesteps)
        assert len(batched) == len(scalar)
        for got, want in zip(batched, scalar):
            assert got.latency_ms == want.latency_ms
            assert got.energy_mj == want.energy_mj
            assert got.dynamic_power_w == want.dynamic_power_w
            for got_layer, want_layer in zip(got.layers, want.layers):
                assert got_layer.cycles == want_layer.cycles
                assert (
                    got_layer.compression_cycles
                    == want_layer.compression_cycles
                )
                assert (
                    got_layer.accumulation_cycles
                    == want_layer.accumulation_cycles
                )
                assert got_layer.input_events == want_layer.input_events

    def test_output_spikes_forwarded_per_point(self, simulator, events_batch):
        spikes = [{"conv2_1": float(10 * j)} for j in range(len(events_batch))]
        batched = simulator.run_from_counts_batch(events_batch, 2, spikes)
        for j, report in enumerate(batched):
            assert report.total_spikes_per_image == float(10 * j)

    def test_empty_batch(self, simulator):
        assert simulator.run_from_counts_batch([], 2) == []

    def test_missing_layer_raises(self, simulator):
        from repro.errors import HardwareModelError

        with pytest.raises(HardwareModelError):
            simulator.run_from_counts_batch([{"conv2_1": 5.0}], 2)


class TestSweepPoolEquivalence:
    def test_budget_sweep_pooled_matches_serial(self, deployable):
        from repro.workload import sweep_budgets, workloads_from_network

        events = {"conv2_1": 200.0, "fc1": 40.0}
        workloads = workloads_from_network(deployable, events, timesteps=2)
        budgets = [4, 8, 16, 32, 64]
        serial = sweep_budgets(workloads, budgets, workers=1)
        pooled = sweep_budgets(workloads, budgets, workers=2)
        assert [p.budget for p in pooled] == [p.budget for p in serial]
        for got, want in zip(pooled, serial):
            assert got.result == want.result

    def test_invalid_worker_count_rejected(self, deployable):
        from repro.errors import ConfigError
        from repro.workload import sweep_budgets, workloads_from_network

        events = {"conv2_1": 200.0, "fc1": 40.0}
        workloads = workloads_from_network(deployable, events, timesteps=2)
        with pytest.raises(ConfigError):
            sweep_budgets(workloads, [4, 8], workers=0)
