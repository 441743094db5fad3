"""Bit-exactness of the fused runtime against reference loops.

The deployable reference is the per-timestep oracle
(``tests/legacy_oracle.py``); the ``SpikingNetwork`` reference is its
Tensor loop -- the training path -- reached by an eval-mode forward with
gradients enabled. Every test asserts *exact* array equality: the
runtime is a pure performance layer and must not perturb a single bit of
logits, spike trains, statistics or simulator cycle counts.
"""

import functools

import numpy as np
import pytest
from legacy_oracle import forward_legacy

from repro.hw.config import AcceleratorConfig
from repro.hw.simulator import HybridSimulator
from repro.quant import FP32, INT4, convert
from repro.quant.schemes import INT8
from repro.runtime import runtime_overrides
from repro.snn import build_network
from repro.snn.encoding import RateEncoder
from repro.tensor import no_grad


@pytest.fixture(scope="module")
def seeded_network():
    """A seeded, untrained conv+fc network (weights random but fixed)."""
    net = build_network(
        "8C3-MP2-16C3-MP2-40", input_shape=(3, 8, 8), num_classes=10, seed=123
    )
    net.eval()
    return net


@pytest.fixture(scope="module")
def seeded_deployable(seeded_network):
    return convert(seeded_network, FP32)


@pytest.fixture(scope="module")
def images():
    rng = np.random.default_rng(99)
    return rng.random((12, 3, 8, 8)).astype(np.float32)


def assert_outputs_equal(legacy, runtime):
    assert np.array_equal(legacy.logits, runtime.logits)
    assert legacy.input_spike_totals == runtime.input_spike_totals
    assert legacy.stats.per_layer == runtime.stats.per_layer
    assert legacy.stats.per_layer_timestep == runtime.stats.per_layer_timestep
    if legacy.spike_trains is not None:
        assert set(legacy.spike_trains) == set(runtime.spike_trains)
        for name, trains in legacy.spike_trains.items():
            for t, train in enumerate(trains):
                assert np.array_equal(train, runtime.spike_trains[name][t]), (
                    f"train mismatch at layer {name}, t={t}"
                )


class TestDeployableEquivalence:
    def test_dense_dispatch_bitexact(self, seeded_deployable, images):
        legacy = forward_legacy(seeded_deployable, images, 2, record=True)
        runtime = seeded_deployable.forward(images, 2, record=True)
        assert_outputs_equal(legacy, runtime)

    def test_forced_event_path_bitexact(self, seeded_deployable, images):
        legacy = forward_legacy(seeded_deployable, images, 2, record=True)
        with runtime_overrides(force_path="event"):
            runtime = seeded_deployable.forward(images, 2, record=True)
        assert_outputs_equal(legacy, runtime)
        counters = runtime.runtime_counters
        # Non-input conv layers see binary spikes and must have gone
        # event; FC layers always stay dense (see kernels module docs).
        assert counters["conv2_1"].event_steps == 2
        assert counters["conv2_1"].dense_steps == 0
        assert counters["fc1"].dense_steps == 2
        assert counters["fc1"].event_steps == 0

    def test_forced_dense_path_bitexact(self, seeded_deployable, images):
        legacy = forward_legacy(seeded_deployable, images, 2)
        with runtime_overrides(force_path="dense"):
            runtime = seeded_deployable.forward(images, 2)
        assert np.array_equal(legacy.logits, runtime.logits)

    def test_rate_coding_without_dense_input_core(self, seeded_deployable, images):
        legacy = forward_legacy(
            seeded_deployable, images, 4, RateEncoder(seed=5), record=True
        )
        with runtime_overrides(force_path="event"):
            runtime = seeded_deployable.forward(
                images, 4, RateEncoder(seed=5), record=True
            )
        assert_outputs_equal(legacy, runtime)
        # Rate-coded input is binary: even the first layer may go event.
        assert runtime.runtime_counters["conv1_1"].event_steps == 4

    def test_quantized_network_bitexact(self, seeded_network, images):
        for scheme in (INT4, INT8):
            deployable = convert(seeded_network, scheme)
            legacy = forward_legacy(deployable, images, 2)
            runtime = deployable.forward(images, 2)
            assert np.array_equal(legacy.logits, runtime.logits)
            with runtime_overrides(force_path="event"):
                event = deployable.forward(images, 2)
            assert np.array_equal(legacy.logits, event.logits)

    def test_time_chunking_bitexact(self, seeded_deployable, images):
        legacy = forward_legacy(seeded_deployable, images, 4, RateEncoder(seed=1))
        with runtime_overrides(max_fused_elements=1024):
            chunked = seeded_deployable.forward(images, 4, RateEncoder(seed=1))
        assert np.array_equal(legacy.logits, chunked.logits)

    def test_stacked_trains_match_lists(self, seeded_deployable, images):
        out = seeded_deployable.forward(images, 2, record=True)
        assert out.spike_trains_stacked is not None
        for name, stacked in out.spike_trains_stacked.items():
            assert stacked.shape[0] == 2
            for t in range(2):
                assert np.array_equal(stacked[t], out.spike_trains[name][t])

    def test_recorded_trains_do_not_alias_input(self, seeded_deployable, images):
        """Recorded trains must be safe against callers mutating images
        in place afterwards (the oracle loop copies every frame)."""
        out = seeded_deployable.forward(images, 2, record=True)
        assert not np.shares_memory(out.spike_trains_stacked["conv1_1"], images)
        before = out.spike_trains_stacked["conv1_1"].copy()
        corrupted = images.copy()
        out2 = seeded_deployable.forward(corrupted, 2, record=True)
        corrupted += 1.0  # caller reuses its batch buffer
        assert np.array_equal(out2.spike_trains_stacked["conv1_1"], before)


class TestSpikingNetworkEquivalence:
    def test_eval_forward_bitexact(self, seeded_network, images):
        with no_grad():
            runtime = seeded_network.forward(images, 2, record=True)
        legacy = seeded_network.forward(images, 2, record=True)  # Tensor loop
        assert legacy.logits.requires_grad
        assert np.array_equal(legacy.logits.data, runtime.logits.data)
        assert np.array_equal(
            legacy.output_spike_counts, runtime.output_spike_counts
        )
        assert legacy.input_spike_totals == runtime.input_spike_totals
        assert legacy.stats.per_layer == runtime.stats.per_layer
        for name, trains in legacy.spike_trains.items():
            for t, train in enumerate(trains):
                assert np.array_equal(train, runtime.spike_trains[name][t])

    def test_training_mode_keeps_legacy_tape(self, seeded_network, images):
        seeded_network.train()
        try:
            out = seeded_network.forward(images[:4], 2)
            # Legacy autograd path: logits must be on the tape.
            assert out.logits.requires_grad
        finally:
            seeded_network.eval()

    def test_grad_enabled_keeps_legacy_tape(self, seeded_network, images):
        out = seeded_network.forward(images[:4], 2)
        assert out.logits.requires_grad

    def test_predict_matches_tensor_loop(self, seeded_network, images):
        runtime_pred = seeded_network.predict(images, 2)
        legacy = seeded_network.forward(images, 2)  # Tensor loop
        assert legacy.logits.requires_grad
        assert np.array_equal(runtime_pred, legacy.logits.data.argmax(axis=1))

    def test_plan_cache_invalidated_by_weight_updates(self, images):
        """A train()/eval() cycle that mutates weights must not leave the
        runtime serving a stale cached plan."""
        net = build_network(
            "6C3-MP2-30", input_shape=(3, 8, 8), num_classes=10, seed=17
        )
        net.eval()
        with no_grad():
            first = net.forward(images, 2)
        net.train()
        net.stages[0].layer.weight.data = (
            net.stages[0].layer.weight.data + 0.25
        )
        net.eval()
        with no_grad():
            runtime = net.forward(images, 2)
        legacy = net.forward(images, 2)  # Tensor loop
        assert np.array_equal(runtime.logits.data, legacy.logits.data)
        assert not np.array_equal(runtime.logits.data, first.logits.data)

    def test_qat_network_bitexact(self, images):
        from repro.quant.qat import prepare_qat

        net = build_network(
            "6C3-MP2-30", input_shape=(3, 8, 8), num_classes=10, seed=7
        )
        prepare_qat(net, INT4)
        net.eval()
        with no_grad():
            runtime = net.forward(images, 2)
        legacy = net.forward(images, 2)  # Tensor loop
        assert np.array_equal(legacy.logits.data, runtime.logits.data)


class TestSimulatorEquivalence:
    @pytest.fixture(scope="class")
    def simulator(self, seeded_deployable):
        config = AcceleratorConfig(
            name="eq", allocation=(1, 2, 2), scheme=FP32
        )
        return HybridSimulator(seeded_deployable, config)

    @pytest.fixture
    def oracle_run(self, simulator, monkeypatch):
        """``simulator.run`` replaying the oracle's recorded trains."""

        def run(images, timesteps):
            with monkeypatch.context() as patch:
                patch.setattr(
                    simulator.network,
                    "forward",
                    functools.partial(forward_legacy, simulator.network),
                )
                return simulator.run(images, timesteps)

        return run

    def test_cycle_counts_bitexact(self, simulator, oracle_run, images):
        runtime = simulator.run(images, 2)
        legacy = oracle_run(images, 2)
        # The oracle ran: it has no dispatch counters to report.
        assert not any("runtime dispatch" in note for note in legacy.notes)
        for got, want in zip(runtime.layers, legacy.layers):
            assert got.cycles == want.cycles
            assert got.compression_cycles == want.compression_cycles
            assert got.accumulation_cycles == want.accumulation_cycles
            assert got.activation_cycles == want.activation_cycles
            assert got.input_events == want.input_events
            assert got.output_spikes == want.output_spikes
        assert runtime.latency_ms == legacy.latency_ms
        assert runtime.energy_mj == legacy.energy_mj
        assert np.array_equal(runtime.logits, legacy.logits)

    def test_cycle_counts_bitexact_event_path(self, simulator, oracle_run, images):
        legacy = oracle_run(images, 2)
        with runtime_overrides(force_path="event"):
            event = simulator.run(images, 2)
        for got, want in zip(event.layers, legacy.layers):
            assert got.cycles == want.cycles
        assert event.latency_ms == legacy.latency_ms

    def test_dispatch_counters_in_notes(self, simulator, images):
        report = simulator.run(images, 2)
        assert any("runtime dispatch" in note for note in report.notes)
