"""Hybrid simulator integration tests."""

import hashlib

import numpy as np
import pytest

from repro.errors import ConfigError, HardwareModelError, ShapeError
from repro.hw.config import AcceleratorConfig
from repro.hw.simulator import HybridSimulator
from repro.parallel import workers_override
from repro.quant import convert
from repro.quant.schemes import FP32, INT4
from repro.snn import build_network
from repro.snn.encoding import RateEncoder


@pytest.fixture
def config():
    return AcceleratorConfig(name="test", allocation=(1, 2, 2), scheme=FP32)


@pytest.fixture
def simulator(tiny_deployable, config):
    return HybridSimulator(tiny_deployable, config)


@pytest.fixture
def images(tiny_dataset):
    _, test = tiny_dataset
    return test.images[:16], test.labels[:16]


class TestRun:
    def test_report_fields(self, simulator, images):
        report = simulator.run(images[0], 2, labels=images[1])
        assert report.latency_ms > 0
        assert report.throughput_fps > 0
        assert report.energy_mj > 0
        assert report.accuracy is not None
        assert report.total_spikes_per_image > 0
        assert len(report.layers) == 3

    def test_input_layer_on_dense_core(self, simulator, images):
        report = simulator.run(images[0], 2)
        assert report.layers[0].engine == "dense"
        assert all(l.engine == "sparse" for l in report.layers[1:])

    def test_dense_core_cycles_activity_independent(
        self, simulator, images, rng
    ):
        bright = np.ones_like(images[0][:4])
        dark = np.zeros_like(images[0][:4])
        r1 = simulator.run(bright, 2)
        r2 = simulator.run(dark, 2)
        assert r1.layers[0].cycles == r2.layers[0].cycles

    def test_sparse_cycles_track_activity(self, simulator, images):
        bright = np.ones_like(images[0][:4])  # drives lots of spikes
        dark = np.zeros_like(images[0][:4])
        busy = simulator.run(bright, 2)
        idle = simulator.run(dark, 2)
        assert busy.layers[1].cycles > idle.layers[1].cycles

    def test_accuracy_matches_deployable(
        self, simulator, tiny_deployable, images
    ):
        report = simulator.run(images[0], 2, labels=images[1])
        expected = (
            tiny_deployable.predict(images[0], 2) == images[1]
        ).mean()
        assert report.accuracy == pytest.approx(expected)

    def test_summary_renders(self, simulator, images):
        report = simulator.run(images[0], 2, labels=images[1])
        text = report.summary()
        assert "latency" in text
        assert "conv2_1" in text

    def test_more_cores_lower_latency(self, tiny_deployable, images):
        small = HybridSimulator(
            tiny_deployable,
            AcceleratorConfig(name="s", allocation=(1, 1, 1), scheme=FP32),
        ).run(images[0], 2)
        big = HybridSimulator(
            tiny_deployable,
            AcceleratorConfig(name="b", allocation=(4, 8, 8), scheme=FP32),
        ).run(images[0], 2)
        assert big.latency_ms < small.latency_ms

    def test_rate_encoder_without_dense_core(self, tiny_deployable, images):
        config = AcceleratorConfig(
            name="rate", allocation=(1, 2, 2), scheme=FP32, use_dense_core=False
        )
        sim = HybridSimulator(tiny_deployable, config)
        report = sim.run(images[0], 4, RateEncoder(seed=0))
        assert report.layers[0].engine == "sparse"

    def test_direct_without_dense_core_rejected(self, tiny_deployable, images):
        config = AcceleratorConfig(
            name="bad", allocation=(1, 2, 2), scheme=FP32, use_dense_core=False
        )
        sim = HybridSimulator(tiny_deployable, config)
        with pytest.raises(HardwareModelError, match="dense core"):
            sim.run(images[0], 2)

    @pytest.mark.parametrize("timesteps", [0, -2])
    def test_rejects_no_timesteps(self, simulator, images, timesteps):
        with pytest.raises(ShapeError, match="timesteps"):
            simulator.run(images[0], timesteps)

    def test_rejects_empty_batch(self, simulator, images):
        with pytest.raises(ShapeError, match="empty"):
            simulator.run(images[0][:0], 2)

    def test_allocation_mismatch_rejected(self, tiny_deployable):
        config = AcceleratorConfig(name="bad", allocation=(1, 2), scheme=FP32)
        with pytest.raises(ConfigError):
            HybridSimulator(tiny_deployable, config)


class TestRunFromCounts:
    def test_analytic_close_to_exact(self, simulator, tiny_deployable, images):
        exact = simulator.run(images[0], 2)
        out = tiny_deployable.forward(images[0], 2)
        events = {
            name: value / len(images[0])
            for name, value in out.input_spike_totals.items()
        }
        analytic = simulator.run_from_counts(events, 2)
        assert analytic.latency_ms == pytest.approx(exact.latency_ms, rel=0.15)

    def test_missing_layer_count_rejected(self, simulator):
        with pytest.raises(HardwareModelError, match="no event count"):
            simulator.run_from_counts({"conv2_1": 10.0}, 2)

    def test_output_spike_totals_optional(self, simulator, tiny_deployable, images):
        out = tiny_deployable.forward(images[0], 2)
        events = {
            name: value / len(images[0])
            for name, value in out.input_spike_totals.items()
        }
        report = simulator.run_from_counts(
            events, 2, output_spikes_per_layer={"conv1_1": 100.0}
        )
        assert report.total_spikes_per_image == 100.0


class TestConfigPropagation:
    def test_wider_chunk_fewer_compression_cycles(self, tiny_deployable, images):
        narrow = HybridSimulator(
            tiny_deployable,
            AcceleratorConfig(
                name="n", allocation=(1, 2, 2), scheme=FP32,
                compression_chunk_bits=4,
            ),
        ).run(images[0], 2)
        wide = HybridSimulator(
            tiny_deployable,
            AcceleratorConfig(
                name="w", allocation=(1, 2, 2), scheme=FP32,
                compression_chunk_bits=64,
            ),
        ).run(images[0], 2)
        narrow_compr = sum(l.compression_cycles for l in narrow.layers)
        wide_compr = sum(l.compression_cycles for l in wide.layers)
        assert wide_compr <= narrow_compr

    def test_scheme_name_in_report(self, tiny_deployable_int4, images):
        config = AcceleratorConfig(name="q", allocation=(1, 2, 2), scheme=INT4)
        report = HybridSimulator(tiny_deployable_int4, config).run(images[0][:4], 2)
        assert report.scheme_name == "int4"
        assert report.config_name == "q"

    def test_slower_clock_longer_latency(self, tiny_deployable, images):
        fast = HybridSimulator(
            tiny_deployable,
            AcceleratorConfig(name="f", allocation=(1, 2, 2), scheme=FP32),
        ).run(images[0][:4], 2)
        slow = HybridSimulator(
            tiny_deployable,
            AcceleratorConfig(
                name="s", allocation=(1, 2, 2), scheme=FP32, clock_hz=50e6
            ),
        ).run(images[0][:4], 2)
        assert slow.latency_ms == pytest.approx(2 * fast.latency_ms, rel=1e-3)
        assert slow.throughput_fps == pytest.approx(
            fast.throughput_fps / 2, rel=1e-3
        )

    def test_layer_cores_reported(self, tiny_deployable, images):
        config = AcceleratorConfig(name="c", allocation=(2, 5, 3), scheme=FP32)
        report = HybridSimulator(tiny_deployable, config).run(images[0][:4], 2)
        assert [l.cores for l in report.layers] == [2, 5, 3]


class TestEnergyScaling:
    def test_int4_hardware_cheaper(self, tiny_deployable, tiny_deployable_int4, images):
        fp32_sim = HybridSimulator(
            tiny_deployable,
            AcceleratorConfig(name="f", allocation=(1, 2, 2), scheme=FP32),
        )
        int4_sim = HybridSimulator(
            tiny_deployable_int4,
            AcceleratorConfig(name="q", allocation=(1, 2, 2), scheme=INT4),
        )
        fp32_report = fp32_sim.run(images[0], 2)
        int4_report = int4_sim.run(images[0], 2)
        assert int4_report.energy_mj < fp32_report.energy_mj
        assert int4_report.dynamic_power_w < fp32_report.dynamic_power_w


class TestPinnedReport:
    """A small rate-coded run (every layer on the sparse cores, chunk
    widths taking both the popcount and the padded reduction, 33
    samples split into lanes of 16 and 17) must keep reproducing the
    report this digest was taken from, whatever the lane count."""

    DIGEST = "7ae6c05e553ffad4b59b0c300f44b8e45f92d02f042a809015b484efe109235c"

    @pytest.mark.parametrize("workers", [1, 2])
    def test_report_digest(self, workers):
        network = build_network(
            "8C3-MP2-16C3-MP2-40", input_shape=(3, 8, 8), num_classes=10,
            seed=11,
        )
        network.eval()
        config = AcceleratorConfig(
            name="pin", allocation=(2, 2, 2), scheme=INT4,
            use_dense_core=False,
        )
        simulator = HybridSimulator(convert(network, INT4), config)
        images = np.random.default_rng(3).random(
            (33, 3, 8, 8), dtype=np.float32
        )
        with workers_override(workers):
            report = simulator.run(images, 3, RateEncoder(seed=5))
        digest = hashlib.sha256(
            repr(report.layers).encode() + report.logits.tobytes()
        ).hexdigest()
        assert digest == self.DIGEST
