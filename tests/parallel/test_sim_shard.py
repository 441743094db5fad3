"""Sharded exact-mode simulator stats and memory-mapped shard payloads.

Two PR-4 satellites, both about what travels between processes:

* :meth:`HybridSimulator.run` with a shard geometry ships per-(layer,
  timestep) cycle *sums* (exact integers in float64) plus a slim
  functional output -- never the recorded trains -- and the merged
  report must be bit-identical to the unsharded run for deterministic
  encoders, at any shard geometry and worker count.
* Under the persistent :class:`WorkerService` the evaluation image array
  is written once to a temp ``.npy`` and tasks carry ``('mmap', path,
  start, stop)`` row slices; when the file cannot be created the
  payloads fall back inline. Either way the merged result is
  bit-identical to the serial fallback.
"""

import numpy as np
import pytest

from repro.hw.config import AcceleratorConfig
from repro.hw.simulator import HybridSimulator, merge_cycle_sums
from repro.parallel import sharded_forward
from repro.quant import FP32, convert
from repro.snn import build_network
from repro.snn.encoding import TtfsEncoder


@pytest.fixture(scope="module")
def deployable():
    net = build_network(
        "8C3-MP2-16C3-MP2-40", input_shape=(3, 8, 8), num_classes=10, seed=321
    )
    net.eval()
    return convert(net, FP32)


@pytest.fixture(scope="module")
def simulator(deployable):
    config = AcceleratorConfig(
        name="simshard", allocation=(1, 2, 2), scheme=FP32
    )
    return HybridSimulator(deployable, config)


@pytest.fixture(scope="module")
def images():
    rng = np.random.default_rng(41)
    return rng.random((13, 3, 8, 8)).astype(np.float32)


#: Random splits of the 13-image batch into 2-5 contiguous parts, as
#: sorted interior cut points.
_RANDOM_CUTS = [
    tuple(sorted(int(c) for c in np.random.default_rng(seed).choice(
        np.arange(1, 13), size=parts - 1, replace=False
    )))
    for seed, parts in enumerate((2, 3, 4, 5))
]


def assert_reports_equal(got, want):
    for got_layer, want_layer in zip(got.layers, want.layers):
        assert got_layer.cycles == want_layer.cycles
        assert got_layer.compression_cycles == want_layer.compression_cycles
        assert got_layer.accumulation_cycles == want_layer.accumulation_cycles
        assert got_layer.activation_cycles == want_layer.activation_cycles
        assert got_layer.input_events == want_layer.input_events
        assert got_layer.output_spikes == want_layer.output_spikes
    assert got.latency_ms == want.latency_ms
    assert got.energy_mj == want.energy_mj
    assert got.samples == want.samples
    assert np.array_equal(got.logits, want.logits)
    assert got.accuracy == want.accuracy


class TestShardedSimulatorStats:
    @pytest.mark.parametrize(
        "geometry",
        [
            dict(shards=1),
            dict(shards=3),
            dict(shard_size=5),
            dict(shards=4, workers=1),
        ],
    )
    def test_serial_shard_geometries_bit_identical(
        self, simulator, images, geometry
    ):
        labels = np.arange(13) % 10
        plain = simulator.run(images, 2, labels=labels)
        sharded = simulator.run(images, 2, labels=labels, **geometry)
        assert_reports_equal(sharded, plain)

    def test_pooled_bit_identical_to_unsharded(self, simulator, images):
        labels = np.arange(13) % 10
        plain = simulator.run(images, 2, labels=labels)
        pooled = simulator.run(
            images, 2, labels=labels, shards=4, workers=2
        )
        assert_reports_equal(pooled, plain)

    def test_ttfs_encoder_pooled_bit_identical(self, simulator, images):
        encoder = TtfsEncoder(timesteps=4)
        plain = simulator.run(images, 4, TtfsEncoder(timesteps=4))
        pooled = simulator.run(
            images, 4, encoder, shards=3, workers=2
        )
        assert_reports_equal(pooled, plain)

    @pytest.mark.parametrize("layer_index", [1, 2])
    @pytest.mark.parametrize("cuts", [(5,)] + _RANDOM_CUTS)
    def test_merged_sums_are_exact_integers(
        self, simulator, images, cuts, layer_index
    ):
        """The merge contract: per-shard sums are integer-valued and
        add exactly, so splitting cannot perturb a single bit -- at any
        split of the samples, on the padded (conv2_1) and the popcount
        (fc1) compression reductions."""
        from repro.hw.simulator import sparse_layer_cycle_sums

        out = simulator.network.forward(images, 2, record=True)
        layer = simulator.network.layers[layer_index]
        trains = out.spike_trains_stacked[layer.name]
        whole = sparse_layer_cycle_sums(
            layer, 2, trains, simulator.config.compression_chunk_bits
        )
        edges = (0,) + tuple(cuts) + (len(images),)
        parts = []
        for lo, hi in zip(edges[:-1], edges[1:]):
            part = sparse_layer_cycle_sums(
                layer, 2, trains[:, lo:hi],
                simulator.config.compression_chunk_bits,
            )
            parts.append({layer.name: part})
        merged = merge_cycle_sums(parts)[layer.name]
        for key in ("compr", "accum", "events", "busy"):
            assert np.array_equal(merged[key], whole[key])
            assert np.array_equal(merged[key], np.round(merged[key]))
        assert float(merged["samples"]) == 13.0

    def test_dispatch_note_present_in_sharded_report(self, simulator, images):
        report = simulator.run(images, 2, shards=3, workers=2)
        assert any("runtime dispatch" in note for note in report.notes)


class TestMmapShardPayloads:
    def test_persistent_service_ships_mmap_slices(
        self, deployable, images, monkeypatch
    ):
        """Under the (default) persistent service the image array is
        shipped as one temp .npy plus row bounds -- and the merged run
        is bit-identical to the serial fallback."""
        import repro.parallel.shard as shard

        seen = {}
        original = shard.plan_task_images

        def spy(arr, slices):
            payloads, cleanup = original(arr, slices)
            seen["payloads"] = payloads
            return payloads, cleanup

        monkeypatch.setattr(shard, "plan_task_images", spy)
        serial = sharded_forward(deployable, images, 2, shards=4, workers=1)
        pooled = sharded_forward(deployable, images, 2, shards=4, workers=2)
        payloads = seen["payloads"]
        assert all(
            isinstance(p, tuple) and p[0] == "mmap" for p in payloads
        )
        assert [p[2:] for p in payloads] == [(0, 4), (4, 7), (7, 10), (10, 13)]
        # One shared file; cleaned up after the pooled call returned.
        paths = {p[1] for p in payloads}
        assert len(paths) == 1
        import os

        assert not os.path.exists(next(iter(paths)))
        assert np.array_equal(pooled.logits, serial.logits)
        assert pooled.stats.per_layer == serial.stats.per_layer

    def test_unwritable_tempfile_falls_back_inline(
        self, deployable, images, monkeypatch
    ):
        import repro.parallel.shard as shard

        def broken(*args, **kwargs):
            raise OSError("no temp space")

        monkeypatch.setattr(shard.tempfile, "mkstemp", broken)
        serial = sharded_forward(deployable, images, 2, shards=4, workers=1)
        pooled = sharded_forward(deployable, images, 2, shards=4, workers=2)
        assert np.array_equal(pooled.logits, serial.logits)
        assert pooled.stats.per_layer == serial.stats.per_layer

    def test_resolve_round_trips_all_payload_kinds(self, tmp_path):
        from repro.parallel.shard import resolve_task_images

        rng = np.random.default_rng(0)
        images = rng.random((6, 2, 3, 3)).astype(np.float32)
        # inline array
        assert np.array_equal(resolve_task_images(images[2:5]), images[2:5])
        # memory-mapped row slice
        path = str(tmp_path / "imgs.npy")
        np.save(path, images)
        got = resolve_task_images(("mmap", path, 2, 6))
        assert np.array_equal(got, images[2:6])
        assert isinstance(got, np.ndarray) and not isinstance(
            got, np.memmap
        )
