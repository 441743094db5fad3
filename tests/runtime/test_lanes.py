"""Sample lanes: a forward split over threads equals the one-lane forward.

The engine splits a batch of at least 16 samples into lanes that run a
layer's kernels, LIF scan and pooling concurrently, after routing once
on the whole batch (see ``repro.runtime.lanes``). These tests pin that
split as a pure speed change: logits, per-layer and per-timestep spike
statistics, input totals, recorded trains and dispatch counters are
byte-identical to ``workers_override(1)`` in every configuration, the
BLAS thread count is restored afterwards, and the premise the split
rests on -- a dense conv's fold does not depend on the BLAS thread
count, wherever the fold is calibrated -- holds at every VGG9 and
reference conv shape.
"""

import os
import pickle
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from refshapes import (
    DEEP_VGG9_SHAPES,
    make_conv_layer_plan,
    make_conv_network_plan,
)

from repro.parallel import sharded_forward, workers_override
from repro.quant import FP32, INT8, INT8_P2, convert
from repro.runtime import (
    InferenceEngine,
    blas,
    plan_deployable,
    runtime_overrides,
)
from repro.runtime.kernels import (
    KBLOCK_CANDIDATES,
    calibrate_block_exact,
    calibrate_event_exact,
    dense_conv,
    resolve_event_block,
)
from repro.runtime.lanes import lane_bounds, lane_count
from repro.snn import build_network, build_vgg9
from repro.snn.encoding import RateEncoder
from repro.snn.neuron import lif_scan

pytestmark = pytest.mark.skipif(
    not blas.available(), reason="BLAS thread count not controllable: one lane"
)

ARCH = "8C3-MP2-64C3-64C3-MP2-40"  # 64C3 after 64 channels: K=576, blocked

ROUTES = {
    "dense": dict(force_path="dense"),
    "event": dict(force_path="event"),
    "routed": dict(dispatch_threshold=0.2),
}


def _network(seed=5):
    net = build_network(
        ARCH, input_shape=(3, 8, 8), num_classes=10, seed=seed
    )
    net.eval()
    return net


@pytest.fixture(scope="module")
def models():
    net = _network()
    return {
        "fp32": convert(net, FP32),
        "int8p2": convert(net, INT8_P2),
        "int8": convert(net, INT8),
    }


def _forward(model, images, timesteps, coding, workers, record=True):
    encoder = RateEncoder(seed=9) if coding == "rate" else None
    with workers_override(workers):
        return model.forward(images, timesteps, encoder=encoder, record=record)


def assert_identical(got, want, counters=True):
    assert got.logits.tobytes() == want.logits.tobytes()
    assert got.stats.per_layer == want.stats.per_layer
    assert got.stats.per_layer_timestep == want.stats.per_layer_timestep
    assert got.stats.neuron_counts == want.stats.neuron_counts
    assert got.input_spike_totals == want.input_spike_totals
    assert set(got.spike_trains_stacked) == set(want.spike_trains_stacked)
    for name, train in want.spike_trains_stacked.items():
        assert got.spike_trains_stacked[name].tobytes() == train.tobytes()
    if counters:
        assert {k: c.as_dict() for k, c in got.runtime_counters.items()} == {
            k: c.as_dict() for k, c in want.runtime_counters.items()
        }


class TestLaneSplit:
    def test_bounds_cover_batch(self):
        assert lane_bounds(17, 2) == [(0, 8), (8, 17)]
        assert lane_bounds(64, 3) == [(0, 21), (21, 42), (42, 64)]

    def test_lane_count(self):
        with workers_override(2):
            assert [lane_count(n) for n in (1, 8, 15, 16, 64)] == [1, 1, 1, 2, 2]
        with workers_override(1):
            assert lane_count(64) == 1
        with workers_override(4):
            assert lane_count(33) == 4

    def test_small_batch_never_resolves_workers(self, monkeypatch):
        """A batch under two lanes' worth runs in one lane without
        asking the host for its core count."""

        def no_cpu_count():
            raise AssertionError("os.cpu_count called")

        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        monkeypatch.setattr(os, "cpu_count", no_cpu_count)
        assert lane_count(15) == 1
        assert lane_count(1) == 1


class TestLanesEqualOneLane:
    @settings(max_examples=30, deadline=None)
    @given(
        samples=st.sampled_from([16, 17, 33, 64]),
        timesteps=st.sampled_from([1, 2, 5]),
        coding=st.sampled_from(["direct", "rate"]),
        scheme=st.sampled_from(["fp32", "int8p2", "int8"]),
        route=st.sampled_from(sorted(ROUTES)),
        workers=st.sampled_from([2, 3, 4]),
        seed=st.integers(0, 2**16),
    )
    def test_byte_identical(
        self, models, samples, timesteps, coding, scheme, route, workers,
        seed,
    ):
        model = models[scheme]
        images = np.random.default_rng(seed).random(
            (samples, 3, 8, 8), dtype=np.float32
        )
        with runtime_overrides(**ROUTES[route]):
            want = _forward(model, images, timesteps, coding, workers=1)
            with workers_override(workers):
                assert lane_count(samples) > 1
            got = _forward(model, images, timesteps, coding, workers)
        assert_identical(got, want)

    def test_blas_threads_restored(self, models):
        before = blas.threads()
        images = np.random.default_rng(1).random((32, 3, 8, 8), dtype=np.float32)
        _forward(models["fp32"], images, 2, "direct", workers=2)
        assert blas.threads() == before

    def test_lane_error_propagates_and_restores(self, models, monkeypatch):
        from repro.runtime import engine

        calls = []

        def failing(*args, **kwargs):
            calls.append(1)
            raise RuntimeError("lane failure")

        before = blas.threads()
        monkeypatch.setattr(engine, "lif_scan", failing)
        images = np.random.default_rng(1).random((32, 3, 8, 8), dtype=np.float32)
        with pytest.raises(RuntimeError, match="lane failure"):
            _forward(models["fp32"], images, 2, "direct", workers=2)
        assert len(calls) == 2  # both lanes ran before the error surfaced
        assert blas.threads() == before

    def test_cold_start_runs_in_lanes(self):
        """A fresh plan's first forward already runs in lanes: the lazily
        built state (block tables, integer weight copies) is built
        before the lanes start, so none of it races."""
        images = np.random.default_rng(3).random((32, 3, 8, 8), dtype=np.float32)
        outputs = []
        for workers in (1, 2):
            model = convert(_network(seed=77), INT8_P2)
            assert model._runtime_plan is None
            with runtime_overrides(dispatch_threshold=0.2):
                outputs.append(_forward(model, images, 3, "rate", workers))
        assert_identical(outputs[1], outputs[0])

    def test_fork_after_lane_run(self, models):
        """A lane run leaves a thread pool behind; forked workers must
        neither hang on it nor change a bit."""
        model = models["fp32"]
        images = np.random.default_rng(4).random((32, 3, 8, 8), dtype=np.float32)
        lanes = _forward(model, images, 2, "direct", workers=2)
        serial = sharded_forward(model, images, 2, shards=2, workers=1)
        pooled = sharded_forward(
            model, images, 2, shards=2, workers=2, timeout=120
        )
        assert pooled.logits.tobytes() == serial.logits.tobytes()
        assert pooled.stats.per_layer == serial.stats.per_layer
        assert lanes.stats.per_layer == _forward(
            model, images, 2, "direct", workers=1
        ).stats.per_layer

    def test_forked_child_runs_lanes(self, models):
        """A child forked after a lane run builds its own lane pool."""
        model = models["fp32"]
        images = np.random.default_rng(5).random((32, 3, 8, 8), dtype=np.float32)
        want = _forward(model, images, 2, "direct", workers=2, record=False)
        read, write = os.pipe()
        pid = os.fork()
        if pid == 0:  # child: one lane run, report, exit hard
            try:
                out = _forward(model, images, 2, "direct", 2, record=False)
                payload = pickle.dumps((out.logits.tobytes(), blas.threads()))
                os.write(write, payload)
            finally:
                os._exit(0)
        os.close(write)
        with os.fdopen(read, "rb") as pipe:
            logits, threads = pickle.loads(pipe.read())
        os.waitpid(pid, 0)
        assert logits == want.logits.tobytes()
        assert threads == blas.threads()


def _vgg9_conv_shapes():
    plan = plan_deployable(convert(build_vgg9(seed=0), FP32))
    return sorted({
        (layer.geometry.cin, layer.geometry.height, layer.geometry.width,
         layer.out_channels)
        for layer in plan.layers
        if layer.kind == "conv"
    } | set(DEEP_VGG9_SHAPES))


#: A VGG9 shape whose full-K GEMM folds differently at one BLAS thread.
THREAD_DEPENDENT_SHAPE = (112, 16, 16, 192)


class TestFoldIndependentOfBlasThreads:
    """The premise of lanes running BLAS on one thread: a dense fold
    calibrated equal to the scatter kernel's ascending-k fold is the
    same at every BLAS thread count. OpenBLAS splits a GEMM over M and
    N across threads, but its K blocking is not thread-independent, so
    the uncalibrated full-K fold of deep shapes is not."""

    @pytest.mark.parametrize("shape", _vgg9_conv_shapes())
    def test_calibrated_folds_identical_at_one_thread(self, shape):
        if (blas.threads() or 1) < 2:
            pytest.skip("the library default is already one thread")
        layer = make_conv_layer_plan(*shape, seed=sum(shape))
        k = layer.geometry.k
        folds = [
            block
            for block in KBLOCK_CANDIDATES
            if block < k and calibrate_block_exact(layer, block)
        ]
        if calibrate_event_exact(layer):
            folds.append(None)
        block = resolve_event_block(layer)
        assert block is not None
        assert (block or None) in folds
        rng = np.random.default_rng(sum(shape))
        batch = (rng.random((4,) + shape[:3]) < 0.1).astype(np.float32)
        for kblock in folds:
            want = dense_conv(layer, batch, kblock=kblock)
            with blas.single_threaded():
                assert blas.threads() == 1
                got = dense_conv(layer, batch, kblock=kblock)
            assert got.tobytes() == want.tobytes(), (shape, kblock)

    def test_uncalibrated_fold_stays_on_whole_batch(self, monkeypatch):
        """With blocking disabled a deep shape has no calibrated fold;
        its float dense steps run on the whole batch at the library's
        thread count, so the LIF scans of lanes see the one-lane
        currents bit for bit."""
        from repro.runtime import engine

        plan = make_conv_network_plan(*THREAD_DEPENDENT_SHAPE, seed=2)
        conv = plan.layers[0]
        cin, height, width, _ = THREAD_DEPENDENT_SHAPE
        rng = np.random.default_rng(6)
        spikes = (rng.random((2, 16, cin, height, width)) < 0.04).astype(
            np.float32
        )
        scans = []

        def recording(current, *args, out=None, **kwargs):
            # The sample offset of this lane's slice of the whole train.
            start = out.__array_interface__["data"][0]
            origin = out.base.__array_interface__["data"][0]
            sample = (start - origin) // out[0, 0].nbytes
            scans.append((sample, threading.get_ident(), np.array(current)))
            return lif_scan(current, *args, out=out, **kwargs)

        monkeypatch.setattr(engine, "lif_scan", recording)
        currents = []
        with runtime_overrides(event_kblock=0):
            for workers in (1, 2):
                scans.clear()
                with workers_override(workers):
                    out = InferenceEngine(plan).run(spikes)
                assert out.counters[conv.name].dense_calibration_steps == 2
                # One scan per LIF block of one sample, in ``workers``
                # lane threads.
                conv_scans = sorted(
                    (scan for scan in scans if scan[2].shape[2:] == conv.output_shape),
                    key=lambda scan: scan[0],
                )
                assert [scan[0] for scan in conv_scans] == list(range(16))
                assert len({scan[1] for scan in conv_scans}) == workers
                currents.append(
                    np.concatenate([scan[2] for scan in conv_scans], axis=1)
                )
        assert currents[1].tobytes() == currents[0].tobytes()


#: Small enough that every layer of ARCH runs one sample per block.
ONE_SAMPLE_BUDGET = 1


@pytest.fixture
def dense_batches(monkeypatch):
    """The batch height of every ``dense_conv`` call the engine makes."""
    from repro.runtime import engine

    batches = []
    original = engine.dense_conv

    def recording(layer, x, *args, **kwargs):
        batches.append(x.shape[0])
        return original(layer, x, *args, **kwargs)

    monkeypatch.setattr(engine, "dense_conv", recording)
    return batches


class TestBlocksEqualWholeLanes:
    """A lane computes a conv layer's current one sample block at a
    time, each block's float32 current within ``max_fused_elements``
    elements. Blocks are a pure memory change: at one sample per block,
    or at budgets whose blocks split the lanes unevenly, every output is
    byte-identical to the default budget's one-lane forward."""

    @settings(max_examples=30, deadline=None)
    @given(
        samples=st.sampled_from([5, 16, 17, 33]),
        timesteps=st.sampled_from([1, 2, 5]),
        coding=st.sampled_from(["direct", "rate"]),
        scheme=st.sampled_from(["fp32", "int8p2"]),
        route=st.sampled_from(sorted(ROUTES)),
        # 1: one sample per block; 3000 and 7000: blocks of several
        # samples that leave a shorter last block in the lane.
        budget=st.sampled_from([ONE_SAMPLE_BUDGET, 3000, 7000]),
        workers=st.sampled_from([1, 2, 3]),
        seed=st.integers(0, 2**16),
    )
    def test_byte_identical(
        self, models, samples, timesteps, coding, scheme, route, budget,
        workers, seed,
    ):
        model = models[scheme]
        images = np.random.default_rng(seed).random(
            (samples, 3, 8, 8), dtype=np.float32
        )
        with runtime_overrides(**ROUTES[route]):
            want = _forward(model, images, timesteps, coding, workers=1)
            with runtime_overrides(max_fused_elements=budget):
                got = _forward(model, images, timesteps, coding, workers)
        assert_identical(got, want)

    def test_blocks_split_lanes(self, models, dense_batches):
        """At the one-sample budget every dense conv call of a lane sees
        one sample's frames: no lane's whole current exists."""
        samples, timesteps = 17, 3
        images = np.random.default_rng(2).random(
            (samples, 3, 8, 8), dtype=np.float32
        )
        with runtime_overrides(force_path="dense"):
            want = _forward(models["fp32"], images, timesteps, "rate", 1)
            dense_batches.clear()
            with runtime_overrides(max_fused_elements=ONE_SAMPLE_BUDGET):
                got = _forward(models["fp32"], images, timesteps, "rate", 2)
        assert_identical(got, want)
        conv_layers = sum(
            1 for layer in models["fp32"]._runtime_plan.layers
            if layer.kind == "conv"
        )
        # A block's input is copied contiguous, so its timesteps fuse
        # into one call of ``timesteps`` frames.
        assert dense_batches == [timesteps] * (conv_layers * samples)

    def test_uncalibrated_fold_stays_whole_batch(self, dense_batches):
        """With blocking disabled the K=1008 shape has no calibrated fold:
        its float dense current is computed in one whole-batch call
        whatever the block budget, and the lanes only slice it."""
        plan = make_conv_network_plan(*THREAD_DEPENDENT_SHAPE, seed=2)
        conv = plan.layers[0]
        assert conv.geometry.k == 1008
        cin, height, width, _ = THREAD_DEPENDENT_SHAPE
        rng = np.random.default_rng(7)
        spikes = (rng.random((2, 16, cin, height, width)) < 0.04).astype(
            np.uint8
        )
        with runtime_overrides(event_kblock=0):
            with workers_override(1):
                want = InferenceEngine(plan).run(spikes, record=True)
            dense_batches.clear()
            with runtime_overrides(max_fused_elements=ONE_SAMPLE_BUDGET):
                with workers_override(2):
                    got = InferenceEngine(plan).run(spikes, record=True)
        assert dense_batches == [2 * 16]
        counters = got.counters[conv.name]
        assert counters.dense_calibration_steps == 2
        assert got.accumulated.tobytes() == want.accumulated.tobytes()
        assert got.stats.per_layer_timestep == want.stats.per_layer_timestep
        assert got.input_totals == want.input_totals
        for name, train in want.trains.items():
            assert got.trains[name].tobytes() == train.tobytes()
        assert {k: c.as_dict() for k, c in got.counters.items()} == {
            k: c.as_dict() for k, c in want.counters.items()
        }


class TestReducer:
    """``InferenceEngine.run(reducer=...)`` hands the caller every sample
    block of every layer's input train, in its lane, and changes nothing
    else the forward computes."""

    def test_blocks_tile_each_input_train(self, models):
        model = models["int8"]
        images = np.random.default_rng(4).random((17, 3, 8, 8)).astype(
            np.float32
        )
        seen = []

        def reducer(index, layer, block):
            seen.append((index, layer.name))
            return block.copy()

        with runtime_overrides(max_fused_elements=ONE_SAMPLE_BUDGET):
            want = _forward(model, images, 3, "rate", 1)
            with workers_override(2):
                got = model.forward(
                    images, 3, RateEncoder(seed=9), reducer=reducer
                )
        assert want.reduced is None
        assert got.spike_trains_stacked is None
        assert got.logits.tobytes() == want.logits.tobytes()
        assert got.stats.per_layer_timestep == want.stats.per_layer_timestep
        assert {k: c.as_dict() for k, c in got.runtime_counters.items()} == {
            k: c.as_dict() for k, c in want.runtime_counters.items()
        }
        names = [layer.name for layer in model._runtime_plan.layers]
        assert list(got.reduced) == names
        assert sorted(set(seen)) == list(enumerate(names))
        for name, blocks in got.reduced.items():
            # One sample per block, lane order then block order: the
            # blocks concatenate back to the recorded train.
            assert [block.shape[1] for block in blocks] == [1] * 17
            assert np.array_equal(
                np.concatenate(blocks, axis=1), want.spike_trains_stacked[name]
            )
