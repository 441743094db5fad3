"""Unit tests for plans, geometry tables and the paired kernels."""

import numpy as np
import pytest

from repro.quant import FP32, INT4, convert
from repro.runtime import (
    BufferPool,
    conv_geometry,
    plan_deployable,
    plan_spiking,
    runtime_overrides,
)
from repro.runtime.kernels import (
    calibrate_event_exact,
    dense_conv,
    dense_fc,
    event_conv,
    or_pool,
    resolve_event_backend,
)
from repro.snn import build_network
from repro.snn.neuron import LIFConfig, LIFNeuron, lif_scan
from repro.tensor import Tensor
from repro.tensor.ops import im2col


@pytest.fixture(scope="module")
def rng():
    return np.random.default_rng(42)


@pytest.fixture(scope="module")
def network():
    net = build_network(
        "8C3-MP2-16C3-MP2-40", input_shape=(3, 8, 8), num_classes=10, seed=5
    )
    net.eval()
    return net


class TestGeometry:
    def test_cache_returns_same_object(self):
        a = conv_geometry(4, 6, 6, 3, 1)
        b = conv_geometry(4, 6, 6, 3, 1)
        assert a is b

    def test_contrib_tables_invert_im2col(self, rng):
        cin, h, w, k, pad = 3, 6, 5, 3, 1
        g = conv_geometry(cin, h, w, k, pad)
        x = (rng.random((cin, h, w)) < 0.4).astype(np.float32)
        cols = im2col(x[None], (k, k), 1, pad)[0]  # (K, P)
        rebuilt = np.zeros((g.k, g.p), dtype=np.float32)
        pix = np.flatnonzero(x.reshape(-1))
        kk = g.contrib_k[pix]
        pp = g.contrib_p[pix]
        vv = g.contrib_valid[pix]
        rebuilt[kk[vv], pp[vv]] = 1.0
        assert np.array_equal(rebuilt, cols)


class TestKernels:
    @pytest.fixture(scope="class")
    def conv_plan(self, network):
        return plan_spiking(network).layers[0]

    @pytest.fixture(scope="class")
    def fc_plan(self, network):
        return plan_spiking(network).layers[-1]

    def test_dense_conv_matches_ops_conv2d(self, network, conv_plan, rng):
        from repro.tensor import no_grad, ops

        x = (rng.random((5, 3, 8, 8)) < 0.3).astype(np.float32)
        stage = network.stages[0]
        with no_grad():
            want = ops.conv2d(
                Tensor(x), stage.layer.weight, stage.layer.bias, 1, 1
            ).data
        got = dense_conv(conv_plan, x)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("backend", ["scipy", "numpy"])
    def test_event_conv_matches_dense_conv(self, conv_plan, rng, backend):
        if backend == "scipy":
            backend = resolve_event_backend("auto")
        for density in (0.0, 0.02, 0.3, 1.0):
            x = (rng.random((4, 3, 8, 8)) < density).astype(np.float32)
            want = dense_conv(conv_plan, x)
            got, updates = event_conv(conv_plan, x, backend)
            assert np.array_equal(got, want), f"density {density}"
            if density == 0.0:
                assert updates == 0

    def test_dense_fc_matches_legacy_matmul(self, network, fc_plan, rng):
        x = (rng.random((6, fc_plan.wmat.shape[1])) < 0.2).astype(np.float32)
        stage = network.stages[-1]
        want = x @ stage.layer.weight.data.T + stage.layer.bias.data
        assert np.array_equal(dense_fc(fc_plan, x), want)

    def test_calibration_gates_event_dispatch(self, conv_plan):
        backend = resolve_event_backend("auto")
        # The tiny conv shape must calibrate exact in-environment (the
        # per-shape verdict is what the dispatcher relies on).
        assert calibrate_event_exact(conv_plan, backend) is True
        # Cached verdict: second call hits the process-wide cache.
        assert calibrate_event_exact(conv_plan, backend) is True

    def test_dense_conv_chunking_bitexact(self, conv_plan, rng):
        x = (rng.random((7, 3, 8, 8)) < 0.5).astype(np.float32)
        whole = dense_conv(conv_plan, x)
        chunked = dense_conv(conv_plan, x, max_elements=conv_plan.geometry.k)
        assert np.array_equal(whole, chunked)

    def test_or_pool_matches_reshape_max(self, rng):
        x = (rng.random((6, 4, 8, 8)) < 0.3).astype(np.float32)
        want = x.reshape(6, 4, 4, 2, 4, 2).max(axis=(3, 5))
        assert np.array_equal(or_pool(x, 2), want)

    def test_buffer_pool_reuses_arrays(self):
        pool = BufferPool()
        a = pool.get("cols", (2, 3))
        b = pool.get("cols", (2, 3))
        c = pool.get("cols", (2, 4))
        assert a is b
        assert a is not c
        pool.clear()
        assert pool.get("cols", (2, 3)) is not a

    def test_buffer_pool_holds_one_cols_buffer_per_conv_shape(self, network):
        """Every batch size and tail chunk slices the same im2col
        buffer, so varied dynamic batches cannot grow the pool."""
        deployable = convert(network, FP32)
        plan = plan_deployable(deployable)
        conv_shapes = {
            (layer.geometry.k, layer.geometry.p)
            for layer in plan.layers
            if layer.kind == "conv"
        }
        images = np.random.default_rng(0).random((9, 3, 8, 8)).astype(np.float32)
        # Chunks of 4 samples at the first conv shape, so batches 5..9
        # end in a tail chunk of another size.
        first = plan.layers[0].geometry
        with runtime_overrides(
            force_path="dense", max_fused_elements=4 * first.k * first.p
        ):
            want = deployable.forward(images, 2).logits
            for batch in range(1, 10):
                got = deployable.forward(images[:batch], 2).logits
                assert np.array_equal(got, want[:batch])
        cols = [
            shape[1:]
            for tag, shape, _ in deployable._runtime_buffers._buffers
            if tag == "cols"
        ]
        assert sorted(cols) == sorted(conv_shapes)


class TestLifScan:
    def test_matches_stepwise_neuron(self, rng):
        current = rng.normal(size=(4, 5, 6)).astype(np.float32)
        config = LIFConfig(beta=0.15, threshold=0.5)
        neuron = LIFNeuron(config)
        membrane = None
        want = []
        for t in range(4):
            spikes, membrane = neuron.step(Tensor(current[t]), membrane)
            want.append(spikes.data)
        got, _ = lif_scan(current, config.beta, config.threshold, "shifted")
        assert np.array_equal(got, np.stack(want))

    def test_matches_deployable_rule(self, rng):
        current = rng.normal(size=(3, 4, 4)).astype(np.float32)
        beta, theta = 0.15, 0.5
        membrane = None
        want = []
        for t in range(3):
            integrated = (
                current[t] if membrane is None else beta * membrane + current[t]
            )
            spikes = (integrated > theta).astype(np.float32)
            membrane = integrated - spikes * theta
            want.append(spikes)
        got, final = lif_scan(current, beta, theta, "threshold")
        assert np.array_equal(got, np.stack(want))
        assert np.array_equal(final, membrane)

    def test_rejects_unknown_rule(self, rng):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError, match="spike_rule"):
            lif_scan(np.zeros((1, 2), dtype=np.float32), 0.1, 0.5, "bogus")


class TestPlans:
    def test_deployable_plan_hoists_dequantization(self, network):
        deployable = convert(network, INT4)
        plan = plan_deployable(deployable)
        for layer, src in zip(plan.layers, deployable.layers):
            want = src.effective_weight().reshape(layer.wmat.shape[0], -1)
            assert np.array_equal(layer.wmat, want)
            assert layer.wT.flags["C_CONTIGUOUS"]
            assert np.array_equal(layer.wT, layer.wmat.T)

    def test_spiking_plan_captures_bn_constants(self, network):
        plan = plan_spiking(network)
        conv = plan.layers[0]
        assert conv.has_bn
        assert conv.bn_mu.shape == (1, 8, 1, 1)
        assert plan.spike_rule == "shifted"

    def test_deployable_plan_folds_pool(self, network):
        plan = plan_deployable(convert(network, FP32))
        assert plan.layers[0].pool_after == 2
        assert plan.layers[-1].pool_after == 1
        assert plan.spike_rule == "threshold"
