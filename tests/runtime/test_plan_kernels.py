"""Unit tests for plans, geometry tables and the paired kernels."""

import numpy as np
import pytest

from repro.quant import FP32, INT4, convert
from repro.runtime import (
    BufferPool,
    conv_geometry,
    plan_deployable,
    runtime_overrides,
)
from repro.runtime.kernels import (
    calibrate_event_exact,
    dense_conv,
    dense_fc,
    event_conv,
    or_pool,
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

    def test_tap_tables_invert_im2col(self, rng):
        """Every in-bounds tap of every active pixel lands on its im2col
        cell; the others land on the spill position P, and the per-pixel
        count is the number of in-bounds taps."""
        cin, h, w, k, pad = 3, 6, 5, 3, 1
        g = conv_geometry(cin, h, w, k, pad)
        x = (rng.random((cin, h, w)) < 0.4).astype(np.float32)
        cols = im2col(x[None], (k, k), 1, pad)[0]  # (K, P)
        rebuilt = np.zeros((g.k, g.p + 1), dtype=np.float32)
        pix = np.flatnonzero(x.reshape(-1))
        rebuilt[g.tap_k[pix], g.tap_p[pix]] = 1.0
        assert np.array_equal(rebuilt[:, :g.p], cols)
        in_bounds = g.tap_p < g.p
        assert np.array_equal(g.tap_count, in_bounds.sum(axis=1))
        assert int(g.tap_count[pix].sum()) == int(cols.sum())


class TestKernels:
    @pytest.fixture(scope="class")
    def plan(self, network):
        return plan_deployable(convert(network, FP32))

    @pytest.fixture(scope="class")
    def conv_plan(self, plan):
        return plan.layers[0]

    @pytest.fixture(scope="class")
    def fc_plan(self, plan):
        return plan.layers[-1]

    def test_dense_conv_matches_ops_conv2d(self, conv_plan, rng):
        from repro.tensor import no_grad, ops

        x = (rng.random((5, 3, 8, 8)) < 0.3).astype(np.float32)
        g = conv_plan.geometry
        weight = conv_plan.wmat.reshape(
            conv_plan.out_channels, g.cin, g.kernel, g.kernel
        )
        with no_grad():
            want = ops.conv2d(
                Tensor(x), Tensor(weight), Tensor(conv_plan.bias), 1, 1
            ).data
        got = dense_conv(conv_plan, x)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("dtype", [np.float32, np.uint8])
    def test_event_conv_matches_dense_conv(self, conv_plan, rng, dtype):
        """A float32 train and a byte train (scanned through its bool
        view) scatter the same events into the same current."""
        for density in (0.0, 0.02, 0.3, 1.0):
            spikes = rng.random((4, 3, 8, 8)) < density
            want = dense_conv(conv_plan, spikes.astype(np.float32))
            got, updates = event_conv(conv_plan, spikes.astype(dtype))
            assert np.array_equal(got, want), f"density {density}"
            _, float_updates = event_conv(conv_plan, spikes.astype(np.float32))
            assert updates == float_updates
            if density == 0.0:
                assert updates == 0

    def test_negative_zero_is_no_event(self, conv_plan, rng):
        """``-0.0`` in a float batch scatters nothing: the current equals
        the one of the same batch with ``+0.0`` in its place."""
        spikes = rng.random((4, 3, 8, 8)) < 0.2
        signed = np.where(spikes, np.float32(1.0), np.float32(-0.0))
        assert np.signbit(signed[~spikes]).all()
        want, want_updates = event_conv(conv_plan, spikes.astype(np.float32))
        got, updates = event_conv(conv_plan, signed)
        assert updates == want_updates
        assert np.array_equal(got, want)
        empty, none = event_conv(conv_plan, np.full((2, 3, 8, 8), -0.0, np.float32))
        assert none == 0
        assert np.array_equal(
            empty, dense_conv(conv_plan, np.zeros((2, 3, 8, 8), np.float32))
        )

    def test_dense_fc_matches_legacy_matmul(self, network, fc_plan, rng):
        """The lowered FC layer computes the network layer's own matmul:
        FC stages carry no BN, so the FP32 lowering passes weight and
        bias through unchanged."""
        layer = network.stages[-1].layer
        x = (rng.random((6, layer.weight.data.shape[1])) < 0.2).astype(np.float32)
        want = x @ layer.weight.data.T + layer.bias.data
        assert np.array_equal(dense_fc(fc_plan, x), want)

    def test_calibration_gates_event_dispatch(self, conv_plan):
        # The tiny conv shape must calibrate exact in-environment (the
        # per-shape verdict is what the dispatcher relies on).
        assert calibrate_event_exact(conv_plan) is True
        # Cached verdict: second call hits the process-wide cache.
        assert calibrate_event_exact(conv_plan) is True

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

    def test_buffer_pool_scratch_shares_one_array(self):
        pool = BufferPool()
        a = pool.scratch("cols", (2, 3))
        b = pool.scratch("cols", (3, 2))
        assert a.shape == (2, 3) and b.shape == (3, 2)
        assert np.shares_memory(a, b)
        assert not np.shares_memory(a, pool.scratch("kpartial", (2, 3)))
        pool.scratch("cols", (4, 4))  # grows
        assert pool._flat[("cols", np.dtype(np.float32).str)].size == 16

    def test_buffer_pool_holds_one_cols_array_for_all_shapes(self, network):
        """Every layer shape, batch size and tail chunk slices the same
        im2col array, so varied dynamic batches cannot grow the pool."""
        deployable = convert(network, FP32)
        plan = plan_deployable(deployable)
        images = np.random.default_rng(0).random((9, 3, 8, 8)).astype(np.float32)
        # Chunks of 4 samples at the first conv shape, so batches 5..9
        # end in a tail chunk of another size.
        first = plan.layers[0].geometry
        max_elements = 4 * first.k * first.p
        with runtime_overrides(
            force_path="dense", max_fused_elements=max_elements
        ):
            want = deployable.forward(images, 2).logits
            for batch in range(1, 10):
                got = deployable.forward(images[:batch], 2).logits
                assert np.array_equal(got, want[:batch])
        pool = deployable._runtime_buffers
        assert not [key for key in pool._buffers if key[0] == "cols"]
        cols = [array for (tag, _), array in pool._flat.items() if tag == "cols"]
        # The largest chunk any conv shape took (9 samples x T=2 fused).
        largest = max(
            min(18, max(1, max_elements // (g.k * g.p))) * g.k * g.p
            for g in (layer.geometry for layer in plan.layers if layer.kind == "conv")
        )
        assert len(cols) == 1 and cols[0].size == largest


def _salted_currents(theta, shape, rng):
    """Currents equal to float32(theta), +-0 and three ulps either side
    of float32(theta), tiled over ``shape``."""
    edge = np.float32(theta)
    near = [edge, np.float32(0.0), np.float32(-0.0)]
    for toward in (np.float32(np.inf), np.float32(-np.inf)):
        value = edge
        for _ in range(3):
            value = np.nextafter(value, toward)
            near.append(value)
    return np.resize(np.array(near, np.float32), shape)


_THRESHOLD_EDGES = [0.1, 0.15, 1 / 3, 0.5, 1.0, 2.2]


def _stepwise_cases():
    """(beta, theta, current) cases: random currents, and currents salted
    at the threshold. Leak 0 integrates each step's current alone, so
    every salted value reaches the comparison as the membrane itself."""
    rng = np.random.default_rng(7)
    shape = (4, 6, 5)
    yield pytest.param(
        0.15, 0.5, rng.normal(size=shape).astype(np.float32), id="random"
    )
    for theta in _THRESHOLD_EDGES:
        salted = _salted_currents(theta, shape, rng)
        noise = (rng.normal(size=shape) * theta).astype(np.float32)
        yield pytest.param(0.0, theta, salted, id=f"edge-{theta:.3g}")
        yield pytest.param(
            0.15, theta, noise + salted, id=f"edge-noise-{theta:.3g}"
        )


class TestLifScan:
    @pytest.mark.parametrize("beta, theta, current", _stepwise_cases())
    def test_matches_stepwise_neuron(self, beta, theta, current):
        """The scan's ``u > theta`` fires exactly where the training
        loop's ``(u - theta) > 0`` does, and leaves the same membrane,
        also on membranes equal to float32(theta) and a few ulps either
        side of it."""
        neuron = LIFNeuron(LIFConfig(beta=beta, threshold=theta))
        membrane = None
        want = []
        for t in range(current.shape[0]):
            spikes, membrane = neuron.step(Tensor(current[t]), membrane)
            want.append(spikes.data)
        got, final = lif_scan(current, beta, theta)
        assert np.array_equal(got, np.stack(want))
        assert final.tobytes() == membrane.data.tobytes()

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
        got, final = lif_scan(current, beta, theta)
        assert np.array_equal(got, np.stack(want))
        assert np.array_equal(final, membrane)


class TestPlans:
    def test_deployable_plan_hoists_dequantization(self, network):
        deployable = convert(network, INT4)
        plan = plan_deployable(deployable)
        for layer, src in zip(plan.layers, deployable.layers):
            want = src.effective_weight().reshape(layer.wmat.shape[0], -1)
            assert np.array_equal(layer.wmat, want)
            assert layer.wT.flags["C_CONTIGUOUS"]
            assert np.array_equal(layer.wT, layer.wmat.T)

    def test_deployable_plan_folds_pool(self, network):
        plan = plan_deployable(convert(network, FP32))
        assert plan.layers[0].pool_after == 2
        assert plan.layers[-1].pool_after == 1
