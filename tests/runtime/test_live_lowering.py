"""The lowered plan is derived state: every process lowers its own.

A :class:`~repro.quant.convert.DeployableNetwork` carries its weights.
The :class:`~repro.runtime.plan.NetworkPlan` it runs on, the calibration
verdicts behind its dispatch and its scratch buffers are rebuilt from
those weights wherever the model is used -- after ``save``/``load``,
after pickling, in a cold interpreter -- and every rebuild computes the
same bytes. ``weights_digest`` names the weights alone.
"""

import copy
import os
import pickle
import subprocess
import sys

import numpy as np
import pytest

import repro
from repro.quant import FP32, INT4, INT4_P2, INT8, convert
from repro.quant.convert import DeployableNetwork
from repro.runtime import (
    calibrate_event_exact,
    calibration_key,
    plan_deployable,
    plan_report,
    resolve_event_block,
)
from repro.runtime import kernels
from repro.snn import build_network
from repro.snn.encoding import RateEncoder

SCHEMES = [FP32, INT4, INT8, INT4_P2]
ARCH = "8C3-MP2-16C3-MP2-40"
TIMESTEPS = 3
SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def _network(seed):
    net = build_network(ARCH, input_shape=(3, 8, 8), num_classes=10, seed=seed)
    net.eval()
    return net


@pytest.fixture(scope="module")
def network():
    return _network(55)


@pytest.fixture(scope="module", params=SCHEMES, ids=lambda s: s.name)
def deployable(request, network):
    return convert(network, request.param)


@pytest.fixture(scope="module")
def images():
    rng = np.random.default_rng(3)
    return rng.random((6, 3, 8, 8)).astype(np.float32)


def _run(model, images):
    """A rate-coded forward, so conv layers see binary input and the
    dispatcher routes (and counts) every layer-timestep."""
    return model.forward(images, TIMESTEPS, RateEncoder(seed=5))


def _fingerprint(out):
    return (
        out.logits.tobytes(),
        out.stats.per_layer,
        out.input_spike_totals,
        {name: c.as_dict() for name, c in out.runtime_counters.items()},
    )


def _saved(model, tmp_path):
    path = str(tmp_path / "model.npz")
    model.save(path)
    return path


def _nudged(array):
    """``array`` with its first element moved by the smallest step."""
    changed = np.array(array, copy=True)
    flat = changed.reshape(-1)
    if np.issubdtype(changed.dtype, np.floating):
        flat[0] = np.nextafter(flat[0], np.inf)
    else:
        flat[0] = flat[0] - 1 if flat[0] > 0 else flat[0] + 1
    return changed


class TestSavedModelLowersAlike:
    def test_loaded_model_forward_matches(self, deployable, images, tmp_path):
        want = _fingerprint(_run(deployable, images))
        loaded = DeployableNetwork.load(_saved(deployable, tmp_path))
        assert loaded._runtime_plan is None
        assert _fingerprint(_run(loaded, images)) == want

    def test_loaded_plan_layers_match(self, deployable, tmp_path):
        live = plan_deployable(deployable)
        again = plan_deployable(DeployableNetwork.load(_saved(deployable, tmp_path)))
        assert [layer.name for layer in again.layers] == [
            layer.name for layer in live.layers
        ]
        for got, want in zip(again.layers, live.layers):
            assert got.kind == want.kind
            assert got.input_shape == want.input_shape
            assert got.output_shape == want.output_shape
            assert got.pool_after == want.pool_after
            assert got.is_input_layer == want.is_input_layer
            assert got.wmat.tobytes() == want.wmat.tobytes()
            assert got.bias.tobytes() == want.bias.tobytes()
            assert got.has_int_lowering == want.has_int_lowering
            if want.has_int_lowering:
                assert got.wq.dtype == want.wq.dtype
                assert got.wq.tobytes() == want.wq.tobytes()
                assert got.wq_scale.tobytes() == want.wq_scale.tobytes()
        assert (again.beta, again.threshold, again.population_group) == (
            live.beta,
            live.threshold,
            live.population_group,
        )

    def test_cold_interpreter_matches(self, deployable, images, tmp_path):
        """A fresh interpreter that has only the ``.npz`` lowers,
        calibrates and computes the same logits, byte for byte."""
        want = _run(deployable, images).logits
        model_path = _saved(deployable, tmp_path)
        images_path = str(tmp_path / "images.npy")
        logits_path = str(tmp_path / "logits.npy")
        np.save(images_path, images)
        script = (
            "import sys\n"
            "import numpy as np\n"
            "from repro.quant.convert import DeployableNetwork\n"
            "from repro.snn.encoding import RateEncoder\n"
            "model = DeployableNetwork.load(sys.argv[1])\n"
            "out = model.forward(np.load(sys.argv[2]), int(sys.argv[4]), "
            "RateEncoder(seed=5))\n"
            "np.save(sys.argv[3], out.logits)\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [
                sys.executable, "-c", script,
                model_path, images_path, logits_path, str(TIMESTEPS),
            ],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        got = np.load(logits_path)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


class TestWeightsDigest:
    def test_stable_across_save_load(self, deployable, tmp_path):
        loaded = DeployableNetwork.load(_saved(deployable, tmp_path))
        assert loaded.weights_digest() == deployable.weights_digest()

    def test_unchanged_by_forward_and_invalidation(self, deployable, images):
        before = deployable.weights_digest()
        _run(deployable, images)
        assert deployable.weights_digest() == before
        deployable.invalidate_runtime_cache()
        assert deployable.weights_digest() == before

    def test_copies_share_digest(self, deployable):
        digest = deployable.weights_digest()
        assert len(digest) == 64 and int(digest, 16) >= 0
        assert pickle.loads(pickle.dumps(deployable)).weights_digest() == digest
        assert copy.deepcopy(deployable).weights_digest() == digest

    @pytest.mark.parametrize("scheme", SCHEMES, ids=lambda s: s.name)
    def test_one_weight_changes_digest(self, network, scheme):
        model = convert(network, scheme)
        before = model.weights_digest()
        layer = model.layers[1]
        layer.weight_q = _nudged(layer.weight_q)
        assert model.weights_digest() != before

    def test_bias_change_changes_digest(self, network):
        model = convert(network, FP32)
        before = model.weights_digest()
        model.layers[0].bias_q = _nudged(model.layers[0].bias_q)
        assert model.weights_digest() != before

    def test_scale_change_changes_digest(self, network):
        model = convert(network, INT4)
        before = model.weights_digest()
        layer = model.layers[0]
        layer.weight_scale = np.asarray(layer.weight_scale) * 2
        assert model.weights_digest() != before

    def test_shape_is_part_of_digest(self, network):
        """The same bytes in another shape are other weights."""
        model = convert(network, FP32)
        before = model.weights_digest()
        layer = model.layers[-1]
        layer.weight_q = layer.weight_q.reshape(-1)
        assert model.weights_digest() != before

    def test_dtype_is_part_of_digest(self, network):
        """The same bytes read as another dtype are other weights."""
        model = convert(network, FP32)
        before = model.weights_digest()
        layer = model.layers[-1]
        layer.weight_q = layer.weight_q.view(np.int32)
        assert model.weights_digest() != before

    def test_schemes_give_distinct_digests(self, network):
        digests = {convert(network, s).weights_digest() for s in SCHEMES}
        assert len(digests) == len(SCHEMES)


class TestPickledModelCarriesWeightsOnly:
    def test_unpickled_model_lowers_alike(self, deployable, images):
        want = _fingerprint(_run(deployable, images))
        clone = pickle.loads(pickle.dumps(deployable))
        assert clone._runtime_plan is None
        assert _fingerprint(_run(clone, images)) == want

    def test_pickle_bytes_independent_of_batch(self, deployable, images):
        rng = np.random.default_rng(21)
        before = pickle.dumps(deployable)
        _run(deployable, rng.random((32,) + images.shape[1:], dtype=np.float32))
        assert deployable._runtime_plan is not None
        assert pickle.dumps(deployable) == before

    def test_deepcopy_gets_own_empty_buffers(self, network, images):
        model = convert(network, INT4)
        want = _fingerprint(_run(model, images))
        plan, buffers = model._runtime_plan, model._runtime_buffers
        twin = copy.deepcopy(model)
        assert twin._runtime_plan is None
        assert twin._runtime_buffers is not buffers
        assert twin._runtime_buffers._buffers == {}
        assert twin._runtime_buffers._flat == {}
        assert _fingerprint(_run(twin, images)) == want
        assert model._runtime_plan is plan
        assert model._runtime_buffers is buffers


def _conv_layers(plan):
    return [layer for layer in plan.layers if layer.kind == "conv"]


def _no_probe(_seed):
    raise AssertionError("a calibration probe ran")


class TestCalibrationIsAPerProcessMemo:
    def test_same_shapes_relower_without_probes(self, images, monkeypatch):
        """Shape verdicts are proved once per process: a model of the
        same shapes but other weights lowers and runs without a probe."""
        first = convert(_network(1), FP32)
        _run(first, images)
        want = [
            resolve_event_block(layer)
            for layer in _conv_layers(first._runtime_plan)
        ]
        monkeypatch.setattr(kernels, "new_rng", _no_probe)
        second = convert(_network(2), FP32)
        out = _run(second, images)
        plan = second._runtime_plan
        assert [calibration_key(l) for l in _conv_layers(plan)] == [
            calibration_key(l) for l in _conv_layers(first._runtime_plan)
        ]
        assert [resolve_event_block(l) for l in _conv_layers(plan)] == want
        assert out.logits.shape == (images.shape[0], 10)

    def test_cleared_memo_reproves_same_verdicts(self, network, monkeypatch):
        plan = plan_deployable(convert(network, FP32))
        layers = _conv_layers(plan)
        want = [(calibrate_event_exact(l), resolve_event_block(l)) for l in layers]
        monkeypatch.setattr(kernels, "_CALIBRATION_CACHE", {})
        monkeypatch.setattr(kernels, "_BLOCK_EXACT_CACHE", {})
        monkeypatch.setattr(kernels, "_BLOCK_CHOICE_CACHE", {})
        again = plan_deployable(convert(network, FP32))
        got = [
            (calibrate_event_exact(l), resolve_event_block(l))
            for l in _conv_layers(again)
        ]
        assert got == want
        assert len(kernels._CALIBRATION_CACHE) == len(
            {calibration_key(l) for l in layers}
        )

    @pytest.mark.parametrize("scheme", [INT4, INT4_P2], ids=lambda s: s.name)
    def test_int_lowering_relowered_alike(self, network, scheme):
        """The integer lowering is derived state: each lowering attaches
        the same quantized weights, scales and overflow bound, and every
        conv layer of a max-abs or pow2 model stays within the bound."""
        model = convert(network, scheme)
        first = _conv_layers(plan_deployable(model))
        second = _conv_layers(plan_deployable(model))
        for a, b in zip(first, second):
            assert a.has_int_lowering and b.has_int_lowering
            assert a.wq.dtype == b.wq.dtype
            assert np.array_equal(a.wq, b.wq)
            assert np.array_equal(a.wq_scale, b.wq_scale)
            assert a.int_bound == b.int_bound
            assert a.int_overflow_ok and b.int_overflow_ok


class TestPlanReportOnLiveLowering:
    def test_one_row_per_layer(self, deployable):
        plan = plan_deployable(deployable)
        rows = plan_report(plan)
        assert [row["name"] for row in rows] == [l.name for l in plan.layers]
        for row, layer in zip(rows, plan.layers):
            assert row["kind"] == layer.kind
            assert "dispatch" not in row
            if layer.kind == "fc":
                assert row["event_exact"] is None
                assert row["k_block"] is None
                assert row["k"] == layer.wmat.shape[1]
            else:
                g = layer.geometry
                assert row["k"] == g.cin * g.kernel * g.kernel
                assert row["event_exact"] == calibrate_event_exact(layer)
                assert row["k_block"] == resolve_event_block(layer)
                assert row["path"].startswith(
                    "event-eligible" if row["k_block"] is not None
                    else "dense-fallback"
                )

    def test_report_matches_after_reload(self, deployable, tmp_path):
        loaded = DeployableNetwork.load(_saved(deployable, tmp_path))
        assert plan_report(plan_deployable(loaded)) == plan_report(
            plan_deployable(deployable)
        )

    def test_dispatch_column_explains_run(self, network, images):
        model = convert(network, INT4)
        out = _run(model, images)
        rows = plan_report(model._runtime_plan, out.runtime_counters)
        for row in rows:
            counters = out.runtime_counters[row["name"]]
            assert row["dispatch"] == counters.as_dict()
            assert (
                row["dispatch"]["dense_steps"] + row["dispatch"]["event_steps"]
                == TIMESTEPS
            )
