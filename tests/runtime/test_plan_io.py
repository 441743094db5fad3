"""NetworkPlan persistence: save/load round trip next to the ``.npz``."""

import os

import numpy as np
import pytest

from repro.quant import FP32, INT4, convert
from repro.runtime import (
    InferenceEngine,
    load_plan,
    plan_deployable,
    plan_sidecar_path,
    save_plan,
    stack_encoder_frames,
)
from repro.runtime.kernels import (
    _CALIBRATION_CACHE,
    calibration_key,
    resolve_event_backend,
)
from repro.runtime.plan_io import environment_fingerprint
from repro.snn import build_network
from repro.snn.encoding import DirectEncoder
from repro.utils.serialization import load_npz, save_npz


@pytest.fixture(scope="module")
def network():
    net = build_network(
        "8C3-MP2-16C3-MP2-40", input_shape=(3, 8, 8), num_classes=10, seed=55
    )
    net.eval()
    return net


@pytest.fixture(scope="module")
def deployable(network):
    return convert(network, FP32)


@pytest.fixture(scope="module")
def images():
    rng = np.random.default_rng(3)
    return rng.random((6, 3, 8, 8)).astype(np.float32)


def engine_outputs(plan, images, timesteps=2):
    stacked, invariant = stack_encoder_frames(
        DirectEncoder(), images, timesteps
    )
    return InferenceEngine(plan).run(
        stacked, analog_first=True, time_invariant=invariant
    )


class TestSidecarPath:
    def test_npz_extension_replaced(self):
        assert plan_sidecar_path("/a/b/model.npz") == "/a/b/model.plan.npz"

    def test_other_paths_suffixed(self):
        assert plan_sidecar_path("/a/b/model") == "/a/b/model.plan.npz"


class TestRoundTrip:
    def test_loaded_plan_matches_live_lowered_outputs(
        self, deployable, images, tmp_path
    ):
        live = plan_deployable(deployable)
        path = str(tmp_path / "model.plan.npz")
        save_plan(live, path)
        loaded = load_plan(path)
        want = engine_outputs(live, images)
        got = engine_outputs(loaded, images)
        assert np.array_equal(got.accumulated, want.accumulated)
        assert got.stats.per_layer == want.stats.per_layer
        assert got.input_totals == want.input_totals

    def test_quantized_plan_round_trips(self, network, images, tmp_path):
        deployable = convert(network, INT4)
        live = plan_deployable(deployable)
        path = str(tmp_path / "model-int4.plan.npz")
        save_plan(live, path)
        loaded = load_plan(path)
        want = engine_outputs(live, images)
        got = engine_outputs(loaded, images)
        assert np.array_equal(got.accumulated, want.accumulated)

    def test_layer_metadata_preserved(self, deployable, tmp_path):
        live = plan_deployable(deployable)
        path = str(tmp_path / "meta.plan.npz")
        save_plan(live, path)
        loaded = load_plan(path)
        assert loaded.spike_rule == live.spike_rule
        assert loaded.num_classes == live.num_classes
        assert loaded.population_group == live.population_group
        for got, want in zip(loaded.layers, live.layers):
            assert got.name == want.name
            assert got.kind == want.kind
            assert got.pool_after == want.pool_after
            assert got.is_input_layer == want.is_input_layer
            assert got.input_shape == want.input_shape
            assert got.output_shape == want.output_shape
            assert np.array_equal(got.wmat, want.wmat)
            assert np.array_equal(got.bias, want.bias)

    def test_non_plan_artifact_rejected(self, tmp_path):
        from repro.errors import RuntimeUnsupportedError

        path = str(tmp_path / "other.npz")
        save_npz(path, {"x": np.zeros(3)}, {"format": "something-else"})
        with pytest.raises(RuntimeUnsupportedError):
            load_plan(path)


class TestAtomicSidecarWrites:
    """A crash mid-write must never leave a sidecar a loader would trust."""

    def test_crash_mid_write_preserves_previous_sidecar(
        self, deployable, tmp_path, monkeypatch
    ):
        """Dying inside the ``.plan.npz`` serialization leaves the old
        sidecar byte-identical and no temp-file litter -- the atomic
        temp + ``os.replace`` protocol at work."""
        live = plan_deployable(deployable)
        path = str(tmp_path / "model.plan.npz")
        save_plan(live, path)
        with open(path, "rb") as handle:
            before = handle.read()

        def torn_write(handle, **payload):
            handle.write(b"partial bytes then the process dies")
            raise KeyboardInterrupt("simulated crash mid-write")

        monkeypatch.setattr(np, "savez", torn_write)
        with pytest.raises(KeyboardInterrupt):
            save_plan(live, path)
        with open(path, "rb") as handle:
            assert handle.read() == before
        leftovers = [
            name for name in os.listdir(tmp_path) if name.endswith(".tmp")
        ]
        assert leftovers == []
        monkeypatch.undo()
        from repro.runtime import try_load_plan

        assert try_load_plan(path) is not None

    def test_crash_on_first_write_leaves_nothing(
        self, deployable, tmp_path, monkeypatch
    ):
        live = plan_deployable(deployable)
        path = str(tmp_path / "fresh.plan.npz")

        def torn_write(handle, **payload):
            raise KeyboardInterrupt("simulated crash mid-write")

        monkeypatch.setattr(np, "savez", torn_write)
        with pytest.raises(KeyboardInterrupt):
            save_plan(live, path)
        assert not os.path.exists(path)
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("keep_bytes", [0, 10, 0.5])
    def test_torn_sidecar_loads_as_none(
        self, deployable, tmp_path, keep_bytes
    ):
        """A truncated sidecar (as an unclean shutdown of a non-atomic
        writer would produce) is rejected by ``try_load_plan`` -- the
        caller falls back to live lowering instead of trusting it."""
        from repro.runtime import try_load_plan

        live = plan_deployable(deployable)
        path = str(tmp_path / "torn.plan.npz")
        save_plan(live, path)
        assert try_load_plan(path) is not None
        with open(path, "rb") as handle:
            payload = handle.read()
        cut = (
            int(len(payload) * keep_bytes)
            if isinstance(keep_bytes, float)
            else keep_bytes
        )
        with open(path, "wb") as handle:
            handle.write(payload[:cut])
        assert try_load_plan(path) is None

    def test_garbage_sidecar_loads_as_none(self, tmp_path):
        from repro.runtime import try_load_plan

        path = str(tmp_path / "garbage.plan.npz")
        with open(path, "wb") as handle:
            handle.write(b"\x00\x01not-a-zip-archive\xff" * 64)
        assert try_load_plan(path) is None


class TestCalibrationSeeding:
    def test_load_seeds_cache_and_skips_probes(
        self, deployable, tmp_path, monkeypatch
    ):
        live = plan_deployable(deployable)
        backend = resolve_event_backend("auto")
        path = str(tmp_path / "cal.plan.npz")
        save_plan(live, path)
        saved_verdicts = {
            calibration_key(layer, backend): _CALIBRATION_CACHE[
                calibration_key(layer, backend)
            ]
            for layer in live.layers
            if layer.kind == "conv"
        }
        monkeypatch.setattr(
            "repro.runtime.kernels._CALIBRATION_CACHE", {}
        )
        from repro.runtime import kernels

        loaded = load_plan(path)
        for layer in loaded.layers:
            if layer.kind != "conv":
                continue
            key = calibration_key(layer, backend)
            assert kernels._CALIBRATION_CACHE[key] == saved_verdicts[key]
        # A seeded cache means calibrate_event_exact never probes: break
        # the probe kernels and confirm the verdict still returns.
        monkeypatch.setattr(
            "repro.runtime.kernels.dense_conv",
            lambda *a, **k: pytest.fail("probe ran despite seeded cache"),
        )
        for layer in loaded.layers:
            if layer.kind == "conv":
                assert kernels.calibrate_event_exact(layer, backend) == (
                    saved_verdicts[calibration_key(layer, backend)]
                )

    def test_live_probe_wins_over_seeded_verdict(self, deployable, tmp_path):
        from repro.runtime.kernels import seed_calibration

        live = plan_deployable(deployable)
        backend = resolve_event_backend("auto")
        conv = next(l for l in live.layers if l.kind == "conv")
        key = calibration_key(conv, backend)
        probed = _CALIBRATION_CACHE.get(key)
        if probed is None:
            from repro.runtime.kernels import calibrate_event_exact

            probed = calibrate_event_exact(conv, backend)
        seed_calibration(key, not probed)  # lying sidecar
        assert _CALIBRATION_CACHE[key] == probed  # probe verdict kept

    def test_fingerprint_mismatch_ignores_verdicts(
        self, deployable, tmp_path, monkeypatch
    ):
        live = plan_deployable(deployable)
        path = str(tmp_path / "foreign.plan.npz")
        save_plan(live, path)
        arrays, meta = load_npz(path)
        meta["fingerprint"]["numpy"] = "0.0.0-foreign"
        save_npz(path, arrays, meta)
        monkeypatch.setattr(
            "repro.runtime.kernels._CALIBRATION_CACHE", {}
        )
        from repro.runtime import kernels

        load_plan(path)
        assert kernels._CALIBRATION_CACHE == {}

    def test_current_fingerprint_matches_itself(self):
        assert environment_fingerprint() == environment_fingerprint()

    def test_fingerprint_includes_blas_identity(self):
        fingerprint = environment_fingerprint()
        assert fingerprint["blas"]  # non-empty digest of the linked BLAS


class TestStaleSidecarGuard:
    def test_digest_mismatch_rejected(self, deployable, network, tmp_path):
        from repro.errors import RuntimeUnsupportedError

        path = str(tmp_path / "stale.plan.npz")
        save_plan(
            plan_deployable(deployable),
            path,
            model_digest=deployable.weights_digest(),
        )
        other = convert(network, INT4)  # 'retrained' model, same shapes
        assert other.weights_digest() != deployable.weights_digest()
        with pytest.raises(RuntimeUnsupportedError):
            load_plan(path, model_digest=other.weights_digest())
        # Without a digest to check against, the plan still loads.
        assert load_plan(path) is not None

    def test_retrained_model_ignores_stale_sidecar(
        self, deployable, network, tmp_path
    ):
        """load_deployable_with_plan falls back to live lowering when the
        sidecar belongs to an older train of the same architecture."""
        from repro.parallel import load_deployable_with_plan

        model_path = str(tmp_path / "model.npz")
        stale = convert(network, INT4)
        stale_plan = plan_deployable(stale)
        deployable.save(model_path)  # the 'retrained' artifact on disk
        save_plan(
            stale_plan,
            plan_sidecar_path(model_path),
            model_digest=stale.weights_digest(),
        )
        loaded = load_deployable_with_plan(model_path)
        assert loaded._runtime_plan is None  # stale sidecar not attached
        rng = np.random.default_rng(2)
        probe = rng.random((2, 3, 8, 8)).astype(np.float32)
        assert np.array_equal(
            loaded.forward(probe, 2).logits,
            deployable.forward(probe, 2).logits,
        )

    def test_corrupt_sidecar_falls_back_to_live_lowering(
        self, deployable, tmp_path
    ):
        from repro.parallel import load_deployable_with_plan
        from repro.runtime import try_load_plan

        model_path = str(tmp_path / "model.npz")
        deployable.save(model_path)
        sidecar = plan_sidecar_path(model_path)
        with open(sidecar, "wb") as handle:
            handle.write(b"not a zip archive at all")
        assert try_load_plan(sidecar) is None
        loaded = load_deployable_with_plan(model_path)  # must not raise
        assert loaded._runtime_plan is None

    def test_context_survives_corrupt_sidecar(self, tmp_path):
        from repro.experiments.context import ExperimentContext

        workspace = str(tmp_path / "ws")
        ctx = ExperimentContext(scale="tiny", workspace=workspace, seed=0)
        model = ctx.trained("svhn", "fp32")
        path = ctx.model_path(ctx.model_key("svhn", "fp32", "direct"))
        sidecar = plan_sidecar_path(path)
        with open(sidecar, "wb") as handle:
            handle.write(b"\x00truncated")
        fresh = ExperimentContext(scale="tiny", workspace=workspace, seed=0)
        reloaded = fresh.trained("svhn", "fp32")  # must rebuild, not raise
        rng = np.random.default_rng(6)
        probe = rng.random((2, 3, 8, 8)).astype(np.float32)
        assert np.array_equal(
            reloaded.forward(probe, 2).logits, model.forward(probe, 2).logits
        )

    def test_context_rebuilds_stale_sidecar(self, tmp_path):
        import os

        from repro.experiments.context import ExperimentContext

        workspace = str(tmp_path / "ws")
        ctx = ExperimentContext(scale="tiny", workspace=workspace, seed=0)
        model = ctx.trained("svhn", "fp32")
        path = ctx.model_path(ctx.model_key("svhn", "fp32", "direct"))
        sidecar = plan_sidecar_path(path)
        # Simulate a retrain under an old sidecar: replace the model
        # artifact, keep the sidecar.
        other = ExperimentContext(scale="tiny", workspace=workspace, seed=1)
        retrained = other.trained("cifar10", "fp32")
        retrained.save(path)
        before = os.path.getmtime(sidecar)
        fresh = ExperimentContext(scale="tiny", workspace=workspace, seed=0)
        reloaded = fresh.trained("svhn", "fp32")
        assert reloaded.weights_digest() == retrained.weights_digest()
        assert os.path.getmtime(sidecar) >= before  # sidecar rewritten
        rng = np.random.default_rng(4)
        probe = rng.random((2, 3, 8, 8)).astype(np.float32)
        assert np.array_equal(
            reloaded.forward(probe, 2).logits,
            retrained.forward(probe, 2).logits,
        )


class TestAttachPlan:
    def test_attach_mismatched_plan_rejected(self, network, deployable):
        from repro.errors import QuantizationError

        other = build_network(
            "6C3-MP2-30", input_shape=(3, 8, 8), num_classes=10, seed=9
        )
        other.eval()
        other_plan = plan_deployable(convert(other, FP32))
        with pytest.raises(QuantizationError):
            deployable.attach_plan(other_plan)

    def test_attach_spiking_origin_plan_rejected(self, network, deployable):
        """A plan lowered from the SpikingNetwork (shifted spike rule,
        un-folded BN) describes the same layer names/shapes but computes
        different numerics -- it must never attach to a deployable."""
        from repro.errors import QuantizationError
        from repro.runtime import plan_spiking

        spiking_plan = plan_spiking(network)
        with pytest.raises(QuantizationError):
            deployable.attach_plan(spiking_plan)

    def test_attached_sidecar_forward_matches(
        self, deployable, images, tmp_path
    ):
        from repro.parallel import load_deployable_with_plan

        model_path = str(tmp_path / "model.npz")
        deployable.save(model_path)
        save_plan(plan_deployable(deployable), plan_sidecar_path(model_path))
        loaded = load_deployable_with_plan(model_path)
        assert loaded._runtime_plan is not None  # sidecar attached
        want = deployable.forward(images, 2)
        got = loaded.forward(images, 2)
        assert np.array_equal(got.logits, want.logits)
        assert got.stats.per_layer == want.stats.per_layer

    def test_context_writes_and_reuses_sidecar(self, tmp_path):
        import os

        from repro.experiments.context import ExperimentContext

        workspace = str(tmp_path / "ws")
        ctx = ExperimentContext(scale="tiny", workspace=workspace, seed=0)
        model = ctx.trained("svhn", "fp32")
        path = ctx.model_path(ctx.model_key("svhn", "fp32", "direct"))
        sidecar = plan_sidecar_path(path)
        assert os.path.exists(sidecar)
        assert model._runtime_plan is not None
        # A second context must load model + plan from disk unchanged.
        again = ExperimentContext(scale="tiny", workspace=workspace, seed=0)
        reloaded = again.trained("svhn", "fp32")
        assert reloaded._runtime_plan is not None
        rng = np.random.default_rng(1)
        probe = rng.random((3, 3, 8, 8)).astype(np.float32)
        assert np.array_equal(
            reloaded.forward(probe, 2).logits, model.forward(probe, 2).logits
        )


class TestSchemaCompat:
    """Sidecars are regenerable caches: only ``network-plan-v4`` loads;
    older formats are refused (and rebuilt by their consumers)."""

    def _downgrade(self, path, version):
        """Rewrite a v4 sidecar the way an older writer laid it out:
        v3 lacks the integer lowering, v2 also the per-entry cost
        rates, v1 also the per-entry k-block."""
        arrays, meta = load_npz(path)
        meta["format"] = f"network-plan-v{version}"
        for entry in meta["calibration"]:
            entry.pop("int", None)
            if version <= 2:
                entry.pop("cost", None)
            if version == 1:
                entry.pop("block", None)
        for info in meta["layers"]:
            info.pop("has_int", None)
        arrays = {k: v for k, v in arrays.items() if ".wq" not in k}
        save_npz(path, arrays, meta)

    @pytest.mark.parametrize("version", [1, 2, 3])
    def test_older_format_is_refused(
        self, network, tmp_path, monkeypatch, version
    ):
        from repro.quant import INT8_P2
        from repro.runtime import kernels, try_load_plan

        path = str(tmp_path / f"v{version}.plan.npz")
        save_plan(plan_deployable(convert(network, INT8_P2)), path)
        self._downgrade(path, version)
        monkeypatch.setattr(kernels, "_CALIBRATION_CACHE", {})
        monkeypatch.setattr(kernels, "_BLOCK_CHOICE_CACHE", {})
        assert try_load_plan(path) is None
        assert kernels._CALIBRATION_CACHE == {}
        assert kernels._BLOCK_CHOICE_CACHE == {}

    def test_sidecar_seeds_block_resolution(
        self, deployable, tmp_path, monkeypatch
    ):
        from repro.runtime import kernels
        from repro.runtime.kernels import resolve_event_backend

        live = plan_deployable(deployable)
        backend = resolve_event_backend("auto")
        path = str(tmp_path / "current.plan.npz")
        save_plan(live, path)
        expected = {
            calibration_key(layer, backend): kernels.resolve_event_block(
                layer, backend
            )
            for layer in live.layers
            if layer.kind == "conv"
        }
        monkeypatch.setattr(kernels, "_CALIBRATION_CACHE", {})
        monkeypatch.setattr(kernels, "_BLOCK_CHOICE_CACHE", {})
        monkeypatch.setattr(kernels, "_BLOCK_EXACT_CACHE", {})
        load_plan(path)
        assert kernels._BLOCK_CHOICE_CACHE == expected

    def test_sidecar_seeds_cost_state_and_skips_probe(
        self, deployable, tmp_path, monkeypatch
    ):
        """Event-eligible layers come back with the persisted dispatch
        cost rates attached, so cold workers never run the one-shot
        seeding probe GEMMs."""
        from repro.runtime import costmodel
        from repro.runtime.costmodel import ensure_cost_state
        from repro.runtime.kernels import (
            resolve_event_backend,
            resolve_event_block,
        )

        live = plan_deployable(deployable)
        backend = resolve_event_backend("auto")
        path = str(tmp_path / "rates.plan.npz")
        save_plan(live, path)
        arrays, meta = load_npz(path)
        assert meta["format"] == "network-plan-v4"
        saved = {
            tuple(entry["key"]): entry["cost"]
            for entry in meta["calibration"]
            if entry.get("cost") is not None
        }
        assert saved  # the tiny conv shapes are event-eligible
        loaded = load_plan(path)
        monkeypatch.setattr(
            costmodel,
            "probe_cost_state",
            lambda *a, **k: pytest.fail("probe ran despite seeded rates"),
        )
        for layer in loaded.layers:
            if layer.kind != "conv":
                continue
            block = resolve_event_block(layer, backend)
            if block is None:
                continue
            state = ensure_cost_state(layer, backend, block or None)
            from repro.runtime.kernels import calibration_key

            rates = saved[calibration_key(layer, backend)]
            assert state.dense_ms_per_sample == rates["dense_ms_per_sample"]
            assert state.event_ms_per_update == rates["event_ms_per_update"]

    def test_foreign_fingerprint_ignores_cost_rates(
        self, deployable, tmp_path
    ):
        """Rates are wall-clock measurements of the saving machine --
        like the calibration verdicts they must never cross an
        environment-fingerprint boundary."""
        live = plan_deployable(deployable)
        path = str(tmp_path / "foreign-cost.plan.npz")
        save_plan(live, path)
        arrays, meta = load_npz(path)
        meta["fingerprint"]["numpy"] = "0.0.0-foreign"
        save_npz(path, arrays, meta)
        loaded = load_plan(path)
        assert all(
            layer.cost_state is None
            for layer in loaded.layers
            if layer.kind == "conv"
        )

    def test_v4_persists_integer_lowering(
        self, network, images, tmp_path, monkeypatch
    ):
        """A quantized plan's int8 weights, scales and exactness
        verdicts all come back from the sidecar -- cold loaders never
        re-run the integer probe."""
        from repro.quant import INT8_P2
        from repro.runtime import kernels

        live = plan_deployable(convert(network, INT8_P2))
        path = str(tmp_path / "int.plan.npz")
        save_plan(live, path)
        loaded = load_plan(path)

        monkeypatch.setattr(
            kernels,
            "dense_conv",
            lambda *a, **k: pytest.fail("exactness probe ran"),
        )
        seen_int = False
        for got, want in zip(loaded.layers, live.layers):
            assert got.has_int_lowering == want.has_int_lowering
            if not want.has_int_lowering:
                continue
            seen_int = True
            assert got.wq.dtype == want.wq.dtype
            assert np.array_equal(got.wq, want.wq)
            assert np.array_equal(
                np.asarray(got.wq_scale), np.asarray(want.wq_scale)
            )
            assert got.int_bound == want.int_bound
            # Verdict seeded (the broken probes above would fail loudly
            # if calibrate_int_exact had to re-probe).
            for (b, block), verdict in want._int_exact.items():
                assert (
                    kernels.calibrate_int_exact(got, b, block or None)
                    == verdict
                )
        assert seen_int  # the quantized plan did carry a lowering

    def test_v4_with_retired_int_cost_rates_loads(
        self, network, tmp_path, monkeypatch
    ):
        """v4 sidecars written before the integer kernels shared the
        float kernels' code carry int ``cost`` rates next to the int
        verdict; they load, and the verdict is still seeded."""
        from repro.quant import INT8_P2
        from repro.runtime import kernels

        live = plan_deployable(convert(network, INT8_P2))
        path = str(tmp_path / "int-cost.plan.npz")
        save_plan(live, path)
        arrays, meta = load_npz(path)
        int_entries = [e["int"] for e in meta["calibration"] if "int" in e]
        assert int_entries
        for int_entry in int_entries:
            int_entry["cost"] = {
                "int_dense_ms_per_sample": 0.5,
                "int_event_ms_per_update": 1e-5,
            }
        save_npz(path, arrays, meta)
        loaded = load_plan(path)
        monkeypatch.setattr(
            kernels,
            "dense_conv",
            lambda *a, **k: pytest.fail("exactness probe ran"),
        )
        verdicts = 0
        for got, want in zip(loaded.layers, live.layers):
            for (b, block), verdict in want._int_exact.items():
                assert (
                    kernels.calibrate_int_exact(got, b, block or None)
                    == verdict
                )
                verdicts += 1
        assert verdicts == len(int_entries)

    def test_context_rebuilds_pre_v4_sidecar_for_quantized_model(
        self, tmp_path
    ):
        """A downgraded sidecar is refused, and the experiment context
        rebuilds it -- integer lowering included -- and re-saves it as
        v4."""
        from repro.experiments.context import ExperimentContext
        from repro.runtime import try_load_plan

        workspace = str(tmp_path / "ws")
        ctx = ExperimentContext(scale="tiny", workspace=workspace, seed=0)
        ctx.trained("svhn", "int8")
        path = ctx.model_path(ctx.model_key("svhn", "int8", "direct"))
        sidecar = plan_sidecar_path(path)
        self._downgrade(sidecar, 3)
        assert try_load_plan(sidecar) is None
        fresh = ExperimentContext(scale="tiny", workspace=workspace, seed=0)
        model = fresh.trained("svhn", "int8")  # rebuilds + re-saves as v4
        assert any(
            layer.has_int_lowering for layer in model._runtime_plan.layers
        )
        _, meta = load_npz(sidecar)
        assert meta["format"] == "network-plan-v4"
        reloaded = try_load_plan(sidecar)
        assert any(layer.has_int_lowering for layer in reloaded.layers)

    def test_unknown_future_format_rejected(self, deployable, tmp_path):
        from repro.errors import RuntimeUnsupportedError

        live = plan_deployable(deployable)
        path = str(tmp_path / "future.plan.npz")
        save_plan(live, path)
        arrays, meta = load_npz(path)
        meta["format"] = "network-plan-v99"
        save_npz(path, arrays, meta)
        with pytest.raises(RuntimeUnsupportedError):
            load_plan(path)


def _mutate_layers(meta):
    meta["layers"] = {str(i): info for i, info in enumerate(meta["layers"])}


def _mutate_calibration(meta):
    meta["calibration"] = {
        str(i): entry for i, entry in enumerate(meta["calibration"])
    }


def _last_entry_with(meta, field):
    return [e for e in meta["calibration"] if field in e][-1]


def _mutate_key(meta):
    _last_entry_with(meta, "key")["key"] = 7


def _mutate_int_entry(meta):
    _last_entry_with(meta, "int")["int"] = [True, 5]


def _mutate_cost_entry(meta):
    _last_entry_with(meta, "cost")["cost"] = [1.0, 2.0]


def _mutate_input_shape(meta):
    meta["layers"][-2]["input_shape"] = [3]


class TestMalformedMetadata:
    """A well-formed v4 npz whose metadata does not parse is a corrupt
    sidecar like any other: a typed error from ``load_plan``, ``None``
    from ``try_load_plan``, and nothing seeded process-wide."""

    @pytest.mark.parametrize(
        "mutate",
        [
            _mutate_layers,
            _mutate_calibration,
            _mutate_key,
            _mutate_int_entry,
            _mutate_cost_entry,
            _mutate_input_shape,
        ],
    )
    def test_malformed_metadata_loads_as_none(
        self, network, tmp_path, monkeypatch, mutate
    ):
        from repro.errors import RuntimeUnsupportedError
        from repro.quant import INT8_P2
        from repro.runtime import kernels, try_load_plan

        live = plan_deployable(convert(network, INT8_P2))
        assert live.layers[-2].kind == "conv"
        path = str(tmp_path / "malformed.plan.npz")
        save_plan(live, path)
        arrays, meta = load_npz(path)
        mutate(meta)
        save_npz(path, arrays, meta)
        monkeypatch.setattr(kernels, "_CALIBRATION_CACHE", {})
        monkeypatch.setattr(kernels, "_BLOCK_CHOICE_CACHE", {})
        with pytest.raises(RuntimeUnsupportedError):
            load_plan(path)
        assert try_load_plan(path) is None
        assert kernels._CALIBRATION_CACHE == {}
        assert kernels._BLOCK_CHOICE_CACHE == {}
