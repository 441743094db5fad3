"""Disk-backed evaluation cache: round trips, staleness, fallbacks.

Corrupt, truncated, foreign-format or stale-digest ``.eval.json``
entries must silently fall back to recompute, and a warm entry must be
bit-identical to the evaluation that produced it.
"""

import json
import multiprocessing as mp
import os

import pytest

from repro.errors import ExperimentError
from repro.experiments.context import ExperimentContext
from repro.experiments.evalcache import (
    EVAL_CACHE_ENV,
    EVAL_CACHE_SUFFIX,
    EvaluationResult,
    eval_cache_enabled,
    eval_cache_path,
    eval_cache_stats,
    invalidate_evaluation,
    invalidate_evaluations,
    load_evaluation,
    quarantine_corrupt_entry,
    save_evaluation,
    try_load_evaluation,
)


@pytest.fixture
def result():
    return EvaluationResult(
        accuracy=0.8125,
        spikes_per_image=1234.5678901234567,
        per_layer_spikes={"conv1_1": 700.25, "fc1": 0.1 + 0.2},
        input_events_per_image={"conv1_1": 96.0625},
        samples=48,
    )


@pytest.fixture
def entry(tmp_path, result):
    path = eval_cache_path(str(tmp_path), "tiny_svhn_fp32_direct_s0_n48_t2")
    save_evaluation(path, result, model_digest="digest-a", encoding="direct")
    return path


class TestRoundTrip:
    def test_exact_float_round_trip(self, entry, result):
        loaded = load_evaluation(entry, model_digest="digest-a")
        assert loaded == result
        # Bit-exact, not approximately equal: 0.1 + 0.2 must survive.
        assert loaded.per_layer_spikes["fc1"] == 0.1 + 0.2
        assert loaded.spikes_per_image == result.spikes_per_image

    def test_path_layout_is_models_sibling(self):
        assert eval_cache_path("/ws/models", "key") == (
            "/ws/models/key" + EVAL_CACHE_SUFFIX
        )

    def test_numpy_scalars_normalised(self, tmp_path):
        import numpy as np

        path = eval_cache_path(str(tmp_path), "np-entry")
        save_evaluation(
            path,
            EvaluationResult(
                accuracy=np.float64(0.5),
                spikes_per_image=np.float64(10.5),
                per_layer_spikes={"conv1_1": np.float64(3.25)},
                input_events_per_image={},
                samples=np.int64(4),
            ),
        )
        loaded = load_evaluation(path)
        assert loaded.accuracy == 0.5
        assert loaded.samples == 4
        assert isinstance(loaded.samples, int)

    def test_without_digest_loads(self, entry):
        assert load_evaluation(entry) is not None
        assert try_load_evaluation(entry) is not None

    def test_entry_fields(self, entry):
        """A v3 entry carries its format, its two staleness guards and
        the result -- no numeric-path field."""
        with open(entry, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        assert payload["format"] == "evaluation-result-v3"
        assert set(payload) == {"format", "model_digest", "encoding", "result"}


class TestStalenessGuards:
    def test_digest_mismatch_raises_and_try_load_recovers(self, entry):
        with pytest.raises(ExperimentError):
            load_evaluation(entry, model_digest="digest-RETRAINED")
        assert try_load_evaluation(entry, model_digest="digest-RETRAINED") is None

    def test_missing_entry(self, tmp_path):
        assert try_load_evaluation(str(tmp_path / "nope.eval.json")) is None

    def test_corrupt_entry(self, entry):
        with open(entry, "wb") as handle:
            handle.write(b"\x00not json at all")
        assert try_load_evaluation(entry) is None

    def test_truncated_entry(self, entry):
        with open(entry, "r", encoding="utf-8") as handle:
            text = handle.read()
        with open(entry, "w", encoding="utf-8") as handle:
            handle.write(text[: len(text) // 2])
        assert try_load_evaluation(entry) is None

    def test_foreign_format_rejected(self, tmp_path):
        path = eval_cache_path(str(tmp_path), "foreign")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"format": "something-else", "result": {}}, handle)
        with pytest.raises(ExperimentError):
            load_evaluation(path)
        assert try_load_evaluation(path) is None

    def test_missing_result_fields(self, entry):
        with open(entry, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        del payload["result"]["accuracy"]
        with open(entry, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        assert try_load_evaluation(entry) is None

    def test_stats_count_hits_and_misses(self, entry):
        before = eval_cache_stats().as_dict()
        try_load_evaluation(entry)
        try_load_evaluation(entry + ".missing")
        after = eval_cache_stats().as_dict()
        assert after["hits"] - before["hits"] == 1
        assert after["misses"] - before["misses"] == 1


class TestCorruptQuarantine:
    """Corrupt entries are moved aside to ``<entry>.corrupt``; stale
    (well-formed but guard-failing) entries are left in place for the
    recompute to overwrite."""

    def test_corrupt_entry_moved_aside_with_bytes_preserved(self, entry):
        bad = b"\x00not json at all"
        with open(entry, "wb") as handle:
            handle.write(bad)
        before = eval_cache_stats().corrupt
        assert try_load_evaluation(entry) is None
        assert not os.path.exists(entry)
        with open(entry + ".corrupt", "rb") as handle:
            assert handle.read() == bad
        assert eval_cache_stats().corrupt - before == 1

    def test_truncated_entry_quarantined(self, entry):
        with open(entry, "r", encoding="utf-8") as handle:
            text = handle.read()
        with open(entry, "w", encoding="utf-8") as handle:
            handle.write(text[: len(text) // 2])
        assert try_load_evaluation(entry) is None
        assert os.path.exists(entry + ".corrupt")

    def test_missing_result_fields_quarantined(self, entry):
        with open(entry, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        del payload["result"]["accuracy"]
        with open(entry, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        assert try_load_evaluation(entry) is None
        assert os.path.exists(entry + ".corrupt")

    def test_stale_entry_left_in_place(self, entry):
        """Digest mismatch means the model changed, not that the bytes
        rotted: the entry stays put and the recompute overwrites it."""
        before = eval_cache_stats().corrupt
        assert try_load_evaluation(entry, model_digest="digest-NEW") is None
        assert os.path.exists(entry)
        assert not os.path.exists(entry + ".corrupt")
        assert eval_cache_stats().corrupt == before

    def test_foreign_format_left_in_place(self, tmp_path):
        path = eval_cache_path(str(tmp_path), "foreign")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"format": "something-else", "result": {}}, handle)
        assert try_load_evaluation(path) is None
        assert os.path.exists(path)
        assert not os.path.exists(path + ".corrupt")

    @pytest.mark.parametrize(
        "old_format", ["evaluation-result-v1", "evaluation-result-v2"]
    )
    def test_superseded_format_left_in_place(self, entry, old_format):
        """An older format is stale, not corrupt: the entry stays put for
        the recompute to overwrite."""
        with open(entry, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        payload["format"] = old_format
        with open(entry, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        before = eval_cache_stats().corrupt
        assert try_load_evaluation(entry) is None
        assert os.path.exists(entry)
        assert not os.path.exists(entry + ".corrupt")
        assert eval_cache_stats().corrupt == before

    def test_recompute_writes_fresh_entry_beside_quarantined(
        self, entry, result
    ):
        with open(entry, "wb") as handle:
            handle.write(b"garbage")
        assert try_load_evaluation(entry) is None
        save_evaluation(entry, result, model_digest="digest-a")
        assert load_evaluation(entry, model_digest="digest-a") == result
        assert os.path.exists(entry + ".corrupt")  # evidence retained

    def test_quarantine_missing_file_returns_false(self, tmp_path):
        before = eval_cache_stats().corrupt
        assert not quarantine_corrupt_entry(str(tmp_path / "nope.eval.json"))
        assert eval_cache_stats().corrupt == before


class TestEncodingStreamGuard:
    """Entries are tied to the encoding stream that produced them."""

    def test_matching_encoding_loads(self, entry):
        assert (
            load_evaluation(entry, encoding="direct") is not None
        )

    def test_encoding_mismatch_raises_and_try_load_recovers(self, entry):
        other = "rate/counter-philox-v1/seed=42/gain=1.0"
        with pytest.raises(ExperimentError):
            load_evaluation(entry, encoding=other)
        assert try_load_evaluation(entry, encoding=other) is None

    def test_entry_without_encoding_loads_under_any(self, tmp_path, result):
        """Entries saved without a signature (unit-level callers) stay
        loadable -- the guard only fires when both sides declare one."""
        path = eval_cache_path(str(tmp_path), "no-encoding")
        save_evaluation(path, result)
        assert try_load_evaluation(path, encoding="direct") == result

    def test_v1_snapshot_era_entry_auto_invalidated(self, entry):
        """Pre-counter-stream (v1) entries were written under
        snapshot-per-shard rate semantics: their rate-coded numbers
        depended on the shard geometry, so the format bump must reject
        them outright -- no silent stale hits."""
        with open(entry, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        payload["format"] = "evaluation-result-v1"
        payload.pop("encoding", None)
        with open(entry, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        with pytest.raises(ExperimentError):
            load_evaluation(entry)
        assert try_load_evaluation(entry) is None

    def test_v2_float_path_entry_auto_invalidated(self, entry):
        """v2 entries of max-abs quantized models hold the numbers of the
        dequantized float datapath; the format bump rejects every v2
        entry, whatever numeric path it declares."""
        with open(entry, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        payload["format"] = "evaluation-result-v2"
        payload["numeric"] = "float32"
        with open(entry, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        with pytest.raises(ExperimentError):
            load_evaluation(entry, model_digest="digest-a", encoding="direct")
        assert try_load_evaluation(entry) is None


def _entry_for(accuracy):
    """A fully-consistent entry whose every field derives from
    ``accuracy`` -- so a reader can tell a whole entry from a blend."""
    return EvaluationResult(
        accuracy=accuracy,
        spikes_per_image=accuracy * 1000.0,
        per_layer_spikes={"conv1_1": accuracy * 10.0},
        input_events_per_image={"conv1_1": accuracy * 2.0},
        samples=48,
    )


def _hammer_saves(path, accuracy, iterations):
    for _ in range(iterations):
        save_evaluation(
            path,
            _entry_for(accuracy),
            model_digest="digest-race",
            encoding="direct",
        )


def _hammer_corrupt(path, iterations):
    # A hostile writer that bypasses the atomic protocol: truncated JSON
    # written straight to the entry path, as a crashed or buggy process
    # would leave behind.
    for _ in range(iterations):
        try:
            with open(path, "wb") as handle:
                handle.write(b'{"format": "evaluation-result-v3", "resu')
        except OSError:
            pass


class TestConcurrentWriters:
    """Two processes racing on one entry path: readers must only ever
    see nothing, or one writer's *whole* entry -- the guarantee the
    mkstemp + ``os.replace`` write protocol exists to provide."""

    def test_racing_writers_never_serve_torn_entries(self, tmp_path):
        path = eval_cache_path(str(tmp_path), "contended")
        valid = {0.25: _entry_for(0.25), 0.75: _entry_for(0.75)}
        writers = [
            mp.Process(target=_hammer_saves, args=(path, accuracy, 150))
            for accuracy in valid
        ]
        for process in writers:
            process.start()
        seen = set()
        try:
            while any(process.is_alive() for process in writers):
                loaded = try_load_evaluation(
                    path, model_digest="digest-race", encoding="direct"
                )
                if loaded is not None:
                    # A whole entry from exactly one writer -- every
                    # field consistent with that writer's accuracy tag.
                    assert loaded == valid[loaded.accuracy]
                    seen.add(loaded.accuracy)
        finally:
            for process in writers:
                process.join()
        assert all(process.exitcode == 0 for process in writers)
        assert seen  # the race was actually observed mid-flight
        final = load_evaluation(path, model_digest="digest-race")
        assert final == valid[final.accuracy]

    def test_atomic_writer_racing_a_corruptor(self, tmp_path):
        """With a non-atomic hostile writer in the mix, readers degrade
        to the corrupt-fallback (``None``) -- never an exception, never
        a half-parsed entry."""
        path = eval_cache_path(str(tmp_path), "hostile")
        writer = mp.Process(target=_hammer_saves, args=(path, 0.5, 150))
        corruptor = mp.Process(target=_hammer_corrupt, args=(path, 150))
        expected = _entry_for(0.5)
        writer.start()
        corruptor.start()
        outcomes = set()
        try:
            while writer.is_alive() or corruptor.is_alive():
                loaded = try_load_evaluation(path, model_digest="digest-race")
                if loaded is None:
                    outcomes.add("fallback")
                else:
                    assert loaded == expected
                    outcomes.add("entry")
        finally:
            writer.join()
            corruptor.join()
        assert writer.exitcode == 0 and corruptor.exitcode == 0
        assert outcomes  # loop observed the race at least once
        # Whatever the interleaving left on disk, the reader's verdict
        # is still binary: the whole entry, or a clean fallback.
        assert try_load_evaluation(path) in (None, expected)


class TestInvalidation:
    def test_invalidate_single_entry(self, entry):
        assert invalidate_evaluation(entry)
        assert not os.path.exists(entry)
        assert not invalidate_evaluation(entry)  # second call is a no-op

    def test_invalidate_workspace(self, tmp_path, result):
        for key in ("a", "b", "c"):
            save_evaluation(eval_cache_path(str(tmp_path), key), result)
        (tmp_path / "model.npz").write_bytes(b"weights, not an entry")
        assert invalidate_evaluations(str(tmp_path)) == 3
        assert sorted(os.listdir(tmp_path)) == ["model.npz"]

    def test_invalidate_missing_directory(self, tmp_path):
        assert invalidate_evaluations(str(tmp_path / "absent")) == 0


class TestEnvironmentDefault:
    def test_enabled_by_default(self, monkeypatch):
        monkeypatch.delenv(EVAL_CACHE_ENV, raising=False)
        assert eval_cache_enabled()

    def test_disabled_by_env(self, monkeypatch):
        monkeypatch.setenv(EVAL_CACHE_ENV, "0")
        assert not eval_cache_enabled()
        ctx = ExperimentContext(scale="tiny", workspace="unused-ws")
        assert not ctx.eval_cache

    def test_explicit_argument_beats_env(self, monkeypatch):
        monkeypatch.setenv(EVAL_CACHE_ENV, "0")
        ctx = ExperimentContext(
            scale="tiny", workspace="unused-ws", eval_cache=True
        )
        assert ctx.eval_cache


class TestContextIntegration:
    """End-to-end through ExperimentContext (tiny scale, one training)."""

    @pytest.fixture(scope="class")
    def workspace(self, tmp_path_factory):
        return str(tmp_path_factory.mktemp("evalcache-ws"))

    @pytest.fixture(scope="class")
    def warm_result(self, workspace):
        ctx = ExperimentContext(scale="tiny", workspace=workspace, seed=0)
        assert ctx.eval_cache
        return ctx.evaluate("svhn", "fp32", max_samples=24)

    def test_entry_written_next_to_model(self, workspace, warm_result):
        entries = [
            name
            for name in os.listdir(os.path.join(workspace, "models"))
            if name.endswith(EVAL_CACHE_SUFFIX)
        ]
        assert entries == ["tiny_svhn_fp32_direct_s0_n24_tNone.eval.json"]

    def test_fresh_context_hits_without_recompute(
        self, workspace, warm_result, monkeypatch
    ):
        """A warm entry must be served with zero test-set evaluations."""
        monkeypatch.setattr(
            "repro.experiments.context.sharded_forward",
            lambda *a, **k: pytest.fail("evaluation re-ran despite warm cache"),
        )
        fresh = ExperimentContext(scale="tiny", workspace=workspace, seed=0)
        cached = fresh.evaluate("svhn", "fp32", max_samples=24)
        assert cached == warm_result  # bit-identical fields

    def test_corrupt_entry_falls_back_to_recompute(
        self, workspace, warm_result
    ):
        fresh = ExperimentContext(scale="tiny", workspace=workspace, seed=0)
        entry = fresh.eval_cache_file("tiny_svhn_fp32_direct_s0_n24_tNone")
        with open(entry, "wb") as handle:
            handle.write(b"truncated\x00")
        recomputed = fresh.evaluate("svhn", "fp32", max_samples=24)
        assert recomputed == warm_result
        # The recompute repaired the entry on disk.
        assert try_load_evaluation(entry) == warm_result

    def test_stale_digest_falls_back_to_recompute(
        self, workspace, warm_result
    ):
        fresh = ExperimentContext(scale="tiny", workspace=workspace, seed=0)
        entry = fresh.eval_cache_file("tiny_svhn_fp32_direct_s0_n24_tNone")
        with open(entry, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        payload["model_digest"] = "stale-after-retrain"
        payload["result"]["accuracy"] = 0.0  # poisoned value must not leak
        with open(entry, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        recomputed = fresh.evaluate("svhn", "fp32", max_samples=24)
        assert recomputed == warm_result

    def test_snapshot_era_entry_recomputed_through_context(
        self, workspace, warm_result
    ):
        """A v1 entry left in the workspace (written under snapshot
        semantics) must be recomputed and repaired, never served."""
        fresh = ExperimentContext(scale="tiny", workspace=workspace, seed=0)
        entry = fresh.eval_cache_file("tiny_svhn_fp32_direct_s0_n24_tNone")
        fresh.evaluate("svhn", "fp32", max_samples=24)  # ensure on disk
        with open(entry, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        payload["format"] = "evaluation-result-v1"
        payload.pop("encoding", None)
        payload["result"]["accuracy"] = 0.0  # poisoned value must not leak
        with open(entry, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        another = ExperimentContext(scale="tiny", workspace=workspace, seed=0)
        recomputed = another.evaluate("svhn", "fp32", max_samples=24)
        assert recomputed == warm_result
        # The recompute upgraded the entry on disk to the current format.
        with open(entry, "r", encoding="utf-8") as handle:
            repaired = json.load(handle)
        assert repaired["format"] == "evaluation-result-v3"
        assert repaired["encoding"] == "direct"

    def test_v2_entry_rejected_and_recomputed(self, workspace, warm_result):
        """v2 entries of max-abs quantized models hold the numbers of the
        dequantized float datapath: the v3 format check rejects every v2
        entry, and the context recomputes and overwrites it."""
        fresh = ExperimentContext(scale="tiny", workspace=workspace, seed=0)
        entry = fresh.eval_cache_file("tiny_svhn_fp32_direct_s0_n24_tNone")
        fresh.evaluate("svhn", "fp32", max_samples=24)  # ensure on disk
        with open(entry, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        payload["format"] = "evaluation-result-v2"
        payload["numeric"] = "float32"
        payload["result"]["accuracy"] = 0.0  # poisoned value must not leak
        with open(entry, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        assert try_load_evaluation(entry) is None
        another = ExperimentContext(scale="tiny", workspace=workspace, seed=0)
        assert another.evaluate("svhn", "fp32", max_samples=24) == warm_result
        with open(entry, "r", encoding="utf-8") as handle:
            repaired = json.load(handle)
        assert repaired["format"] == "evaluation-result-v3"
        assert "numeric" not in repaired

    def test_explicit_encoder_seed_gets_own_entry(
        self, workspace, warm_result
    ):
        """An explicit encoder_seed must not thrash the default entry:
        both coexist on disk under distinct cache keys."""
        seeded = ExperimentContext(
            scale="tiny", workspace=workspace, seed=0, encoder_seed=77
        )
        seeded.evaluate("svhn", "fp32", max_samples=24)
        entries = sorted(
            name
            for name in os.listdir(os.path.join(workspace, "models"))
            if name.endswith(EVAL_CACHE_SUFFIX)
        )
        assert "tiny_svhn_fp32_direct_s0_n24_tNone.eval.json" in entries
        assert "tiny_svhn_fp32_direct_s0_e77_n24_tNone.eval.json" in entries
        # The default-key entry is untouched and still warm.
        default = ExperimentContext(scale="tiny", workspace=workspace, seed=0)
        assert default.evaluate("svhn", "fp32", max_samples=24) == warm_result

    def test_disabled_context_writes_nothing(self, workspace, warm_result):
        ctx = ExperimentContext(
            scale="tiny", workspace=workspace, seed=0, eval_cache=False
        )
        ctx.invalidate_eval_cache()
        ctx.evaluate("svhn", "fp32", max_samples=24)
        entries = [
            name
            for name in os.listdir(os.path.join(workspace, "models"))
            if name.endswith(EVAL_CACHE_SUFFIX)
        ]
        assert entries == []

    def test_invalidate_eval_cache_counts(self, workspace, warm_result):
        ctx = ExperimentContext(scale="tiny", workspace=workspace, seed=0)
        ctx.evaluate("svhn", "fp32", max_samples=24)  # repopulate
        assert ctx.invalidate_eval_cache() == 1
        assert ctx.invalidate_eval_cache() == 0
