"""Model-registry tests: versioning, promotion, integrity validation.

The round-trip matrix covers **every** model family in both
``MODEL_REGISTRY`` (selectors) and ``REGRESSOR_REGISTRY`` (predictors):
save → load must reproduce bit-identical predictions in a fresh object.
"""

import hashlib
import json
import os
from pathlib import Path

import numpy as np
import pytest

from repro.core import MODEL_REGISTRY, FormatSelector
from repro.core.predictor import REGRESSOR_REGISTRY, PerformancePredictor
from repro.serve import ARTIFACT_SCHEMA, ModelRegistry, RegistryError

FAST_KWARGS = {
    "mlp": {"n_epochs": 10},
    "mlp_ensemble": {"n_epochs": 8, "n_members": 2},
    "xgboost": {"n_estimators": 8},
    "svr": {"n_epochs": 10},
}


@pytest.fixture(scope="module")
def train(mini_dataset):
    return mini_dataset.drop_coo_best()


class TestRoundTrip:
    @pytest.mark.parametrize("model", sorted(MODEL_REGISTRY))
    def test_every_selector_family(self, model, train, tmp_path):
        selector = FormatSelector(
            model, feature_set="set12", **FAST_KWARGS.get(model, {})
        ).fit(train)
        registry = ModelRegistry(tmp_path)
        registry.save(selector, model, dataset=train)
        restored, record = registry.load(model)
        np.testing.assert_array_equal(
            selector.predict(train), restored.predict(train)
        )
        np.testing.assert_array_equal(
            selector.predict_formats(train), restored.predict_formats(train)
        )
        assert record.meta["kind"] == "selector"
        assert record.meta["model_name"] == model
        assert record.meta["dataset_digest"] == train.digest()

    @pytest.mark.parametrize("model", sorted(REGRESSOR_REGISTRY))
    def test_every_predictor_family(self, model, train, tmp_path):
        predictor = PerformancePredictor(
            model, feature_set="set12", mode="joint",
            **FAST_KWARGS.get(model, {}),
        ).fit(train)
        registry = ModelRegistry(tmp_path)
        registry.save(predictor, model, dataset=train)
        restored, record = registry.load(model)
        np.testing.assert_array_equal(
            predictor.predict(train), restored.predict(train)
        )
        assert record.meta["kind"] == "predictor"

    def test_per_format_predictor(self, train, tmp_path):
        predictor = PerformancePredictor(
            "decision_tree", feature_set="set12", mode="per_format"
        ).fit(train)
        registry = ModelRegistry(tmp_path)
        registry.save(predictor, "pf", dataset=train)
        restored, _ = registry.load("pf")
        np.testing.assert_array_equal(
            predictor.predict(train), restored.predict(train)
        )
        assert restored.mode == "per_format"

    def test_metadata_fields(self, train, tmp_path):
        selector = FormatSelector("decision_tree", feature_set="imp").fit(train)
        registry = ModelRegistry(tmp_path)
        record = registry.save(selector, "m", dataset=train)
        meta = json.loads((record.path / "meta.json").read_text())
        assert meta["schema"] == ARTIFACT_SCHEMA
        assert meta["feature_set"] == "imp"
        assert meta["n_features"] == len(meta["feature_names"]) == 7
        assert meta["formats"] == list(train.formats)
        assert meta["device"] == train.device
        assert meta["n_train"] == len(train)
        assert len(meta["checksum"]) == 64


class TestVersioning:
    def test_versions_increment_and_latest(self, train, tmp_path):
        registry = ModelRegistry(tmp_path)
        selector = FormatSelector("decision_tree", feature_set="set1").fit(train)
        r1 = registry.save(selector, "m")
        r2 = registry.save(selector, "m")
        assert (r1.version, r2.version) == ("v0001", "v0002")
        assert registry.resolve("m", "latest") == "v0002"
        # Without a production alias, the default is latest.
        assert registry.resolve("m") == "v0002"

    def test_promotion(self, train, tmp_path):
        registry = ModelRegistry(tmp_path)
        selector = FormatSelector("decision_tree", feature_set="set1").fit(train)
        registry.save(selector, "m")
        registry.save(selector, "m")
        registry.promote("m", "v0001")
        assert registry.production_version("m") == "v0001"
        assert registry.resolve("m") == "v0001"          # alias wins
        assert registry.resolve("m", "production") == "v0001"
        _, record = registry.load("m")
        assert record.version == "v0001"

    def test_save_promote_flag(self, train, tmp_path):
        registry = ModelRegistry(tmp_path)
        selector = FormatSelector("decision_tree", feature_set="set1").fit(train)
        registry.save(selector, "m", promote=True)
        assert registry.production_version("m") == "v0001"

    def test_list(self, train, tmp_path):
        registry = ModelRegistry(tmp_path)
        selector = FormatSelector("decision_tree", feature_set="set1").fit(train)
        registry.save(selector, "a")
        registry.save(selector, "a")
        registry.save(selector, "b")
        records = registry.list()
        assert [(r.name, r.version) for r in records] == [
            ("a", "v0001"), ("a", "v0002"), ("b", "v0001")
        ]
        assert len(registry.list("a")) == 2
        assert "decision_tree" in records[0].describe()


class TestRejection:
    @pytest.fixture
    def saved(self, train, tmp_path):
        registry = ModelRegistry(tmp_path)
        selector = FormatSelector("decision_tree", feature_set="set1").fit(train)
        record = registry.save(selector, "m")
        return registry, record

    def test_corrupted_artifact_rejected(self, saved):
        registry, record = saved
        artifact = record.path / "artifact.npz"
        raw = bytearray(artifact.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        artifact.write_bytes(bytes(raw))
        with pytest.raises(RegistryError, match="checksum"):
            registry.load("m")

    def test_missing_artifact_rejected(self, saved):
        registry, record = saved
        (record.path / "artifact.npz").unlink()
        with pytest.raises(RegistryError, match="missing artifact"):
            registry.load("m")

    def test_wrong_schema_rejected(self, saved):
        registry, record = saved
        meta_path = record.path / "meta.json"
        meta = json.loads(meta_path.read_text())
        meta["schema"] = "repro-serve-artifact/v999"
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(RegistryError, match="schema"):
            registry.load("m")

    def test_checksum_mismatch_in_meta_rejected(self, saved):
        registry, record = saved
        meta_path = record.path / "meta.json"
        meta = json.loads(meta_path.read_text())
        meta["checksum"] = "0" * 64
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(RegistryError, match="checksum"):
            registry.load("m")

    def test_truncated_artifact_rejected(self, saved):
        registry, record = saved
        artifact = record.path / "artifact.npz"
        artifact.write_bytes(artifact.read_bytes()[:-100])
        with pytest.raises(RegistryError, match="checksum"):
            registry.load("m")
        # Even with a checksum that matches the damage, decode refuses it.
        meta_path = record.path / "meta.json"
        meta = json.loads(meta_path.read_text())
        meta["checksum"] = hashlib.sha256(artifact.read_bytes()).hexdigest()
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(RegistryError, match="cannot load"):
            registry.load("m")

    def test_unknown_model_rejected(self, tmp_path):
        with pytest.raises(RegistryError, match="unknown model"):
            ModelRegistry(tmp_path).load("ghost")

    def test_unknown_version_rejected(self, saved):
        registry, _ = saved
        with pytest.raises(RegistryError, match="no version"):
            registry.load("m", "v0042")

    def test_production_without_alias_rejected(self, saved):
        registry, _ = saved
        with pytest.raises(RegistryError, match="no production version"):
            registry.resolve("m", "production")

    def test_promote_unknown_version_rejected(self, saved):
        registry, _ = saved
        with pytest.raises(RegistryError, match="cannot promote"):
            registry.promote("m", "v0042")

    def test_invalid_name_rejected(self, tmp_path):
        with pytest.raises(RegistryError, match="invalid model name"):
            ModelRegistry(tmp_path).versions("../evil")

    def test_unfitted_model_rejected(self, tmp_path):
        with pytest.raises(RegistryError, match="unfitted"):
            ModelRegistry(tmp_path).save(FormatSelector("decision_tree"), "m")

    def test_non_model_rejected(self, tmp_path):
        with pytest.raises(RegistryError, match="FormatSelector or"):
            ModelRegistry(tmp_path).save(object(), "m")


class TestCrashConsistentSave:
    """A save is published by one rename; nothing half-written shows."""

    @pytest.fixture
    def registry(self, train, tmp_path):
        registry = ModelRegistry(tmp_path)
        selector = FormatSelector("decision_tree", feature_set="set1").fit(train)
        registry.save(selector, "m", promote=True)
        return registry, selector

    @staticmethod
    def _view(registry):
        return (registry.versions("m"),
                [(r.name, r.version) for r in registry.list()],
                registry.production_version("m"),
                registry.load("m")[1].version)

    def test_crash_before_rename_leaves_registry_as_it_was(
            self, registry, train, monkeypatch):
        registry, selector = registry
        before = self._view(registry)

        def crash(src, dst):
            assert (Path(src) / "artifact.npz").is_file()
            assert (Path(src) / "meta.json").is_file()
            raise RuntimeError("power cut")

        monkeypatch.setattr(os, "rename", crash)
        with pytest.raises(RuntimeError, match="power cut"):
            registry.save(selector, "m")
        monkeypatch.undo()
        assert self._view(registry) == before
        record = registry.save(selector, "m")
        assert record.version == "v0002"
        restored, _ = registry.load("m", "v0002")
        np.testing.assert_array_equal(selector.predict(train),
                                      restored.predict(train))

    def test_leftover_staging_dir_is_ignored(self, registry):
        registry, selector = registry
        before = self._view(registry)
        stage = registry.root / "m" / ".staging-v0002-dead"
        stage.mkdir()
        (stage / "artifact.npz").write_bytes(b"half a zip")
        assert self._view(registry) == before
        assert registry.save(selector, "m").version == "v0002"
        assert registry.versions("m") == ["v0001", "v0002"]
        assert stage.is_dir()

    def test_failed_alias_swap_keeps_the_old_alias(self, registry, monkeypatch):
        registry, selector = registry
        registry.save(selector, "m")

        def crash(src, dst):
            raise RuntimeError("power cut")

        monkeypatch.setattr(os, "replace", crash)
        with pytest.raises(RuntimeError, match="power cut"):
            registry.promote("m", "v0002")
        monkeypatch.undo()
        mdir = registry.root / "m"
        assert (mdir / "PRODUCTION").read_text() == "v0001\n"
        assert sorted(p.name for p in mdir.iterdir()) == [
            "PRODUCTION", "PROMOTIONS.jsonl", "v0001", "v0002"]
        registry.promote("m", "v0002")
        assert registry.production_version("m") == "v0002"
