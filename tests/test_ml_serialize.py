"""Round-trip tests for the pure-numpy estimator serialization codec."""

import gc
import json
import warnings

import numpy as np
import pytest

from repro.ml import (
    SVC,
    SVR,
    DecisionTreeClassifier,
    DecisionTreeRegressor,
    GradientBoostingClassifier,
    GradientBoostingRegressor,
    LabelEncoder,
    Log1pTransformer,
    MLPClassifier,
    MLPEnsembleClassifier,
    MLPEnsembleRegressor,
    MLPRegressor,
    Pipeline,
    RandomForestClassifier,
    RandomForestRegressor,
    STATE_SCHEMA,
    SerializationError,
    SimpleCNNClassifier,
    StandardScaler,
    decode_estimator,
    encode_estimator,
    load_estimator,
    save_estimator,
)
from repro.ml.serialize import decode, encode, save_payload


@pytest.fixture(scope="module")
def clf_data():
    rng = np.random.default_rng(42)
    X = np.abs(rng.standard_normal((70, 6))) * 10
    y = (X[:, 0] + X[:, 1] > X[:, 2] + 5).astype(int) + (X[:, 3] > 12)
    return X, y


@pytest.fixture(scope="module")
def reg_data():
    rng = np.random.default_rng(43)
    X = np.abs(rng.standard_normal((70, 6))) * 10
    y = X[:, 0] * 0.5 - np.log1p(X[:, 1]) + 0.1 * rng.standard_normal(70)
    return X, y


def _scaled(est):
    return Pipeline(
        [("log", Log1pTransformer()), ("scale", StandardScaler()), ("model", est)]
    )


CLASSIFIERS = {
    "tree": lambda: DecisionTreeClassifier(max_depth=6),
    "forest": lambda: RandomForestClassifier(n_estimators=4, max_depth=5),
    "xgboost": lambda: GradientBoostingClassifier(n_estimators=6, max_depth=3),
    "xgboost_subsample": lambda: GradientBoostingClassifier(
        n_estimators=5, max_depth=3, subsample=0.8
    ),
    "svm_pipeline": lambda: _scaled(SVC(C=10.0, gamma=0.1)),
    "mlp_pipeline": lambda: _scaled(
        MLPClassifier(hidden_layer_sizes=(8,), n_epochs=15)
    ),
    "mlp_ensemble": lambda: _scaled(
        MLPEnsembleClassifier(n_members=2, hidden_layer_sizes=(8,), n_epochs=10)
    ),
}

REGRESSORS = {
    "tree": lambda: DecisionTreeRegressor(max_depth=6),
    "forest": lambda: RandomForestRegressor(n_estimators=4, max_depth=5),
    "xgboost": lambda: GradientBoostingRegressor(n_estimators=6, max_depth=3),
    "svr_pipeline": lambda: _scaled(SVR(C=10.0, gamma=0.1, n_epochs=15)),
    "mlp_pipeline": lambda: _scaled(MLPRegressor(hidden_layer_sizes=(8,), n_epochs=15)),
    "mlp_ensemble": lambda: _scaled(
        MLPEnsembleRegressor(n_members=2, hidden_layer_sizes=(8,), n_epochs=10)
    ),
}


class TestRoundTrip:
    @pytest.mark.parametrize("name", sorted(CLASSIFIERS))
    def test_classifier_bit_identical(self, name, clf_data, tmp_path):
        X, y = clf_data
        est = CLASSIFIERS[name]().fit(X, y)
        path = tmp_path / f"{name}.npz"
        save_estimator(est, path)
        restored = load_estimator(path)
        np.testing.assert_array_equal(est.predict(X), restored.predict(X))
        try:
            proba = est.predict_proba(X)
        except AttributeError:
            return  # family exposes no probabilities (e.g. the SVM)
        np.testing.assert_array_equal(proba, restored.predict_proba(X))

    @pytest.mark.parametrize("name", sorted(REGRESSORS))
    def test_regressor_bit_identical(self, name, reg_data, tmp_path):
        X, y = reg_data
        est = REGRESSORS[name]().fit(X, y)
        path = tmp_path / f"{name}.npz"
        save_estimator(est, path)
        restored = load_estimator(path)
        np.testing.assert_array_equal(est.predict(X), restored.predict(X))

    def test_cnn_bit_identical(self, tmp_path):
        rng = np.random.default_rng(5)
        images = rng.random((40, 10, 10))
        y = (images[:, :5].mean(axis=(1, 2)) > images[:, 5:].mean(axis=(1, 2)))
        est = SimpleCNNClassifier(n_epochs=3, seed=0).fit(images, y.astype(int))
        save_estimator(est, tmp_path / "cnn.npz")
        restored = load_estimator(tmp_path / "cnn.npz")
        np.testing.assert_array_equal(est.predict(images), restored.predict(images))

    def test_restored_params_match(self, clf_data, tmp_path):
        X, y = clf_data
        est = GradientBoostingClassifier(
            n_estimators=5, max_depth=3, learning_rate=0.07
        ).fit(X, y)
        save_estimator(est, tmp_path / "m.npz")
        restored = load_estimator(tmp_path / "m.npz")
        assert restored.get_params() == est.get_params()

    def test_label_encoder_round_trip(self):
        enc = LabelEncoder().fit(np.array(["csr", "ell", "hyb", "csr"]))
        structure, arrays = encode(enc)
        restored = decode(structure, arrays)
        np.testing.assert_array_equal(restored.classes_, enc.classes_)
        np.testing.assert_array_equal(
            restored.transform(np.array(["hyb", "csr"])),
            enc.transform(np.array(["hyb", "csr"])),
        )

    def test_in_memory_encode_decode(self, clf_data):
        X, y = clf_data
        est = DecisionTreeClassifier(max_depth=4).fit(X, y)
        structure, arrays = encode_estimator(est)
        json.dumps(structure)  # must be pure JSON
        assert all(isinstance(a, np.ndarray) for a in arrays.values())
        restored = decode_estimator(structure, arrays)
        np.testing.assert_array_equal(est.predict(X), restored.predict(X))


def _rewrite(path, edit):
    """Apply ``edit(header, members)`` to a saved artifact in place."""
    with np.load(path, allow_pickle=False) as z:
        header = json.loads(str(z["__state__"][()]))
        members = {k: z[k] for k in z.files if k != "__state__"}
    edit(header, members)
    np.savez_compressed(path, __state__=np.array(json.dumps(header)), **members)


class TestPooledLayout:
    def test_boosted_ensemble_saves_as_a_few_members(self, clf_data, tmp_path):
        X, y = clf_data
        est = GradientBoostingClassifier(n_estimators=30, max_depth=3).fit(X, y)
        path = tmp_path / "m.npz"
        save_estimator(est, path)
        with np.load(path, allow_pickle=False) as z:
            header = json.loads(str(z["__state__"][()]))
            assert len(z.files) <= 5  # header + one pool per dtype
        assert "__boost_tree__" not in json.dumps(header["root"])
        restored = load_estimator(path)
        assert len(restored.trees_) == 30
        for a, b in zip(est._flat_trees(), restored._flat_trees()):
            np.testing.assert_array_equal(a.gain_by_feature, b.gain_by_feature)
            np.testing.assert_array_equal(a.splits_by_feature, b.splits_by_feature)

    def test_lone_boosting_tree_round_trips(self, clf_data):
        X, y = clf_data
        est = GradientBoostingRegressor(n_estimators=3, max_depth=3).fit(X, y)
        structure, arrays = encode({"one": est.trees_[1], "ragged": [
            est.trees_[:1], est.trees_]})
        restored = decode(structure, arrays)
        rebuilt = restored["ragged"][1] + restored["ragged"][0] + [restored["one"]]
        for a, b in zip(est.trees_ + est.trees_[:1] + [est.trees_[1]], rebuilt):
            np.testing.assert_array_equal(a.predict(X), b.predict(X))

    def test_retired_presort_knob_stays_readable_both_ways(self, clf_data):
        """Older builds take a ``presort`` parameter and a 6-slot boosting
        params row: this build drops the stored parameter on read, and
        writes the row with ``True`` in its reserved slot."""
        X, y = clf_data
        est = GradientBoostingClassifier(n_estimators=2, max_depth=3).fit(X, y)
        structure, arrays = encode_estimator(est)
        params = dict(structure["params"]["__map__"])
        assert "presort" not in params
        state = dict(structure["state"]["__map__"])
        (row,) = state["trees_"]["__boost_trees__"]["params"]
        assert len(row) == 6 and row[4] is True
        structure["params"]["__map__"].append(["presort", False])
        restored = decode_estimator(structure, arrays)
        assert "presort" not in restored.get_params()
        np.testing.assert_array_equal(est.predict_proba(X),
                                      restored.predict_proba(X))

    def test_object_arrays_rejected_at_save(self, tmp_path):
        with pytest.raises(SerializationError, match="object array"):
            save_payload({"bad": np.array([None, 1], dtype=object)},
                         tmp_path / "m.npz")


class TestMalformedPooledArtifact:
    """Every index entry is checked before numpy slices a pool."""

    @pytest.fixture
    def path(self, clf_data, tmp_path):
        X, y = clf_data
        path = tmp_path / "m.npz"
        save_estimator(GradientBoostingClassifier(n_estimators=3).fit(X, y), path)
        return path

    @staticmethod
    def _first_entry(header):
        return next(iter(header["index"].values()))

    def test_entry_overrunning_its_pool(self, path):
        def edit(header, members):
            entry = self._first_entry(header)
            entry[1] = members[entry[0]].size - entry[2] + 1

        _rewrite(path, edit)
        with pytest.raises(SerializationError, match="overruns pool"):
            load_estimator(path)

    def test_missing_pool_member(self, path):
        _rewrite(path, lambda header, members: members.pop(
            self._first_entry(header)[0]))
        with pytest.raises(SerializationError, match="missing pool"):
            load_estimator(path)

    def test_shape_not_matching_length(self, path):
        def edit(header, members):
            entry = self._first_entry(header)
            entry[3] = [entry[2] + 1]

        _rewrite(path, edit)
        with pytest.raises(SerializationError, match="cannot hold"):
            load_estimator(path)

    def test_malformed_entry(self, path):
        def edit(header, members):
            self._first_entry(header)[1] = -1

        _rewrite(path, edit)
        with pytest.raises(SerializationError, match="malformed index"):
            load_estimator(path)


class TestRejection:
    def test_unknown_schema_rejected(self, clf_data, tmp_path):
        X, y = clf_data
        est = DecisionTreeClassifier(max_depth=3).fit(X, y)
        path = tmp_path / "m.npz"
        save_estimator(est, path)
        _rewrite(path, lambda header, members: header.update(
            schema="repro-ml-state/v999"))
        with pytest.raises(SerializationError, match="schema"):
            load_estimator(path)

    def test_truncated_file_rejected(self, clf_data, tmp_path):
        X, y = clf_data
        est = DecisionTreeClassifier(max_depth=3).fit(X, y)
        path = tmp_path / "m.npz"
        save_estimator(est, path)
        path.write_bytes(path.read_bytes()[:40])
        with pytest.raises(SerializationError):
            load_estimator(path)

    def test_truncated_file_is_closed(self, clf_data, tmp_path):
        X, y = clf_data
        path = tmp_path / "m.npz"
        save_estimator(DecisionTreeClassifier(max_depth=3).fit(X, y), path)
        path.write_bytes(path.read_bytes()[:40])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(SerializationError):
                load_estimator(path)
            gc.collect()
        leaks = [w for w in caught if issubclass(w.category, ResourceWarning)]
        assert leaks == []

    def test_unencodable_object_rejected(self):
        with pytest.raises(SerializationError):
            encode({"bad": object()})

    def test_unknown_estimator_tag_rejected(self):
        with pytest.raises(SerializationError, match="unknown"):
            decode({"__est__": "NoSuchEstimator", "params": {}, "state": {}}, {})

    def test_schema_constant_stable(self):
        # Artifacts written by this build advertise the v3 layout
        # (v2 + pooled arrays and one record per boosting ensemble).
        assert STATE_SCHEMA == "repro-ml-state/v3"
