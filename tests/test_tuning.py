"""The joint format+parameter tuning space (:mod:`repro.tuning`).

Every grid configuration round-trips through its string key and is
feasible-or-masked in the cost models, default configurations are
bit-identical to the bare formats they canonicalise to, and tuned
campaign datasets are bit-identical for any worker count.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import tuning
from repro.formats import FORMAT_NAMES, COOMatrix, as_format
from repro.formats.base import FormatError
from repro.gpu import KEPLER_K40C, SpMVExecutor, profile_matrix
from repro.gpu.batch import ProfileBatch, estimate_batch
from repro.gpu.kernels import estimate_time
from repro.matrices import SyntheticCorpus


def _profiles(n=12, seed=3):
    entries = list(SyntheticCorpus(scale=0.01, seed=seed, max_nnz=100_000))[:n]
    return [profile_matrix(e.build()) for e in entries]


# -- the configuration value object -------------------------------------


def test_grid_round_trips_through_key():
    for config in tuning.configurations(FORMAT_NAMES + ("dia", "bsr")):
        again = tuning.Configuration.from_key(config.key)
        assert again == config
        assert hash(again) == hash(config)
        assert again.key == config.key


def test_default_config_key_is_bare_format_name():
    for fmt in FORMAT_NAMES:
        assert tuning.Configuration.default(fmt).key == fmt
    # Explicitly passing default values canonicalises away.
    assert tuning.Configuration("csr", {"lanes": 32}).key == "csr"
    assert tuning.Configuration("ell", {"rows_per_thread": 1}).key == "ell"


def test_key_is_order_insensitive():
    a = tuning.Configuration("ell", {"rows_per_thread": 2, "width_cap": 512})
    b = tuning.Configuration("ell", {"width_cap": 512, "rows_per_thread": 2})
    assert a == b and a.key == b.key


def test_unknown_format_and_param_raise():
    with pytest.raises(tuning.ConfigError):
        tuning.Configuration("nope", {})
    with pytest.raises(tuning.ConfigError):
        tuning.Configuration("csr", {"bogus": 1})
    with pytest.raises(tuning.ConfigError):
        tuning.Configuration.from_key("csr?lanes=not_an_int")


def test_coerce_accepts_all_spellings_and_warns_on_bare_strings():
    cfg = tuning.Configuration("hyb", {"split": 2.0})
    assert tuning.coerce(cfg) is cfg
    assert tuning.coerce("hyb?split=2") == cfg
    assert tuning.coerce({"format": "hyb", "params": {"split": 2.0}}) == cfg
    # A bare format name is the key of its default configuration; the
    # deprecation shim for it is retired, so it coerces silently.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert tuning.coerce("hyb") == tuning.Configuration.default("hyb")
    assert not any(issubclass(w.category, DeprecationWarning) for w in caught)


def test_tuned_space_defaults_first_per_format():
    space = tuning.tuned_space()
    assert set(tuning.default_space()) <= set(space)
    seen = []
    for key in space:
        fmt = tuning.base_format(key)
        if fmt not in seen:
            # The first configuration of each format is its default.
            assert key == fmt
            seen.append(fmt)
    assert tuple(seen) == FORMAT_NAMES


# -- cost models over the joint space -----------------------------------


def test_estimate_batch_feasible_or_masked():
    batch = ProfileBatch.from_profiles(_profiles())
    ex = SpMVExecutor(KEPLER_K40C, "single")
    space = tuning.tuned_space()
    cost = estimate_batch(batch, space, KEPLER_K40C, "single")
    failures = ex.feasibility_batch(batch, space)
    for j, key in enumerate(space):
        masked = np.array([key in failures[i] for i in range(len(batch))])
        finite = np.isfinite(cost.seconds[:, j]) & (cost.seconds[:, j] > 0)
        # Every cell is either a positive finite estimate or flagged
        # infeasible by the executor (estimates stay finite even for
        # masked cells — the mask is what consumers must honour).
        assert np.all(finite | masked)


def test_default_columns_bit_identical_to_base_formats():
    batch = ProfileBatch.from_profiles(_profiles())
    tuned = estimate_batch(batch, tuning.tuned_space(), KEPLER_K40C, "single")
    base = estimate_batch(batch, FORMAT_NAMES, KEPLER_K40C, "single")
    for fmt in FORMAT_NAMES:
        np.testing.assert_array_equal(
            tuned.seconds[:, tuned.column(fmt)],
            base.seconds[:, base.column(fmt)],
        )


def test_config_footprint_matches_batch():
    batch = ProfileBatch.from_profiles(_profiles(6))
    keys = ("hyb?split=0.5", "bsr?block_shape=8x8", "csr?lanes=16")
    swept = estimate_batch(batch, keys, KEPLER_K40C, "single").footprint
    for j, key in enumerate(keys):
        per = estimate_batch(batch, (key,), KEPLER_K40C, "single").footprint[:, 0]
        assert per.shape == (len(batch),)
        assert np.all(per > 0)
        np.testing.assert_array_equal(per, swept[:, j])
    # Execution-only knobs leave the stored geometry alone.
    lanes = estimate_batch(batch, ("csr", "csr?lanes=16"), KEPLER_K40C, "single")
    np.testing.assert_array_equal(lanes.footprint[:, 0], lanes.footprint[:, 1])


def test_width_cap_infeasible_and_error_string_stable():
    rng = np.random.default_rng(0)
    dense = np.zeros((64, 700))
    dense[0, :650] = 1.0  # one 650-wide row
    dense[rng.integers(0, 64, 200), rng.integers(0, 700, 200)] = 1.0
    coo = COOMatrix.from_dense(dense)
    prof = profile_matrix(coo)
    ex = SpMVExecutor(KEPLER_K40C, "single")
    key = "ell?width_cap=512"
    from repro.gpu.executor import KernelFailure

    with pytest.raises(KernelFailure, match="width cap 512"):
        ex.check_feasible(prof, key)
    batch = ProfileBatch.from_profiles([prof])
    failures = ex.feasibility_batch(batch, (key, "ell"))
    assert key in failures[0]
    # The conversion-time twin trips identically.
    with pytest.raises(FormatError, match="width cap 512"):
        as_format(coo, key)


def test_energy_scalarisation():
    prof = _profiles(1)[0]
    cost = estimate_time("csr", prof, KEPLER_K40C, "single")
    joules = tuning.energy_joules(cost, KEPLER_K40C)
    assert joules > 0
    seconds = np.array([1.0, 4.0, 9.0])
    energy = np.array([9.0, 1.0, 4.0])
    assert tuning.scalarize(seconds, energy, 0.0) is seconds
    blended = tuning.scalarize(seconds, energy, 0.5)
    assert np.argmin(seconds) == 0
    assert np.argmin(blended) == 1  # geometric blend flips the argmin
    with pytest.raises(ValueError):
        tuning.scalarize(seconds, energy, 1.5)


@settings(max_examples=25, deadline=None)
@given(
    key=st.sampled_from(tuning.tuned_space() + ("bsr?block_shape=2x2",
                                                "bsr?block_shape=8x8")),
    seed=st.integers(0, 500),
)
def test_property_config_estimates_round_trip_and_stay_positive(key, seed):
    """Any grid configuration: key round-trip + finite positive batch cell."""
    config = tuning.Configuration.from_key(key)
    assert config.key == key or config.is_default
    rng = np.random.default_rng(seed)
    dense = (rng.random((20, 24)) < 0.2) * 1.0
    dense[0, 0] = 1.0
    prof = profile_matrix(COOMatrix.from_dense(dense))
    batch = ProfileBatch.from_profiles([prof])
    cost = estimate_batch(batch, (key,), KEPLER_K40C, "single")
    ex = SpMVExecutor(KEPLER_K40C, "single")
    if key not in ex.feasibility_batch(batch, (key,))[0]:
        assert np.isfinite(cost.seconds[0, 0]) and cost.seconds[0, 0] > 0
        assert estimate_time(key, prof, KEPLER_K40C, "single").seconds == \
            cost.at(0, key).seconds


# -- formats take the uniform params mapping ----------------------------


def test_formats_params_mapping_uniform():
    rng = np.random.default_rng(1)
    dense = (rng.random((32, 40)) < 0.2) * rng.standard_normal((32, 40))
    dense[0, 0] = 1.0
    coo = COOMatrix.from_dense(dense)

    ell = as_format(coo, "ell", params={"rows_per_thread": 4})
    assert ell.params["rows_per_thread"] == 4

    hyb = as_format(coo, "hyb?split=2")
    k = max(1, math.ceil(2.0 * coo.nnz / coo.n_rows))
    assert hyb.threshold <= k  # padded width never exceeds the split rule
    assert hyb.params["split"] == 2.0

    bsr = as_format(coo, "bsr?block_shape=2x2")
    assert bsr.block_shape == (2, 2)
    assert bsr.params == {"block_shape": (2, 2)}

    # Execution-only knobs leave the stored data unchanged.
    csr = as_format(coo, "csr?lanes=8")
    np.testing.assert_array_equal(csr.to_coo().val, coo.val)

    with pytest.raises(FormatError):
        as_format(coo, "hyb", threshold=3, params={"split": 2.0})
    with pytest.raises(FormatError):
        as_format(coo, "ell", params={"bogus": 1})
    with pytest.raises(tuning.ConfigError):
        as_format(coo, "csr", params={"lanes": "wide"})


def test_as_format_accepts_configuration_objects():
    rng = np.random.default_rng(2)
    dense = (rng.random((16, 16)) < 0.3) * 1.0
    dense[0, 0] = 1.0
    coo = COOMatrix.from_dense(dense)
    cfg = tuning.Configuration("bsr", {"block_shape": (8, 8)})
    assert as_format(coo, cfg).block_shape == (8, 8)


# -- campaigns over the joint space -------------------------------------


def test_tuned_campaign_bit_identical_across_workers(tmp_path):
    from repro.bench.campaign import run_campaign

    corpus = list(SyntheticCorpus(scale=0.005, seed=11, max_nnz=100_000))
    kw = dict(reps=4, seed=0, shard_dir=None)
    ds1 = run_campaign(corpus, KEPLER_K40C, "single", tuned=True,
                       workers=1, **kw).to_dataset()
    ds2 = run_campaign(corpus, KEPLER_K40C, "single", tuned=True,
                       workers=2, **kw).to_dataset()
    assert ds1.formats == ds2.formats == tuning.tuned_space()
    np.testing.assert_array_equal(ds1.times, ds2.times)
    np.testing.assert_array_equal(ds1.labels, ds2.labels)
    np.testing.assert_array_equal(ds1.feature_array, ds2.feature_array)


def test_tuned_campaign_default_columns_match_default_campaign():
    """Noise-free tuned campaigns nest the default campaign bit for bit.

    (With noise enabled the per-matrix jitter block is positional over
    the feasible formats — the long-standing scalar-sweep-compatible
    draw order — so widening the vocabulary shifts later columns'
    draws; the *models* underneath are still bit-identical, which is
    what this asserts.)
    """
    from repro.bench.campaign import run_campaign
    from repro.gpu import NoiseModel

    corpus = list(SyntheticCorpus(scale=0.005, seed=11, max_nnz=100_000))
    quiet = NoiseModel(0.0, 0.0)
    tuned_ds = run_campaign(corpus, KEPLER_K40C, "single", tuned=True,
                            noise=quiet, reps=4, seed=0,
                            workers=1).to_dataset()
    base_ds = run_campaign(corpus, KEPLER_K40C, "single", noise=quiet,
                           reps=4, seed=0, workers=1).to_dataset()
    base_rows = {name: row for name, row in zip(base_ds.names, base_ds.times)}
    cols = [tuned_ds.formats.index(f) for f in base_ds.formats]
    checked = 0
    for name, row in zip(tuned_ds.names, tuned_ds.times):
        # Matrices only the tuned campaign dropped (width-cap failures)
        # are absent from tuned_ds; every surviving one must agree.
        np.testing.assert_array_equal(row[cols], base_rows[name])
        checked += 1
    assert checked > 0


def test_tuned_vs_default_speedup_summary():
    times = np.array([
        [2.0, 1.0, 0.5],   # tuned config wins 2x
        [1.0, 2.0, 1.0],   # tie
    ])
    out = tuning.tuned_vs_default_speedup(times, ("csr", "coo", "csr?lanes=8"))
    assert out["n"] == 2
    assert out["max"] == pytest.approx(2.0)
    assert out["geomean"] == pytest.approx(math.sqrt(2.0))
    assert out["tuned_wins"] == pytest.approx(0.5)
