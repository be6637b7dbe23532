"""Bit-for-bit equivalence of the one-pass analyzer vs the frozen two-pass.

The unified :func:`repro.analysis.analyze_matrix` must reproduce the
historical back-to-back ``profile_matrix`` + ``extract_features``
results *exactly* — same floats to the last bit, not approximately —
because labels, digests and every downstream model are keyed off them.
The pre-refactor implementations are frozen in ``_analysis_oracle``
precisely to anchor this test.
"""

import dataclasses

import numpy as np
import pytest

from repro.analysis import MatrixAnalysis, analyze_matrix
from repro.features import ALL_FEATURES, extract_features
from repro.formats import COOMatrix
from repro.gpu import profile_matrix
from repro.matrices import SyntheticCorpus, banded, power_law, random_uniform

from _analysis_oracle import extract_features_two_pass, profile_matrix_two_pass


def _bits(x: float) -> bytes:
    return np.float64(x).tobytes()


def _assert_profiles_identical(p_new, p_old) -> None:
    for f in dataclasses.fields(p_old):
        a, b = getattr(p_new, f.name), getattr(p_old, f.name)
        if isinstance(b, float):
            assert _bits(a) == _bits(b), f"profile field {f.name}: {a!r} != {b!r}"
        else:
            assert a == b, f"profile field {f.name}: {a!r} != {b!r}"


def _assert_features_identical(f_new, f_old) -> None:
    assert list(f_new) == list(f_old)
    assert set(f_old) == set(ALL_FEATURES)
    for name in f_old:
        assert _bits(f_new[name]) == _bits(f_old[name]), (
            f"feature {name}: {f_new[name]!r} != {f_old[name]!r}"
        )


def _edge_cases():
    rng = np.random.default_rng(99)
    dense = (rng.random((12, 9)) < 0.3) * rng.standard_normal((12, 9))
    dense[3] = 0.0  # an all-zero row in the middle
    dense[7] = 0.0
    return {
        "empty": COOMatrix.empty((4, 4)),
        "zero_rows_shape": COOMatrix.empty((0, 5)),
        "single_row": COOMatrix.from_dense(np.ones((1, 7))),
        "single_col": COOMatrix.from_dense(np.ones((7, 1))),
        "single_entry": COOMatrix.from_dense(np.eye(1)),
        "with_empty_rows": COOMatrix.from_dense(dense),
        "all_rows_empty": COOMatrix.empty((6, 3)),
        "banded": banded(48, 48, bandwidth=3, fill=0.8, seed=1),
        "power_law": power_law(60, 50, nnz=400, seed=2),
        "uniform": random_uniform(40, 55, nnz=300, seed=3),
    }


@pytest.mark.parametrize("name", sorted(_edge_cases()))
def test_edge_case_bit_identical(name):
    matrix = _edge_cases()[name]
    analysis = analyze_matrix(matrix)
    _assert_profiles_identical(analysis.profile, profile_matrix_two_pass(matrix))
    _assert_features_identical(analysis.features, extract_features_two_pass(matrix))


def test_corpus_bit_identical():
    corpus = SyntheticCorpus(scale=0.005, seed=3, max_nnz=60_000)
    matrices = [entry.build() for entry in corpus]
    assert matrices, "corpus sample must not be empty"
    for matrix in matrices:
        analysis = analyze_matrix(matrix)
        _assert_profiles_identical(analysis.profile, profile_matrix_two_pass(matrix))
        _assert_features_identical(analysis.features, extract_features_two_pass(matrix))


def test_public_wrappers_delegate(small_coo):
    analysis = analyze_matrix(small_coo)
    assert profile_matrix(small_coo) == analysis.profile
    assert extract_features(small_coo) == analysis.features


def test_digest_matches_two_pass(small_coo):
    assert analyze_matrix(small_coo).profile.digest == (
        profile_matrix_two_pass(small_coo).digest
    )


def test_analysis_is_frozen(small_coo):
    analysis = analyze_matrix(small_coo)
    assert isinstance(analysis, MatrixAnalysis)
    with pytest.raises(dataclasses.FrozenInstanceError):
        analysis.features = {}
