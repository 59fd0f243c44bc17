import numpy as np
import pytest

from habit import features
from habit.errors import DimensionMismatch, ZeroRow
from habit.train import _encode_batch


def test_normalize_rows_345_triangle():
    out = features.normalize_rows([[3.0, 4.0]])
    np.testing.assert_allclose(out, [[0.6, 0.8]], atol=1e-15)


def test_normalize_rows_unit_row_unchanged():
    row = np.array([[1.0 / np.sqrt(2), 1.0 / np.sqrt(2)]])
    out = features.normalize_rows(row)
    np.testing.assert_allclose(out, row, atol=1e-12)


def test_normalize_rows_against_per_row_oracle():
    rng = np.random.default_rng(42)
    m = rng.standard_normal((4, 8))
    out = features.normalize_rows(m)
    for i in range(4):
        assert abs(np.sqrt(sum(x * x for x in out[i])) - 1.0) < 1e-9
        np.testing.assert_allclose(out[i], m[i] / np.linalg.norm(m[i]), atol=1e-12)


def test_normalize_rows_zero_row_raises():
    with pytest.raises(ZeroRow):
        features.normalize_rows([[1.0, 0.0], [0.0, 0.0]])


@pytest.mark.parametrize("shape", [(4,), (2, 2, 2)])
def test_normalize_rows_needs_a_matrix(shape):
    with pytest.raises(DimensionMismatch, match=f"ndim={len(shape)}"):
        features.normalize_rows(np.ones(shape))


def pool(f):
    """Mean-then-normalize pooling of unit token rows f (Q, D), through the one encoder.

    An identity encoder (w = I, b = 0) passes the tokens through unchanged, so the
    pooled output is the pooling step alone.
    """
    q, d = f.shape
    _, _, _, (pooled,) = _encode_batch([(np.eye(q * d), np.zeros(q * d), f.reshape(1, q * d))], q, d)
    return pooled[0]


def test_pool_single_row_identity():
    f = features.normalize_rows([[2.0, 1.0, 2.0]])
    np.testing.assert_allclose(pool(f), f[0], atol=1e-15)


def test_pool_matches_mean_then_normalize():
    rng = np.random.default_rng(7)
    f = features.normalize_rows(rng.standard_normal((4, 8)))
    v = sum(f[i] for i in range(4)) / 4.0
    np.testing.assert_allclose(pool(f), v / np.linalg.norm(v), atol=1e-12)


def test_similarity_dimension_mismatch():
    # queries of width 4 against an encoder built for width 3
    with pytest.raises(DimensionMismatch):
        _encode_batch([(np.ones((2, 3)), np.zeros(2), np.ones((2, 4)))], 1, 2)
