import numpy as np
import pytest

from habit import features
from habit.errors import DimensionMismatch, ZeroRow


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

