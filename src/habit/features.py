"""Token-matrix primitives.

Token feature matrices are plain float64 arrays of shape (Q, D) with unit
L2 rows. Batch encoding and mean pooling live in `train._encode_batch`,
the one encoder of train, eval and detect; a similarity matrix is the
product of its pooled outputs. Everything here is pure and thread-safe.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, ZeroRow

ROW_NORM_EPS = 1e-12


def normalize_rows(m) -> np.ndarray:
    """Scale every row of a Q x D matrix to unit L2 norm."""
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2:
        raise DimensionMismatch(f"expected a 2-D matrix, got ndim={m.ndim}")
    norms = np.sqrt(np.einsum("ij,ij->i", m, m))
    if np.any(norms < ROW_NORM_EPS):
        bad = int(np.argmin(norms))
        raise ZeroRow(f"row {bad} has norm {norms[bad]:.3e} < {ROW_NORM_EPS}")
    return m / norms[:, None]
