"""Noise masking and the three masked training losses.

The chrono mask zeroes samples flagged as DBSCAN outliers in both the
current and previous pass over the same batch; the losses (KL
consistency, soft margin, robust contrastive) honor that mask.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateBatch, DimensionMismatch, DomainError
from .kernels import dbscan_noise_flags


@dataclass
class BatchMemory:
    """Previous-pass cache for one fixed batch (keyed by batch_id)."""

    batch_id: int
    prev_similarity: np.ndarray | None = None
    prev_estimates: np.ndarray | None = None
    prev_outliers: frozenset = None
    prev_mask: np.ndarray | None = None


@dataclass
class LossBreakdown:
    rank: float
    kl: float
    soft: float
    kappa: float
    gamma: float
    total: float = field(init=False)

    def __post_init__(self):
        self.total = self.rank + self.kappa * self.kl + self.gamma * self.soft


def dbscan_1d(values, eps: float, min_pts: int) -> frozenset:
    """Noise-point indices of textbook DBSCAN over 1-D values."""
    v = np.ascontiguousarray(values, dtype=np.float64)
    flags = dbscan_noise_flags(v, float(eps), int(min_pts))
    return frozenset(int(i) for i in np.flatnonzero(flags))


def chrono_mask(current, previous, b: int) -> np.ndarray:
    """Binary mask, 0 only where a sample is an outlier now AND previously.

    `previous=None` (first pass over the batch) yields an all-ones mask.
    """
    mask = np.ones(b)
    if previous is None:
        return mask
    for i in set(current) & set(previous):
        mask[i] = 0.0
    return mask


def _row_softmax(s, tau):
    z = s / tau
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def kl_consistency(sim_now, sim_prev, mask_now, mask_prev, tau: float) -> float:
    """Mean KL(softmax(now_b/tau) || softmax(prev_b/tau)) over rows kept by both masks."""
    s_now = np.asarray(sim_now, dtype=np.float64)
    s_prev = np.asarray(sim_prev, dtype=np.float64)
    m_now = np.asarray(mask_now, dtype=np.float64)
    m_prev = np.asarray(mask_prev, dtype=np.float64)
    if s_now.shape != s_prev.shape or s_now.shape[0] != m_now.shape[0]:
        raise DimensionMismatch("similarity/mask shapes disagree")
    if m_now.shape != m_prev.shape:
        raise DimensionMismatch("mask lengths disagree")
    keep = (m_now > 0) & (m_prev > 0)
    if not np.any(keep):
        return 0.0
    p = _row_softmax(s_now[keep], tau)
    q = _row_softmax(s_prev[keep], tau)
    return float(np.mean(np.sum(p * (np.log(p) - np.log(q)), axis=1)))


def dynamic_margin(e: float, m_base: float) -> float:
    """Margin m_base * (10^e - 1) / 9, growing with estimated cleanliness."""
    if not 0.0 <= e <= 1.0:
        raise DomainError(f"estimate {e} outside [0, 1]")
    return m_base * (10.0**e - 1.0) / 9.0


def soft_margin_loss(sim, estimates, mask, m_base: float) -> float:
    """Masked hinge on the hardest negative with a cleanliness-dependent margin."""
    s = np.asarray(sim, dtype=np.float64)
    e = np.asarray(estimates, dtype=np.float64)
    m = np.asarray(mask, dtype=np.float64)
    b = s.shape[0]
    if s.shape != (b, b) or e.shape[0] != b or m.shape[0] != b:
        raise DimensionMismatch("similarity/estimate/mask shapes disagree")
    if b == 1:
        return 0.0
    total = 0.0
    for i in range(b):
        if m[i] == 0.0:
            continue
        neg = np.delete(s[i], i)
        hinge = dynamic_margin(e[i], m_base) + neg.max() - s[i, i]
        if hinge > 0.0:
            total += hinge
    return total / b


def robust_contrastive_loss(sim, mask, tau: float) -> float:
    """Masked complementary contrastive loss: mean -log(1 - p_bj) over negatives."""
    s = np.asarray(sim, dtype=np.float64)
    m = np.asarray(mask, dtype=np.float64)
    b = s.shape[0]
    if b < 2:
        raise DegenerateBatch("robust contrastive loss needs B >= 2")
    if s.shape != (b, b) or m.shape[0] != b:
        raise DimensionMismatch("similarity/mask shapes disagree")
    p = _row_softmax(s, tau)
    off = ~np.eye(b, dtype=bool)
    per_row = -np.log1p(-p[off].reshape(b, b - 1)).sum(axis=1) / (b - 1)
    return float((m * per_row).sum() / b)


def total_objective(rank, kl, soft, kappa, gamma) -> LossBreakdown:
    """Combine the three components: total = rank + kappa*kl + gamma*soft."""
    return LossBreakdown(
        rank=float(rank), kl=float(kl), soft=float(soft),
        kappa=float(kappa), gamma=float(gamma),
    )
