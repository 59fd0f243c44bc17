"""Noise masking, the three masked training losses and their gradients.

The chrono mask zeroes samples flagged as DBSCAN outliers in both the
current and previous pass over the same batch; the losses (KL
consistency, soft margin, robust contrastive) honor that mask. Each loss
is one private term that runs its forward pass once and returns
(value, gradient with respect to the similarity matrix); the public loss
returns the term's value.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateBatch, DimensionMismatch, DomainError
from .kernels import dbscan_noise_flags
from .mke import row_softmax_parts


@dataclass
class BatchMemory:
    """Previous-pass cache for one fixed batch."""

    prev_similarity: np.ndarray | None = None
    prev_estimates: np.ndarray | None = None
    prev_outliers: frozenset = None
    prev_mask: np.ndarray | None = None


@dataclass
class LossBreakdown:
    rank: float
    kl: float
    soft: float
    total: float


def dbscan_1d(values, eps: float, min_pts: int) -> frozenset:
    """Noise-point indices of textbook DBSCAN over 1-D values."""
    flags = dbscan_noise_flags(np.asarray(values, dtype=np.float64), eps, min_pts)
    return frozenset(np.flatnonzero(flags).tolist())


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
    _, e, sums = row_softmax_parts(s, tau)
    e /= sums
    return e


def _kl_term(p_now, s_prev, m_now, m_prev, tau):
    """KL consistency and its gradient w.r.t. s_now, from p_now = `_row_softmax(s_now, tau)`
    (row-wise, so its kept rows are their own softmax's bits); s_prev is a constant."""
    keep = (m_now > 0) & (m_prev > 0)
    n_keep = int(keep.sum())
    g = np.zeros_like(p_now)
    if n_keep == 0:
        return 0.0, g
    p = p_now[keep]
    log_ratio = np.log(p) - np.log(_row_softmax(s_prev[keep], tau))
    kl_rows = np.sum(p * log_ratio, axis=1)
    g[keep] = p * (log_ratio - kl_rows[:, None]) / (tau * n_keep)
    return float(kl_rows.sum() / n_keep), g  # np.mean's sum and division


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
    return _kl_term(_row_softmax(s_now, tau), s_prev, m_now, m_prev, tau)[0]


def dynamic_margin(e, m_base: float):
    """Margin m_base * (10^e - 1) / 9, growing with estimated cleanliness.

    `e` is a scalar or an array; every element must lie in [0, 1].
    """
    e = np.asarray(e, dtype=np.float64)
    bad = ~((e >= 0.0) & (e <= 1.0))
    if bad.any():
        raise DomainError(f"estimate {e[bad].flat[0]} outside [0, 1]")
    return m_base * (10.0**e - 1.0) / 9.0


def _soft_term(sim, estimates, mask, m_base):
    """Soft margin loss and its subgradient w.r.t. sim.

    Row i's hinge is max(0, dynamic_margin(e_i) + max_{j != i} s_ij - s_ii),
    and 0 where mask_i == 0. Ties for the hardest negative break to the
    lowest column; with B = 1 there is no negative and the hinge is 0.
    """
    b = sim.shape[0]
    rows = np.arange(b)
    neg = sim.copy()
    neg[rows, rows] = -np.inf
    j = neg.argmax(axis=1)
    hinge = dynamic_margin(estimates, m_base) + neg[rows, j] - sim[rows, rows]
    hinge = np.where(mask == 0.0, 0.0, np.maximum(hinge, 0.0))
    active = np.flatnonzero(hinge > 0.0)
    g = np.zeros_like(sim)
    g[active, j[active]] = 1.0 / b
    g[active, active] = -1.0 / b
    return float(hinge.sum() / b), g


def soft_margin_loss(sim, estimates, mask, m_base: float) -> float:
    """Masked hinge on the hardest negative with a cleanliness-dependent margin."""
    s = np.asarray(sim, dtype=np.float64)
    e = np.asarray(estimates, dtype=np.float64)
    m = np.asarray(mask, dtype=np.float64)
    b = s.shape[0]
    if s.shape != (b, b) or e.shape[0] != b or m.shape[0] != b:
        raise DimensionMismatch("similarity/estimate/mask shapes disagree")
    return _soft_term(s, e, m, m_base)[0]


def _rank_term(p, mask, tau):
    """Robust contrastive loss and its gradient w.r.t. sim, from p = `_row_softmax(sim, tau)`."""
    b = p.shape[0]
    off = ~np.eye(b, dtype=bool)
    per_row = -np.log1p(-p[off].reshape(b, b - 1)).sum(axis=1) / (b - 1)
    ratio = np.where(off, p / (1.0 - p), 0.0)
    g = (ratio - p * ratio.sum(axis=1)[:, None]) / (tau * (b - 1))
    return float((mask * per_row).sum() / b), g * (mask[:, None] / b)


def robust_contrastive_loss(sim, mask, tau: float) -> float:
    """Masked complementary contrastive loss: mean -log(1 - p_bj) over negatives."""
    s = np.asarray(sim, dtype=np.float64)
    m = np.asarray(mask, dtype=np.float64)
    b = s.shape[0]
    if b < 2:
        raise DegenerateBatch("robust contrastive loss needs B >= 2")
    if s.shape != (b, b) or m.shape[0] != b:
        raise DimensionMismatch("similarity/mask shapes disagree")
    return _rank_term(_row_softmax(s, tau), m, tau)[0]


def total_objective(rank, kl, soft, kappa, gamma) -> LossBreakdown:
    """Combine the three components: total = rank + kappa*kl + gamma*soft."""
    rank, kl, soft = float(rank), float(kl), float(soft)
    return LossBreakdown(rank, kl, soft, rank + float(kappa) * kl + float(gamma) * soft)
