"""Mutual-knowledge cleanliness estimation.

Per-sample cleanliness in (0, 1] is derived from how far a sample's
token-level mutual information drifts from the batch's standard sample
(the one with the lowest unmasked retrieval loss). The MK kernel is bitwise
symmetric, ``mutual_knowledge_core(a, b) == mutual_knowledge_core(b, a)``, so
the standard sample's cleanliness is exactly 1.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch
from .kernels import mutual_knowledge_core

TR_DENOM_EPS = 1e-8


def mutual_knowledge(f_c, f_t, tau_mk: float) -> float:
    """Mutual information of the induced token joint against its marginals.

    MI is symmetric, and so is this function, bitwise:
    ``mutual_knowledge(a, b) == mutual_knowledge(b, a)`` exactly.
    """
    f_c = np.asarray(f_c, dtype=np.float64)
    f_t = np.asarray(f_t, dtype=np.float64)
    if f_c.ndim != 2 or f_t.ndim != 2 or f_c.shape[1] != f_t.shape[1]:
        raise DimensionMismatch(
            f"token matrices disagree on D: {f_c.shape} vs {f_t.shape}"
        )
    return float(mutual_knowledge_core(f_c, f_t, tau_mk))


def select_standard(sim, tau: float) -> int:
    """Index of the batch row with the lowest diagonal InfoNCE loss.

    Ties break to the lowest index for reproducibility.
    """
    s = np.asarray(sim, dtype=np.float64) / tau
    s = s - s.max(axis=1, keepdims=True)
    log_probs = s - np.log(np.exp(s).sum(axis=1, keepdims=True))
    losses = -np.diagonal(log_probs)
    return int(np.argmin(losses))


def transition_rate(mk_standard: float, mk_sample: float) -> float:
    """Relative drift of a sample's mutual knowledge from the standard's."""
    return abs(mk_standard - mk_sample) / max(mk_standard, TR_DENOM_EPS)


def cleanliness(f_c, f_t, f_c_std, f_t_std, tau_mk: float) -> float:
    """Cleanliness in (0, 1]: 1 / (1 + TR(c,t) + |TR(c,t_std) - TR(t,c_std)|).

    The standard sample scores exactly ``1.0``: every rate is zero because
    `mutual_knowledge` is bitwise symmetric.
    """
    mk_std = mutual_knowledge(f_c_std, f_t_std, tau_mk)
    tr_ct = transition_rate(mk_std, mutual_knowledge(f_c, f_t, tau_mk))
    tr_c = transition_rate(mk_std, mutual_knowledge(f_c, f_t_std, tau_mk))
    tr_t = transition_rate(mk_std, mutual_knowledge(f_t, f_c_std, tau_mk))
    return 1.0 / (1.0 + tr_ct + abs(tr_c - tr_t))


def estimate_batch(
    composed,
    targets,
    sim,
    tau: float,
    tau_mk: float,
    standard_index: int | None = None,
    use_transition_rate: bool = True,
) -> np.ndarray:
    """Cleanliness estimates for a whole batch.

    The standard sample is picked by `select_standard` unless
    `standard_index` overrides it (random-standard ablation). With
    `use_transition_rate=False` the raw |MK_std - MK| differences replace
    the transition rates (ablation D#2-style).
    """
    c = np.asarray(composed, dtype=np.float64)
    t = np.asarray(targets, dtype=np.float64)
    if c.ndim != 3 or t.ndim != 3 or c.shape[0] != t.shape[0] or c.shape[2] != t.shape[2]:
        raise DimensionMismatch(f"composed {c.shape} and target {t.shape} stacks disagree")
    b = c.shape[0]
    s = select_standard(sim, tau) if standard_index is None else int(standard_index)
    # pair slots: [c_i, t_i] | [c_i, t_s] | [c_s, t_i], for i = 0..B-1
    left = np.concatenate([c, c, np.broadcast_to(c[s], c.shape)])
    right = np.concatenate([t, np.broadcast_to(t[s], t.shape), t])
    mk = mutual_knowledge_core(left, right, tau_mk)
    mk_std = mk[s]
    drift = np.abs(mk_std - mk)
    if use_transition_rate:
        drift /= max(mk_std, TR_DENOM_EPS)
    d_ct, d_c, d_t = drift[:b], drift[b : 2 * b], drift[2 * b :]
    return 1.0 / (1.0 + d_ct + np.abs(d_c - d_t))
