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


def row_softmax_parts(sim, tau: float):
    """(z, e, sums) of the softmax of ``sim / tau`` over the last axis: z is
    ``sim / tau`` minus each row's max, e = exp(z), and ``e / sums`` the softmax."""
    z = np.asarray(sim, dtype=np.float64) / tau
    z -= z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return z, e, e.sum(axis=-1, keepdims=True)


def select_standard(sim, tau: float, parts=None) -> np.integer | np.ndarray:
    """Index of the batch row with the lowest diagonal InfoNCE loss.

    Ties break to the lowest index. A (..., B, B) stack gives each batch's own.
    `parts` is `row_softmax_parts(sim, tau)` when the caller already has it.
    """
    z, _, sums = row_softmax_parts(sim, tau) if parts is None else parts
    losses = -(np.diagonal(z, axis1=-2, axis2=-1) - np.log(sums[..., 0]))
    return np.argmin(losses, axis=-1)


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
    standard_index: int | np.ndarray | None = None,
    use_transition_rate: bool = True,
) -> np.ndarray:
    """Cleanliness estimates for a batch, or for a stack of batches.

    `composed` and `targets` are (..., B, Q, D) token stacks and `sim` the
    (..., B, B) similarities; each batch of a stack gets the bits of its
    own call. The standard sample is picked by `select_standard` unless
    `standard_index`, an int or one per batch, overrides it (random-standard
    ablation). With `use_transition_rate=False` the raw |MK_std - MK|
    differences replace the transition rates (ablation D#2-style).
    """
    c = np.asarray(composed, dtype=np.float64)
    t = np.asarray(targets, dtype=np.float64)
    if c.ndim < 3 or c.shape[:-2] != t.shape[:-2] or c.shape[-1] != t.shape[-1]:
        raise DimensionMismatch(f"composed {c.shape} and target {t.shape} stacks disagree")
    b = c.shape[-3]
    s = select_standard(sim, tau) if standard_index is None else standard_index
    # the standard of each batch: c[at] is (..., Q, D), mk[at] is (...)
    at = np.ix_(*map(np.arange, c.shape[:-3])) + (s,)
    # pair slots [c_i, t_i] | [c_i, t_s] | [c_s, t_i], i = 0..B-1, filled in place (Qc may differ from Qt)
    lead = c.shape[:-3]
    left = np.empty(lead + (3, b) + c.shape[-2:])
    left[..., :2, :, :, :] = c[..., None, :, :, :]
    left[..., 2, :, :, :] = c[at][..., None, :, :]
    right = np.empty(lead + (3, b) + t.shape[-2:])
    right[..., ::2, :, :, :] = t[..., None, :, :, :]
    right[..., 1, :, :, :] = t[at][..., None, :, :]
    left, right = (x.reshape(lead + (3 * b,) + x.shape[-2:]) for x in (left, right))
    mk = mutual_knowledge_core(left, right, tau_mk)
    mk_std = mk[at][..., None]
    drift = np.abs(mk_std - mk)
    if use_transition_rate:
        drift /= np.maximum(mk_std, TR_DENOM_EPS)
    d_ct, d_c, d_t = drift[..., :b], drift[..., b : 2 * b], drift[..., 2 * b :]
    return 1.0 / (1.0 + d_ct + np.abs(d_c - d_t))
