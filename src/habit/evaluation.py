"""Retrieval recall and noise-detection metrics."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, LengthMismatch, MissingTarget
from .train import EncoderParams, _encode_batch


@dataclass
class RetrievalReport:
    recall_at: dict
    n_queries: int


@dataclass
class DetectionReport:
    precision: float
    recall: float
    f1: float
    auc: float


def pooled_queries(params: EncoderParams, refs, mods):
    x = np.concatenate([np.asarray(refs, float), np.asarray(mods, float)], axis=1)
    return _encode_batch(params.w_c, params.b_c, x, params.q_tokens, params.dim)[3]


def pooled_targets(params: EncoderParams, vecs):
    v = np.asarray(vecs, dtype=np.float64)
    return _encode_batch(params.w_t, params.b_t, v, params.q_tokens, params.dim)[3]


def rank_gallery(params: EncoderParams, refs, mods, gallery_vecs):
    """Gallery ids ranked by descending cosine to each query; stable tie order.

    numpy's default (SIMD) argsort may order ties any way, so the rows with a
    tie or a NaN among their sorted scores are sorted again, stably.
    """
    q = pooled_queries(params, refs, mods)
    neg = q @ -pooled_targets(params, gallery_vecs).T
    ranked = np.argsort(neg, axis=1)
    s = np.take_along_axis(neg, ranked, axis=1)
    redo = ~(s[:, 1:] > s[:, :-1]).all(axis=1)
    ranked[redo] = np.argsort(neg[redo], axis=1, kind="stable")
    return ranked


def recall_at_k(ranked_gallery_ids, true_target_ids, ks) -> RetrievalReport:
    """Fraction of queries whose true target appears in the top K."""
    ranked = np.asarray(ranked_gallery_ids)
    true_ids = np.asarray(true_target_ids)
    if ranked.shape[0] != true_ids.shape[0]:
        raise LengthMismatch("one ranked list per query required")
    hit = ranked == true_ids[:, None]
    if not hit.any(axis=1).all():
        i = int(np.argmin(hit.any(axis=1)))
        raise MissingTarget(f"query {i}: target {true_ids[i]} not in gallery list")
    positions = hit.argmax(axis=1)
    recall = {int(k): float(np.mean(positions < k)) for k in ks}
    return RetrievalReport(recall_at=recall, n_queries=ranked.shape[0])


def build_subsets(true_target_ids, n_gallery, seed, size=6):
    """Per-query candidate subsets: the true target plus seeded distractors."""
    if not 1 <= size <= n_gallery:
        raise ConfigError(f"subset size {size} must be between 1 and the gallery size {n_gallery}")
    rng = np.random.default_rng(seed)
    subsets = []
    for tid in true_target_ids:
        distractors = []
        while len(distractors) < size - 1:
            c = int(rng.integers(n_gallery))
            if c != tid and c not in distractors:
                distractors.append(c)
        subsets.append(np.array([int(tid)] + distractors))
    return subsets


def recall_subset(params, refs, mods, gallery_vecs, true_target_ids, subsets, ks=(1, 2, 3)):
    """R_sub@K over per-query restricted candidate lists."""
    q = pooled_queries(params, refs, mods)
    g = pooled_targets(params, np.asarray(gallery_vecs, float))
    out = {int(k): 0 for k in ks}
    for i, subset in enumerate(subsets):
        if int(true_target_ids[i]) not in set(int(s) for s in subset):
            raise MissingTarget(f"query {i}: target missing from its subset")
        scores = q[i] @ g[subset].T
        ranked = subset[np.argsort(-scores, kind="stable")]
        pos = int(np.flatnonzero(ranked == int(true_target_ids[i]))[0])
        for k in ks:
            if pos < k:
                out[int(k)] += 1
    n = len(subsets)
    return {k: v / n for k, v in out.items()}


def detection_metrics(mask, estimates, truth_labels) -> DetectionReport:
    """Precision/recall/F1 of mask flags plus pairwise AUC of (1 - estimate)."""
    m = np.asarray(mask, dtype=np.float64)
    e = np.asarray(estimates, dtype=np.float64)
    truth = np.asarray([t != "clean" for t in truth_labels], dtype=bool)
    if not (m.shape[0] == e.shape[0] == truth.shape[0]):
        raise LengthMismatch("mask/estimates/truth lengths disagree")
    flagged = m == 0.0
    tp = int(np.sum(flagged & truth))
    fp = int(np.sum(flagged & ~truth))
    fn = int(np.sum(~flagged & truth))
    precision = tp / (tp + fp) if (tp + fp) else 0.0
    recall = tp / (tp + fn) if (tp + fn) else 0.0
    f1 = 2 * precision * recall / (precision + recall) if (precision + recall) else 0.0

    # exact pairwise AUC of the score (1 - e), ties count one half
    scores = 1.0 - e
    pos = scores[truth]
    neg = scores[~truth]
    if pos.size and neg.size:
        diff = pos[:, None] - neg[None, :]
        auc = float((np.sum(diff > 0) + 0.5 * np.sum(diff == 0)) / (pos.size * neg.size))
    else:
        auc = 0.0
    return DetectionReport(precision=precision, recall=recall, f1=f1, auc=auc)
