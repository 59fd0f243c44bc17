"""Retrieval recall and noise-detection metrics."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError, LengthMismatch, MissingTarget
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
    return _encode_batch([(params.w_c, params.b_c, x)], params.q_tokens, params.dim)[3][0]


def pooled_targets(params: EncoderParams, vecs, rows=None):
    v = np.asarray(vecs, dtype=np.float64)
    return _encode_batch([(params.w_t, params.b_t, v)], params.q_tokens, params.dim, rows)[3][0]


def rank_gallery(params: EncoderParams, refs, mods, gallery_vecs):
    """Each query's ranking keys over the gallery: one (N, G) float64 matrix of
    negated cosines, `q @ -g.T`. A row's stable ascending order ranks the
    gallery by descending cosine, ties in gallery id order; `recall_at_k`
    counts each target's place in that order."""
    q = pooled_queries(params, refs, mods)
    return q @ -pooled_targets(params, gallery_vecs).T


def recall_at_k(keys, true_target_ids, ks) -> RetrievalReport:
    """Fraction of queries whose true target ranks in the top K of its key row.

    A target's rank is its place in its row's stable ascending order: the keys
    before its column that are at most its key, plus those from its column on
    that are below it. It is counted one row at a time, so no temporary is
    the size of the matrix. As numpy orders floats, a NaN key comes after
    every number, NaNs keep column order among themselves, and -0.0 ties
    with 0.0.
    """
    keys = np.asarray(keys)
    true_ids = np.asarray(true_target_ids)
    if not keys.shape[0] or keys.shape[0] != true_ids.shape[0]:
        raise LengthMismatch("one key row per query, and a query at least, required")
    _require_targets((true_ids >= 0) & (true_ids < keys.shape[1]), true_ids)
    ranks = np.array([_target_rank(row, t) for row, t in zip(keys, true_ids.tolist())])
    recall = {int(k): float(np.mean(ranks < k)) for k in ks}
    return RetrievalReport(recall_at=recall, n_queries=keys.shape[0])


def _require_targets(found, true_ids):
    if not found.all():
        i = int(np.argmin(found))
        raise MissingTarget(f"query {i}: target {true_ids[i]} not in gallery list")


def _target_rank(row, t):
    key = row[t]
    if key != key:  # a NaN: every number, and every NaN before column t, ranks ahead of it
        return row.size - np.count_nonzero(np.isnan(row[t:]))
    return np.count_nonzero(row[:t] <= key) + np.count_nonzero(row[t:] < key)


def build_subsets(true_target_ids, n_gallery, seed, size):
    """Per-query candidate subsets: the true target plus seeded distractors."""
    if not 1 <= size <= n_gallery:
        raise ConfigError(f"subset size {size} must be between 1 and the gallery size {n_gallery}")
    draws = _draws(np.random.default_rng(seed), n_gallery)
    subsets = []
    for tid in true_target_ids:
        distractors = {}  # insertion-ordered set of the accepted draws
        while len(distractors) < size - 1:
            c = next(draws)
            if c != tid:
                distractors[c] = None
        subsets.append(np.array([int(tid), *distractors]))
    return subsets


def _draws(rng, n):
    """The values of `int(rng.integers(n))` called again and again, drawn in blocks."""
    while True:
        yield from rng.integers(n, size=4096).tolist()


def recall_subset(params, refs, mods, gallery_vecs, true_target_ids, subsets, ks=(1, 2, 3)):
    """R_sub@K over per-query restricted candidate lists, all of one length, one
    per query (else LengthMismatch), each holding its query's target (else
    MissingTarget) and only gallery ids (else DomainError); ties rank in subset
    order. Only the gallery rows the subsets name are normalized and pooled,
    each with the bits of the full gallery's encoding."""
    true_ids = np.asarray(true_target_ids)
    if not len(subsets) or len(subsets) != len(true_ids) or len({len(s) for s in subsets}) > 1:
        raise LengthMismatch("one subset per query, all of one length, and a query at least required")
    subs = np.array(subsets)
    gal = np.asarray(gallery_vecs, float)
    bad = (subs < 0) | (subs >= gal.shape[0])
    if bad.any():
        i, j = np.argwhere(bad)[0]
        raise DomainError(f"query {i}: subset id {subs[i, j]} is not a gallery id 0..{gal.shape[0] - 1}")
    hit = subs == true_ids[:, None]
    _require_targets(hit.any(axis=1), true_ids)
    ids, inv = np.unique(subs, return_inverse=True)
    q = pooled_queries(params, refs, mods)
    g = pooled_targets(params, gal, ids)[inv.reshape(subs.shape)]
    scores = np.matmul(g, q[:, :, None])[:, :, 0]
    return recall_at_k(-scores, hit.argmax(axis=1), ks).recall_at


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

    # exact pairwise AUC of the score (1 - e), ties count one half. Each
    # positive counts the sorted negatives below and equal to it; as for
    # pos - neg, a pair with a NaN, or inf against inf, counts neither way
    scores = 1.0 - e
    pos = scores[truth]
    neg = np.sort(scores[~truth])
    if pos.size and neg.size:
        below = np.searchsorted(neg, pos, "left")
        equal = np.searchsorted(neg, pos, "right") - below
        below[np.isnan(pos)] = 0
        equal[~np.isfinite(pos)] = 0
        auc = float((np.sum(below) + 0.5 * np.sum(equal)) / (pos.size * neg.size))
    else:
        auc = 0.0
    return DetectionReport(precision=precision, recall=recall, f1=f1, auc=auc)
