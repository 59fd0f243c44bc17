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
    """Gallery ids ranked by descending cosine to each query; stable tie order.

    Equal to `np.argsort(-scores, axis=1, kind="stable")`, computed with one
    float64 value sort per row instead of an argsort. Each row's key is the
    negated score with its low b mantissa bits replaced by the gallery id,
    b = max(1, (G - 1).bit_length()), so the sorted keys carry the ranked ids
    in their low bits. Dropping those bits (truncating toward zero) keeps
    score order on both signs but can make close scores equal. A row whose
    truncated keys are all distinct, and whose sorted keys are finite at both
    ends, is in strict score order, which is the stable one. A row is
    argsorted again, stably, when two adjacent truncated keys are equal
    (0.0 and -0.0 among them) or when an end key is not finite: an infinity
    or a NaN in the row, which its id bits can turn into the other one.
    The ranking overwrites the scores: 8 bytes a scored pair, one matrix.
    """
    q = pooled_queries(params, refs, mods)
    return _rank_rows(q @ -pooled_targets(params, gallery_vecs).T)


_BLOCK_BYTES = 320_000  # keys sorted at a time (a row at least): a block and its copy stay in L2


def _rank_rows(neg):
    """`np.argsort(neg, axis=1, kind="stable")` by `rank_gallery`'s float keys,
    written over the float64 `neg`, which it consumes, and returned as its intp view."""
    n, g = neg.shape
    low = (1 << max(1, (g - 1).bit_length())) - 1
    ids = np.arange(g)
    block = max(1, _BLOCK_BYTES // (8 * max(g, 1)))
    for lo in range(0, n, block):
        x = neg[lo:lo + block]
        orig, k = x.copy(), x.view(np.int64)
        k &= ~low
        k |= ids
        x.sort(axis=1)
        top = (k & ~low).view(np.float64)
        redo = (top[:, 1:] == top[:, :-1]).any(axis=1) | ~np.isfinite(x[:, 0]) | ~np.isfinite(x[:, -1])
        k &= low
        for row in np.flatnonzero(redo):
            k[row] = np.argsort(orig[row], kind="stable")
    return neg.view(np.intp)


def recall_at_k(ranked_gallery_ids, true_target_ids, ks) -> RetrievalReport:
    """Fraction of queries whose true target appears in the top K.

    A query's position is the first column holding its target. Column blocks, each twice
    as wide as the last, are scanned over the queries not yet found, until all are.
    """
    ranked = np.asarray(ranked_gallery_ids)
    true_ids = np.asarray(true_target_ids)
    if not ranked.shape[0] or ranked.shape[0] != true_ids.shape[0]:
        raise LengthMismatch("one ranked list per query, and a query at least, required")
    positions = np.zeros(ranked.shape[0], dtype=np.intp)
    todo = np.arange(ranked.shape[0])  # ascending: todo[0] is the first missing query
    lo, width = 0, 64  # the first block's columns
    while todo.size and lo < ranked.shape[1]:
        hit = ranked[todo, lo : lo + width] == true_ids[todo, None]
        first = hit.argmax(axis=1)  # a row's first hit, or 0 in a row with none
        found = hit[np.arange(todo.size), first]
        positions[todo[found]] = lo + first[found]
        todo = todo[~found]
        lo, width = lo + width, 2 * width
    if todo.size:
        i = int(todo[0])
        raise MissingTarget(f"query {i}: target {true_ids[i]} not in gallery list")
    recall = {int(k): float(np.mean(positions < k)) for k in ks}
    return RetrievalReport(recall_at=recall, n_queries=ranked.shape[0])


def build_subsets(true_target_ids, n_gallery, seed, size=6):
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
    `recall_at_k`'s MissingTarget) and only gallery ids (else DomainError); ties
    rank in subset order. Only the gallery rows the subsets name are normalized
    and pooled, each with the bits of the full gallery's encoding."""
    true_ids = np.asarray(true_target_ids)
    if not len(subsets) or len(subsets) != len(true_ids) or len({len(s) for s in subsets}) > 1:
        raise LengthMismatch("one subset per query, all of one length, and a query at least required")
    subs = np.array(subsets)
    gal = np.asarray(gallery_vecs, float)
    bad = (subs < 0) | (subs >= gal.shape[0])
    if bad.any():
        i, j = np.argwhere(bad)[0]
        raise DomainError(f"query {i}: subset id {subs[i, j]} is not a gallery id 0..{gal.shape[0] - 1}")
    ids, inv = np.unique(subs, return_inverse=True)
    q = pooled_queries(params, refs, mods)
    g = pooled_targets(params, gal, ids)[inv.reshape(subs.shape)]
    scores = np.matmul(g, q[:, :, None])[:, :, 0]
    ranked = np.take_along_axis(subs, np.argsort(-scores, axis=1, kind="stable"), axis=1)
    return recall_at_k(ranked, true_ids, ks).recall_at


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
