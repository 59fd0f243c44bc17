import hashlib
import tracemalloc

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from habit import evaluation, synth, train as T
from habit.errors import DomainError, LengthMismatch, MissingTarget


def keys_of(ranked):
    """A key matrix whose stable ascending order lists each row's ids in `ranked`
    order (`keys[i, ranked[i]] = arange(L)`), then the ids a row does not list."""
    ranked = np.asarray(ranked)
    n, length = ranked.shape
    keys = np.full((n, max(length, int(ranked.max(initial=-1)) + 1)), float(length))
    keys[np.arange(n)[:, None], ranked] = np.arange(length)
    return keys


def test_recall_perfect_ranking():
    ranked = np.array([[3, 1, 2], [0, 2, 1]])
    report = evaluation.recall_at_k(keys_of(ranked), [3, 0], [1, 2])
    assert report.recall_at == {1: 1.0, 2: 1.0}


def test_recall_adversarial_ranking():
    keys = keys_of(np.tile(np.arange(100), (5, 1)))
    report = evaluation.recall_at_k(keys, [99] * 5, [50])
    assert report.recall_at[50] == 0.0
    assert evaluation.recall_at_k(keys, [99] * 5, [100]).recall_at[100] == 1.0


def test_recall_matches_counting_oracle():
    rng = np.random.default_rng(0)
    n_queries, n_gallery = 200, 40
    scores = rng.standard_normal((n_queries, n_gallery))
    ranked = np.argsort(-scores, axis=1, kind="stable")
    true_ids = rng.integers(0, n_gallery, size=n_queries)
    ks = [1, 5, 10, 40]
    report = evaluation.recall_at_k(keys_of(ranked), true_ids, ks)
    for k in ks:
        hits = sum(
            1 for i in range(n_queries) if true_ids[i] in set(ranked[i][:k].tolist())
        )
        assert report.recall_at[k] == hits / n_queries
    # monotone in K, full-gallery recall is 1
    vals = [report.recall_at[k] for k in ks]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    assert report.recall_at[40] == 1.0


def test_recall_missing_target():
    with pytest.raises(MissingTarget):
        evaluation.recall_at_k(keys_of([[0, 1]]), [5], [1])
    # the error names the first query whose target is missing, not query 0
    ranked = np.array([[0, 1, 2], [2, 1, 0], [1, 2, 0], [0, 2, 1]])
    with pytest.raises(MissingTarget, match="query 1: target 7 "):
        evaluation.recall_at_k(keys_of(ranked), [2, 7, 1, 9], [1])


def late_targets(n_queries=400, n_gallery=3000, seed=0):
    # each row a permutation; targets drawn at every depth
    rng = np.random.default_rng(seed)
    ranked = np.argsort(rng.random((n_queries, n_gallery)), axis=1)
    depth = rng.integers(0, n_gallery, size=n_queries)
    return ranked, ranked[np.arange(n_queries), depth]


def test_recall_missing_target_in_late_row():
    ranked, true_ids = late_targets()
    true_ids[[350, 399]] = -1  # no gallery id; 350 is the first such query
    with pytest.raises(MissingTarget) as got:
        evaluation.recall_at_k(keys_of(ranked), true_ids, (1,))
    assert str(got.value) == "query 350: target -1 not in gallery list"


def test_recall_empty_lists():
    with pytest.raises(MissingTarget, match="query 0: target 3 "):
        evaluation.recall_at_k(keys_of(np.zeros((2, 0), dtype=int)), [3, 4], (1,))
    # no queries at all: there is no recall to average
    with pytest.raises(LengthMismatch, match="a query at least"):
        evaluation.recall_at_k(keys_of(np.zeros((0, 5), dtype=int)), [], (1,))


def make_model(seed=0):
    params = T.init_params(8, 2, 6, seed)
    cfg = synth.GenConfig(
        n_triplets=30, n_gallery=40, d_in=8, n_attrs=4, sigma=0.0,
        partial_fraction=0.5, unmentioned_noise_std=0.05, seed=seed,
    )
    records, gallery = synth.generate(cfg)
    refs = np.stack([r.ref_vec for r in records])
    mods = np.stack([r.mod_vec for r in records])
    gal = np.stack([g.vec for g in gallery])
    true_ids = [r.target_id for r in records]
    return params, refs, mods, gal, true_ids


def test_recall_subset_size_one_forced_hit():
    params, refs, mods, gal, true_ids = make_model()
    subsets = [np.array([t]) for t in true_ids]
    out = evaluation.recall_subset(params, refs, mods, gal, true_ids, subsets)
    assert out == {1: 1.0, 2: 1.0, 3: 1.0}


def test_recall_subset_matches_counting_oracle():
    params, refs, mods, gal, true_ids = make_model(1)
    subsets = evaluation.build_subsets(true_ids, gal.shape[0], seed=3, size=6)
    out = evaluation.recall_subset(params, refs, mods, gal, true_ids, subsets)
    q = evaluation.pooled_queries(params, refs, mods)
    g = evaluation.pooled_targets(params, gal)
    for k in (1, 2, 3):
        hits = 0
        for i, subset in enumerate(subsets):
            scores = [(float(q[i] @ g[j]), pos) for pos, j in enumerate(subset)]
            ranked = [subset[pos] for _, pos in sorted(scores, key=lambda t: (-t[0], t[1]))]
            if true_ids[i] in ranked[:k]:
                hits += 1
        assert out[k] == hits / len(subsets)


def test_recall_subset_missing_target():
    params, refs, mods, gal, true_ids = make_model(2)
    subsets = [np.array([(t + 1) % gal.shape[0]]) for t in true_ids]
    with pytest.raises(MissingTarget):
        evaluation.recall_subset(params, refs, mods, gal, true_ids, subsets)


@pytest.mark.parametrize("n_subsets, lengths", [
    (31, [6] * 31),  # more subsets than queries
    (29, [6] * 29),  # fewer subsets than queries
    (0, []),  # no query at all
    (30, [6] * 29 + [5]),  # subsets of two lengths
])
def test_recall_subset_length_mismatch(n_subsets, lengths):
    params, refs, mods, gal, true_ids = make_model(4)
    subsets = [np.array([true_ids[i % 30], *range(1, n)]) for i, n in zip(range(n_subsets), lengths)]
    ids = [] if n_subsets == 0 else true_ids
    with pytest.raises(LengthMismatch):
        evaluation.recall_subset(params, refs, mods, gal, ids, subsets)


def test_recall_subset_ties_rank_in_subset_order():
    # a distractor that scores exactly the target's score ranks ahead of the
    # target when it comes first in the subset, and behind it otherwise
    params, refs, mods, gal, true_ids = make_model(5)
    t0, t1 = true_ids[0], true_ids[1]
    twin = next(j for j in range(gal.shape[0]) if j not in (t0, t1))
    gal[twin] = gal[t0]
    subsets = [np.array([twin, t0]), np.array([t1, twin])] + [np.array([t, twin]) for t in true_ids[2:]]
    out = evaluation.recall_subset(params, refs, mods, gal, true_ids, subsets, ks=(1, 2))
    q = evaluation.pooled_queries(params, refs, mods)
    g = evaluation.pooled_targets(params, gal)
    assert g[twin].tobytes() == g[t0].tobytes()
    later = sum(float(q[i] @ g[true_ids[i]]) < float(q[i] @ g[twin]) for i in range(1, len(true_ids)))
    assert out == {1: (len(true_ids) - 1 - later) / len(true_ids), 2: 1.0}


# target widths 32 and 16 at Q*D 64, subsets naming 1 to 18 distinct rows (where a
# product over only those rows would round apart from the gallery's), and G 1 to 40
@pytest.mark.parametrize("d_in, g, n, size", [
    (32, 40, 3, 6), (32, 40, 1, 6), (32, 19, 2, 5), (32, 2, 4, 2), (32, 1, 3, 1),
    (16, 40, 5, 1), (16, 40, 1, 1), (16, 7, 2, 3), (16, 1, 1, 1),
])
def test_recall_subset_scores_equal_full_gallery_formula(monkeypatch, d_in, g, n, size):
    rng = np.random.default_rng(g * n + size)
    params = T.init_params(d_in, 4, 16, seed=g)
    refs, mods, gal = (rng.standard_normal((k, d_in)) for k in (n, n, g))
    subs = np.stack([rng.choice(g, size=size, replace=False) for _ in range(n)])
    if n > 1 and size == 1:
        subs[:] = subs[0]  # one subset row for every query
    q = evaluation.pooled_queries(params, refs, mods)
    full = evaluation.pooled_targets(params, gal)
    scores = np.matmul(full[subs], q[:, :, None])[:, :, 0]  # the formula before subset rows
    seen = []  # what recall_subset encodes and counts

    def spy(name):
        fn = getattr(evaluation, name)
        monkeypatch.setattr(evaluation, name, lambda *a: seen.append((name, a, fn(*a))) or seen[-1][2])

    spy("pooled_targets")
    spy("recall_at_k")
    where = rng.integers(size, size=n)  # each query's target column
    evaluation.recall_subset(params, refs, mods, gal, subs[np.arange(n), where], list(subs))
    (_, (_, _, ids), pooled), (_, (keys, cols, _), _) = seen
    assert (ids == np.unique(subs)).all()
    assert pooled.tobytes() == full[ids].tobytes()
    pooled_subs = pooled[np.searchsorted(ids, subs)]
    assert np.matmul(pooled_subs, q[:, :, None])[:, :, 0].tobytes() == scores.tobytes()
    assert keys.tobytes() == (-scores).tobytes()
    assert (cols == where).all()


@pytest.mark.parametrize("bad", [-1, 40, 41])
def test_recall_subset_refuses_ids_outside_gallery(bad):
    params, refs, mods, gal, true_ids = make_model(6)
    subsets = [np.array([t, (t + 1) % 40]) for t in true_ids]
    subsets[7] = np.array([true_ids[7], bad])
    with pytest.raises(DomainError, match=f"query 7: subset id {bad} "):
        evaluation.recall_subset(params, refs, mods, gal, true_ids, subsets)


def test_detection_perfect_flags():
    truth = ["clean", "mismatch", "clean", "partial"]
    mask = np.array([1.0, 0.0, 1.0, 0.0])
    est = np.array([0.9, 0.1, 0.8, 0.2])
    rep = evaluation.detection_metrics(mask, est, truth)
    assert rep.precision == rep.recall == rep.f1 == 1.0
    assert rep.auc == 1.0


def test_detection_no_flags():
    truth = ["clean", "mismatch"]
    rep = evaluation.detection_metrics(np.ones(2), np.array([0.9, 0.2]), truth)
    assert rep.recall == 0.0 and rep.precision == 0.0 and rep.f1 == 0.0


def test_detection_auc_pairwise_oracle_and_invariance():
    rng = np.random.default_rng(4)
    est = rng.uniform(0, 1, size=20)
    est[3] = est[11]  # force a tie
    truth = ["mismatch" if rng.random() < 0.4 else "clean" for _ in range(20)]
    if all(t == "clean" for t in truth):
        truth[0] = "mismatch"
    mask = (est < 0.5).astype(float) == 0.0
    rep = evaluation.detection_metrics(1.0 - (est < 0.5), est, truth)
    scores = 1.0 - est
    pos = [scores[i] for i in range(20) if truth[i] != "clean"]
    neg = [scores[i] for i in range(20) if truth[i] == "clean"]
    wins = sum(1.0 if p > n else 0.5 if p == n else 0.0 for p in pos for n in neg)
    assert rep.auc == pytest.approx(wins / (len(pos) * len(neg)), abs=1e-12)
    # strictly monotone transform of the score leaves AUC unchanged
    rep2 = evaluation.detection_metrics(1.0 - (est < 0.5), 1.0 - np.exp(3 * scores), truth)
    assert rep2.auc == rep.auc


def test_detection_permutation_equivariance():
    rng = np.random.default_rng(5)
    est = rng.uniform(0, 1, size=12)
    mask = rng.integers(0, 2, size=12).astype(float)
    truth = ["mismatch" if rng.random() < 0.5 else "clean" for _ in range(12)]
    rep = evaluation.detection_metrics(mask, est, truth)
    perm = rng.permutation(12)
    rep2 = evaluation.detection_metrics(mask[perm], est[perm], [truth[i] for i in perm])
    assert rep == rep2


def test_detection_length_mismatch():
    with pytest.raises(LengthMismatch):
        evaluation.detection_metrics(np.ones(3), np.ones(2), ["clean", "clean"])


def identity_params(d):
    """Encoder whose pooled query is ref / |ref| and whose pooled target is vec / |vec|."""
    w_c = np.hstack([np.eye(d), np.zeros((d, d))])
    return T.EncoderParams(w_c, np.zeros(d), np.eye(d), np.zeros(d), q_tokens=1, dim=d)


def ranking_case(params, refs, gal):
    """Check rank_gallery's keys, and the ranks recall_at_k counts from them,
    against the stable argsort of the scores; return how many rows have a tie."""
    mods = np.ones_like(refs)
    q, g = evaluation.pooled_queries(params, refs, mods), evaluation.pooled_targets(params, gal)
    scores = q @ g.T
    keys = evaluation.rank_gallery(params, refs, mods, gal)
    assert keys.dtype == np.float64 and keys.tobytes() == (q @ -g.T).tobytes()
    order = np.argsort(-scores, axis=1, kind="stable")
    # the id at depth d of every row's order ranks d: in the top d + 1, not in the top d
    for d in {0, 1, g.shape[0] // 2, g.shape[0] - 1} & set(range(g.shape[0])):
        assert evaluation.recall_at_k(keys, order[:, d], [d, d + 1]).recall_at == {d: 0.0, d + 1: 1.0}
    return int((np.diff(np.sort(scores, axis=1), axis=1) == 0).any(axis=1).sum())


def test_rank_gallery_equals_stable_argsort():
    params = T.init_params(8, 2, 6, seed=0)
    for seed in range(12):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 40))
        refs = rng.standard_normal((n, 8))
        # at most 4 distinct rows in a gallery of 5 or more: every query row has ties
        base = rng.standard_normal((int(rng.integers(1, 5)), 8))
        gal = base[rng.integers(0, base.shape[0], size=int(rng.integers(5, 300)))]
        assert ranking_case(params, refs, gal) == n
        # distinct random rows: no ties
        assert ranking_case(params, refs, rng.standard_normal((int(rng.integers(3, 300)), 8))) == 0
        # G = 1, and G = 2 with and without a tie
        assert ranking_case(params, refs, gal[:1]) == 0
        assert ranking_case(params, refs, base[[0, 0]]) == n
        assert ranking_case(params, refs, rng.standard_normal((2, 8))) == 0
        # a NaN gallery entry puts a NaN in every row
        nan_gal = rng.standard_normal((50, 8))
        nan_gal[int(rng.integers(50))] = np.nan
        ranking_case(params, refs, nan_gal)
        # tied and untied rows mixed: a query on the diagonal of two axes scores both
        # axes alike, a random query scores every entry differently
        ident = identity_params(3)
        axes = np.vstack([np.eye(3), -np.eye(3), rng.standard_normal((40, 3))])
        gal = axes[rng.permutation(axes.shape[0])]
        grid = np.array([[1.0, 1.0, 0.0], [0.0, -2.0, 2.0], [3.0, 0.0, 3.0], [1.0, 0.0, 0.0]])
        refs3 = np.vstack([grid, rng.standard_normal((n, 3))])[rng.permutation(n + 4)]
        assert ranking_case(ident, refs3, gal) == 4


def _float(bits):
    return np.array([bits], dtype=np.int64).view(np.float64)[0]


LOW_NAN = _float(0x7FF0_0000_0000_0001)  # a NaN whose payload is only the lowest bit


@st.composite
def score_matrices(draw):
    """Raw key rows drawn from a pool built to stress the counted rank.

    The pool holds exact ties, both zeros, NaNs of either sign and with two
    payloads, NaNs of either sign whose payload lies only in the lowest bit,
    both infinities, and a value with neighbours 1 to 2**bits ulps away:
    distinct keys that a comparison must still tell apart.
    """
    k = draw(st.integers(0, 7))
    g = draw(st.sampled_from(sorted({1, 2, 2**k, 2**k + 1})))
    n = draw(st.integers(1, 6))
    bits = max(1, (g - 1).bit_length())
    anchor = draw(st.floats(-2.0, 2.0, allow_subnormal=True))
    anchor_bits = int(np.array([anchor]).view(np.int64)[0])
    near = [_float(anchor_bits + d) for d in draw(st.lists(st.integers(0, 2**bits), min_size=1, max_size=6))]
    pool = [0.0, -0.0, np.nan, -np.nan, _float(0x7FF8_0000_0001_0000), LOW_NAN, -LOW_NAN, np.inf, -np.inf,
            draw(st.floats(allow_nan=False)), *near]
    # free floats between the pool's values leave some rows without any tie
    neg = draw(hnp.arrays(np.float64, (n, g), elements=st.sampled_from(pool) | st.floats()))
    if draw(st.booleans()):
        neg[draw(st.integers(0, n - 1))] = np.nan
    if draw(st.booleans()):
        neg[draw(st.integers(0, n - 1)), draw(st.integers(0, g - 1))] = np.nan
    return neg


# 64 distinct keys within 64 ulps of 0.5, in descending order, between a spread row and a tied one
NEAR_TIES = np.vstack([
    np.linspace(0.0, 1.0, 64),
    np.array([0x3FE0_0000_0000_0000 + 63 - j for j in range(64)], dtype=np.int64).view(np.float64),
    np.zeros(64),
])


def counted_ranks(neg):
    """The counted rank of every column of every row, that column as the target."""
    return np.array([[evaluation._target_rank(row, t) for t in range(neg.shape[1])] for row in neg])


@settings(max_examples=300, deadline=None)
@given(score_matrices())
@example(np.array([[0.5, 0.0, -1.0, -0.0]]))  # -0.0 and 0.0 tie
@example(np.array([[-LOW_NAN, 0.5, 0.3]]))
@example(np.array([[np.inf, 1.0, np.inf, -np.inf, np.nan, -np.inf, -np.nan]]))
def test_target_rank_equals_stable_argsort(neg):
    # every column of every row as the target, against its place in the stable argsort
    assert (counted_ranks(neg) == np.argsort(np.argsort(neg, axis=1, kind="stable"), axis=1)).all()


def test_target_rank_near_tie_row():
    # 64 distinct keys within 64 ulps of 0.5, descending: only exact comparisons tell them apart
    assert np.unique(NEAR_TIES[1]).size == NEAR_TIES.shape[1]
    ranks = counted_ranks(NEAR_TIES)
    assert (ranks == np.argsort(np.argsort(NEAR_TIES, axis=1, kind="stable"), axis=1)).all()
    assert (ranks[1] == np.arange(NEAR_TIES.shape[1])[::-1]).all()


def test_rank_gallery_holds_one_matrix_and_keeps_inputs():
    # one key matrix, 8 bytes a scored pair; counting the ranks adds nothing of its size
    n, g = 400, 5000
    rng = np.random.default_rng(1)
    params = T.init_params(8, 4, 16, seed=1)
    refs, mods, gal = rng.standard_normal((n, 8)), rng.standard_normal((n, 8)), rng.standard_normal((g, 8))
    true_ids = rng.integers(g, size=n)
    kept = [refs.copy(), mods.copy(), gal.copy()]
    tracemalloc.start()
    try:
        keys = evaluation.rank_gallery(params, refs, mods, gal)
        digest = hashlib.sha256(keys).digest()
        report = evaluation.recall_at_k(keys, true_ids, (1, 10, g))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert keys.shape == (n, g) and report.recall_at[g] == 1.0
    assert peak <= 1.25 * 8 * n * g
    assert all((a == b).all() for a, b in zip((refs, mods, gal), kept))
    assert hashlib.sha256(keys).digest() == digest


def build_subsets_by_list(true_target_ids, n_gallery, seed, size):
    """`build_subsets` as a list scan, the reference for its draws and order."""
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


def assert_same_subsets(true_ids, n, seed, size):
    got = evaluation.build_subsets(true_ids, n, seed=seed, size=size)
    want = build_subsets_by_list(true_ids, n, seed=seed, size=size)
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and (a == b).all()


def test_build_subsets_equals_list_scan():
    n = 9
    for size in (1, 2, 6, n - 1, n):
        assert_same_subsets([0, 8, 3, 3, 5, 1, 7], n, seed=11, size=size)


@pytest.mark.parametrize("n_ids, n, size", [
    (400, 20_000, 6),  # eval_gallery's sizes, within one block of draws
    (1000, 20_000, 6),  # about 5000 draws, nearly all of them kept: across a refill
], ids=["eval-gallery", "refill"])
def test_build_subsets_equals_list_scan_at_scale(n_ids, n, size):
    assert_same_subsets(np.random.default_rng(n_ids).integers(n, size=n_ids).tolist(), n, seed=7, size=size)


def pairwise_auc(pos, neg):
    """The O(P·N) pairwise AUC that `detection_metrics` reproduces bit for bit."""
    diff = pos[:, None] - neg[None, :]
    return float((np.sum(diff > 0) + 0.5 * np.sum(diff == 0)) / (pos.size * neg.size))


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from([0.0, -0.0, 0.25, 0.5, 1.0, 2.0, np.nan, np.inf, -np.inf])
            | st.floats(allow_nan=True, allow_infinity=True),
            st.sampled_from(["clean", "mismatch", "partial"]),
        ),
        min_size=1, max_size=40,
    ),
    st.sampled_from(["mixed", "clean", "noisy"]),
)
def test_detection_auc_equals_pairwise(items, split):
    est = np.array([e for e, _ in items])
    truth = [t if split == "mixed" else "clean" if split == "clean" else "partial" for _, t in items]
    with np.errstate(invalid="ignore", over="ignore"):
        rep = evaluation.detection_metrics(np.ones(est.size), est, truth)
        scores = 1.0 - est
        noisy = np.array([t != "clean" for t in truth])
        pos, neg = scores[noisy], scores[~noisy]
        want = pairwise_auc(pos, neg) if pos.size and neg.size else 0.0
    assert rep.auc == want
