import hashlib
import json

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from habit import dpl, features, mke, synth, train as T
from habit.errors import ConfigError, DimensionMismatch, FormatError, ZeroRow


def make_batch(seed=0, b=4, d_in=6):
    rng = np.random.default_rng(seed)
    return (
        rng.standard_normal((b, d_in)),
        rng.standard_normal((b, d_in)),
        rng.standard_normal((b, d_in)),
    )


def small_cfg(**kw):
    base = dict(batch_size=4, q_tokens=2, dim=4, seed=0)
    base.update(kw)
    if "ablations" in base and not isinstance(base["ablations"], frozenset):
        base["ablations"] = frozenset(base["ablations"])
    return T.TrainConfig(**base)


def encode(w, b, x, q, d):
    """Tokens and pooled unit vectors of the one batch encoder."""
    f, _, _, pooled = T._encode_batch([(w, b, np.asarray(x, dtype=float))], q, d)
    return f[0], pooled[0]


def test_encode_composed_degenerate_affine():
    # zero weights: output is the normalized bias rows, independent of input
    q, d, d_in = 2, 3, 4
    params = T.init_params(d_in, q, d, seed=1)
    params.w_c[:] = 0.0
    params.b_c[:] = np.arange(1, q * d + 1, dtype=float)
    x = [np.concatenate([np.ones(d_in), np.zeros(d_in)]),
         np.concatenate([-3 * np.ones(d_in), 5 * np.ones(d_in)])]
    f, _ = encode(params.w_c, params.b_c, x, q, d)
    expected = features.normalize_rows(params.b_c.reshape(q, d))
    np.testing.assert_allclose(f[0], expected, atol=1e-15)
    np.testing.assert_allclose(f[1], expected, atol=1e-15)


def test_encode_target_q1_collapse():
    # one token: pooling is the identity, so the pooled vector is the unit projection
    params = T.init_params(4, 1, 4, seed=2)
    x = np.random.default_rng(3).standard_normal(4)
    f, pooled = encode(params.w_t, params.b_t, x[None, :], 1, 4)
    proj = params.w_t @ x + params.b_t
    np.testing.assert_allclose(pooled[0], proj / np.linalg.norm(proj), atol=1e-12)
    np.testing.assert_allclose(pooled[0], f[0, 0], atol=1e-15)


def test_encode_opposite_tokens_zero_row():
    # two unit tokens that cancel leave a zero mean: the pooled vector is undefined
    w = np.zeros((4, 1))
    b = np.array([1.0, 0.0, -1.0, 0.0])
    with pytest.raises(ZeroRow):
        T._encode_batch([(w, b, np.ones((1, 1)))], 2, 2)


def test_encode_pool_permutation_invariant():
    # permuting the token blocks of (w, b) permutes the tokens, not the pooled vector
    q, d, d_in = 5, 6, 3
    params = T.init_params(d_in, q, d, seed=8)
    perm = np.random.default_rng(8).permutation(q)
    rows = (perm[:, None] * d + np.arange(d)).ravel()
    x = np.random.default_rng(9).standard_normal((4, d_in))
    f, pooled = encode(params.w_t, params.b_t, x, q, d)
    f2, pooled2 = encode(params.w_t[rows], params.b_t[rows], x, q, d)
    np.testing.assert_array_equal(f2, f[:, perm])
    np.testing.assert_allclose(pooled2, pooled, atol=1e-14)


def test_encode_matches_dense_matmul_oracle():
    params = T.init_params(6, 3, 5, seed=4)
    rng = np.random.default_rng(5)
    x = rng.standard_normal((2, 12))
    f, pooled = encode(params.w_c, params.b_c, x, 3, 5)
    for n in range(2):
        z = np.array([sum(params.w_c[i, j] * x[n, j] for j in range(12)) + params.b_c[i]
                      for i in range(15)])
        tokens = features.normalize_rows(z.reshape(3, 5))
        np.testing.assert_allclose(f[n], tokens, atol=1e-12)
        v = sum(tokens[i] for i in range(3)) / 3.0
        np.testing.assert_allclose(pooled[n], v / np.linalg.norm(v), atol=1e-12)


def encode_out_of_place(w, b, x, q, d):
    """The batch encoder with a fresh array at each step: the bits the in-place one must give."""
    tok = (x @ w.T + b).reshape(x.shape[0], q, d)
    rn = np.sqrt(np.einsum("bqd,bqd->bq", tok, tok))
    f = tok / rn[:, :, None]
    vmean = f.sum(axis=1) / q
    vn = np.sqrt(np.einsum("bd,bd->b", vmean, vmean))
    return f, rn, vn, vmean / vn[:, None]


@pytest.mark.parametrize("rows", [1, 32, 3584])
def test_encode_in_place_equals_out_of_place(rows):
    # the reference shapes: Q 4, D 16, composed inputs of 2 x 16
    params = T.init_params(16, 4, 16, seed=rows)
    args = (params.w_c, params.b_c, np.random.default_rng(rows).standard_normal((rows, 32)))
    before = [a.copy() for a in args]
    got = [a[0] for a in T._encode_batch([args], 4, 16)]
    assert [a.tobytes() for a in args] == [a.tobytes() for a in before]
    want = encode_out_of_place(*before, 4, 16)
    assert [(a.shape, a.tobytes()) for a in got] == [(a.shape, a.tobytes()) for a in want]


def backprop_out_of_place(d_pooled, f, rn, vn, pooled, x, q, d):
    """One encoder's backward pass with a fresh array at each step: the bits the stacked one must give."""
    dv = (d_pooled - pooled * np.einsum("bd,bd->b", pooled, d_pooled)[:, None]) / vn[:, None]
    df = np.repeat(dv[:, None, :] / q, q, axis=1)
    dz = (df - f * np.einsum("bqd,bqd->bq", f, df)[:, :, None]) / rn[:, :, None]
    dz2 = dz.reshape(x.shape[0], q * d)
    return dz2.T @ x, dz2.sum(axis=0)


def as_bits(arrays):
    return [(a.shape, a.tobytes()) for a in arrays]


# both encoders share Q and D, so composed and target token counts cannot differ here
@pytest.mark.parametrize("q, d", [(4, 16), (3, 5)])
@pytest.mark.parametrize("rows", [1, 2, 13, 32])
def test_encoder_stack_equals_per_encoder_expressions(rows, q, d):
    # the training pair: a composed encoder of input width 2 x 16 and a target one of 16
    params = T.init_params(16, q, d, seed=rows)
    rng = np.random.default_rng(rows)
    x_c, x_t = rng.standard_normal((rows, 32)), rng.standard_normal((rows, 16))
    d_pooled = rng.standard_normal((2, rows, d))
    inputs = [params.flat, x_c, x_t, d_pooled]
    before = [a.copy() for a in inputs]
    stack = T._encode_batch([(params.w_c, params.b_c, x_c), (params.w_t, params.b_t, x_t)], q, d)
    stack_before = [a.copy() for a in stack]
    grads = T._backprop_encoder(d_pooled, *stack, (x_c, x_t))
    assert [a.tobytes() for a in inputs] == [a.tobytes() for a in before]
    assert as_bits(stack) == as_bits(stack_before)
    encoders = [(params.w_c, params.b_c, x_c), (params.w_t, params.b_t, x_t)]
    for i, (w, b, x) in enumerate(encoders):
        want = encode_out_of_place(w, b, x, q, d)
        assert as_bits(a[i] for a in stack) == as_bits(want)
        assert as_bits(grads[i]) == as_bits(backprop_out_of_place(d_pooled[i], *want, x, q, d))
    # a stack of 3 batches: each gets the bits of its own 2-D call, also where one
    # product over all 3 x rows would round apart (rows x Q*D <= 1200 at width 32, or 1 row)
    xs = [rng.standard_normal((3, rows, 32)), rng.standard_normal((3, rows, 16))]
    stacked = T._encode_batch([(w, b, x) for (w, b, _), x in zip(encoders, xs)], q, d)
    for i, (w, b, _) in enumerate(encoders):
        for k in range(3):
            assert as_bits(a[i, k] for a in stacked) == as_bits(encode_out_of_place(w, b, xs[i][k], q, d))


# the shapes where a product over fewer rows rounds apart from the same rows of a
# larger one (rows x Q*D <= 1200 at input width 32 or more, or 1 row), and G 1 to 40
@pytest.mark.parametrize("d_in, q, d, n, rows", [
    (32, 4, 16, 40, [0, 3, 7, 11, 12, 20, 21, 22, 23, 24, 30, 31, 32, 33, 34, 35, 38, 39]),
    (32, 4, 16, 19, [5]),
    (32, 4, 16, 2, [1]),
    (16, 4, 16, 40, [17]),
    (16, 4, 16, 1, [0]),
    (16, 3, 5, 13, [12, 0, 0, 4]),  # unsorted, with a repeat
    (32, 4, 16, 7, []),
])
def test_encode_rows_equal_rows_of_full_call(d_in, q, d, n, rows):
    rng = np.random.default_rng(n)
    params = T.init_params(d_in, q, d, seed=n)
    rows = np.array(rows, dtype=np.intp)
    for lead in [(n,), (n, 3), (n, 2, 5)]:  # a batch, and stacks of batches
        encoders = [(params.w_c, params.b_c, rng.standard_normal((*lead, 2 * d_in))),
                    (params.w_t, params.b_t, rng.standard_normal((*lead, d_in)))]
        for enc in (encoders, encoders[1:]):
            full = T._encode_batch(enc, q, d)
            got = T._encode_batch(enc, q, d, rows)
            assert as_bits(got) == as_bits(a[:, rows] for a in full)


@settings(max_examples=200, deadline=None)
@given(q=st.sampled_from([1, 2, 3, 4, 8]), d=st.sampled_from([1, 2, 3, 5, 16]),
       lead=st.sampled_from([(1,), (2,), (7,), (1, 1), (3, 1), (2, 5), (2, 3, 4)]),
       seed=st.integers(0, 2**32 - 1), scale=st.sampled_from([1e-3, 1.0, 1e3]))
def test_encode_pool_equals_numpy_sum(q, d, lead, seed, scale):
    # the pool adds token slices; numpy's sum over the token axis must give the same bits
    rng = np.random.default_rng(seed)
    w, b = scale * rng.standard_normal((q * d, 3)), rng.standard_normal(q * d)
    b[rng.random(q * d) < 0.2] = 0.0
    try:
        f, rn, vn, pooled = T._encode_batch([(w, b, rng.standard_normal((*lead, 3)))], q, d)
    except ZeroRow:  # width 1: unit tokens are +-1 and may cancel
        assume(False)
    mean = f.sum(axis=-2) / q
    want_vn = np.sqrt(np.einsum("...d,...d->...", mean, mean))
    assert as_bits([vn, pooled]) == as_bits([want_vn, mean / want_vn[..., None]])


def test_encode_dimension_mismatch():
    params = T.init_params(6, 2, 4, seed=0)
    with pytest.raises(DimensionMismatch):
        T._encode_batch([(params.w_t, params.b_t, np.ones((3, 5)))], 2, 4)
    with pytest.raises(DimensionMismatch):
        T._encode_batch([(params.w_c, params.b_c, np.ones((3, 6)))], 2, 4)


@pytest.mark.parametrize("rows, flags", [
    ((4, 3, 4), ()),  # a short mods
    ((4, 4, 5), ("no_mke",)),
    ((4, 4, 5), ("no_mke", "no_soft", "no_rank")),  # no term would index past the 4 refs
], ids=["short-mods", "long-tgts-no-mke", "long-tgts-no-terms"])
def test_loss_and_grad_row_mismatch_raises(rows, flags):
    rng = np.random.default_rng(0)
    refs, mods, tgts = (rng.standard_normal((n, 6)) for n in rows)
    params = T.init_params(6, 2, 4, seed=0)
    with pytest.raises(DimensionMismatch, match="batch rows disagree"):
        T.loss_and_grad(params, refs, mods, tgts, dpl.BatchMemory(), small_cfg(ablations=flags), rng)


def standard_out_of_place(sim, tau):
    """The standard rule written out: the row with the lowest diagonal InfoNCE loss."""
    s = sim / tau
    s = s - s.max(axis=1, keepdims=True)
    return int(np.argmin(-np.diagonal(s - np.log(np.exp(s).sum(axis=1, keepdims=True)))))


def test_training_standard_equals_select_standard(monkeypatch):
    # loss_and_grad passes estimate_batch the standard of its one shared row softmax
    seen, estimate_batch = [], mke.estimate_batch

    def spy(*args, standard_index=None, **kwargs):
        seen.append(standard_index)
        return estimate_batch(*args, standard_index=standard_index, **kwargs)

    monkeypatch.setattr(mke, "estimate_batch", spy)
    cfg = small_cfg()
    for seed in range(5):
        refs, mods, tgts = make_batch(seed)
        params = T.init_params(6, 2, 4, seed=seed)
        *_, sim, _ = T.loss_and_grad(params, refs, mods, tgts, dpl.BatchMemory(), cfg, np.random.default_rng(0))
        assert seen.pop() == mke.select_standard(sim, cfg.tau) == standard_out_of_place(sim, cfg.tau)
    # tie rows, which no trained batch gives: the lowest index wins, as in select_standard
    rng = np.random.default_rng(3)
    f = rng.standard_normal((6, 2, 4))
    f /= np.linalg.norm(f, axis=-1, keepdims=True)
    tied = rng.uniform(-1, 1, size=(6, 6))
    tied[2:] = tied[1]
    for sim in (np.eye(6), np.ones((6, 6)), tied, tied.T):
        T.estimate(f, f, sim, cfg, np.random.default_rng(0), mke.row_softmax_parts(sim, cfg.tau))
        assert seen.pop() == mke.select_standard(sim, cfg.tau) == standard_out_of_place(sim, cfg.tau)


def finite_diff_check(flags, seed=0, with_history=True, h=1e-5):
    refs, mods, tgts = make_batch(seed)
    params = T.init_params(6, 2, 4, seed=seed + 10)
    cfg = small_cfg(ablations=frozenset(flags))
    mem = dpl.BatchMemory()
    if with_history:
        _, _, est, mask, sim, out = T.loss_and_grad(
            params, refs, mods, tgts, mem, cfg, np.random.default_rng(1)
        )
        mem.prev_similarity = sim + 0.05 * np.random.default_rng(2).standard_normal(sim.shape)
        mem.prev_estimates = est
        mem.prev_outliers = out
        mem.prev_mask = mask
    bd, grads, est0, mask0, _, _ = T.loss_and_grad(
        params, refs, mods, tgts, mem, cfg, np.random.default_rng(5)
    )

    def loss_of(p):
        out_bd, *_ = T.loss_and_grad(
            p, refs, mods, tgts, mem, cfg, np.random.default_rng(5),
            frozen_estimates=est0, frozen_mask=mask0,
        )
        return out_bd.total

    worst = 0.0
    for key, arr in params.arrays().items():
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            i = it.multi_index
            plus = params.copy()
            plus.arrays()[key][i] += h
            minus = params.copy()
            minus.arrays()[key][i] -= h
            num = (loss_of(plus) - loss_of(minus)) / (2 * h)
            worst = max(worst, abs(num - grads[key][i]) / max(1e-8, abs(grads[key][i])))
    return bd, worst


@pytest.mark.parametrize("flags", [(), ("no_kl",), ("no_soft",), ("no_mask",)])
def test_gradients_match_finite_differences(flags):
    _, worst = finite_diff_check(flags)
    assert worst < 1e-4


def test_empty_objective_zero_loss_and_grad():
    refs, mods, tgts = make_batch(1)
    params = T.init_params(6, 2, 4, seed=11)
    cfg = small_cfg(ablations=frozenset({"no_rank", "no_kl", "no_soft"}))
    bd, grads, *_ = T.loss_and_grad(
        params, refs, mods, tgts, dpl.BatchMemory(), cfg, np.random.default_rng(0)
    )
    assert bd.total == 0.0
    for g in grads.values():
        assert np.all(g == 0.0)


def test_reduces_to_plain_contrastive_baseline():
    refs, mods, tgts = make_batch(2)
    params = T.init_params(6, 2, 4, seed=12)
    cfg = small_cfg(ablations=frozenset({"no_mke", "no_mask", "no_kl", "no_soft"}))
    bd, _, _, _, sim, _ = T.loss_and_grad(
        params, refs, mods, tgts, dpl.BatchMemory(), cfg, np.random.default_rng(0)
    )
    direct = dpl.robust_contrastive_loss(sim, np.ones(4), cfg.tau)
    assert bd.total == pytest.approx(direct, abs=1e-14)
    assert bd.kl == 0.0 and bd.soft == 0.0


def test_stop_gradient_history_contract():
    # changing stored history moves the loss (KL) but not rank/soft gradients
    refs, mods, tgts = make_batch(3)
    params = T.init_params(6, 2, 4, seed=13)
    cfg = small_cfg()
    mem = dpl.BatchMemory()
    _, _, est, mask, sim, out = T.loss_and_grad(
        params, refs, mods, tgts, mem, cfg, np.random.default_rng(1)
    )
    # empty previous outlier set keeps the chrono mask all-ones
    mem.prev_estimates, mem.prev_outliers, mem.prev_mask = est, frozenset(), mask
    mem.prev_similarity = sim + 0.1
    bd1, g1, *_ = T.loss_and_grad(params, refs, mods, tgts, mem, cfg, np.random.default_rng(1))
    mem.prev_similarity = sim + 0.2 * np.random.default_rng(9).standard_normal(sim.shape)
    bd2, g2, *_ = T.loss_and_grad(params, refs, mods, tgts, mem, cfg, np.random.default_rng(1))
    assert bd1.kl != bd2.kl
    assert bd1.rank == bd2.rank and bd1.soft == bd2.soft
    # isolate rank+soft gradients by subtracting each run's KL gradient
    cfg_nokl = small_cfg(ablations=frozenset({"no_kl"}))
    bd3, g3, *_ = T.loss_and_grad(params, refs, mods, tgts, mem, cfg_nokl, np.random.default_rng(1))
    mem.prev_similarity = sim + 0.1
    bd4, g4, *_ = T.loss_and_grad(params, refs, mods, tgts, mem, cfg_nokl, np.random.default_rng(1))
    for key in g3:
        np.testing.assert_array_equal(g3[key], g4[key])


def test_no_mke_forces_base_margin():
    # with no_mke every dynamic margin is margin(1) = m_base; verify via the
    # soft loss value computed from the returned similarity matrix
    refs, mods, tgts = make_batch(4)
    params = T.init_params(6, 2, 4, seed=14)
    cfg = small_cfg(ablations=frozenset({"no_mke", "no_kl", "no_rank"}))
    bd, _, est, mask, sim, _ = T.loss_and_grad(
        params, refs, mods, tgts, dpl.BatchMemory(), cfg, np.random.default_rng(0)
    )
    np.testing.assert_array_equal(est, np.ones(4))
    expected = dpl.soft_margin_loss(sim, np.ones(4), mask, cfg.m_base)
    assert bd.soft == pytest.approx(expected, abs=1e-15)


def test_no_tr_uses_raw_mk_differences():
    refs, mods, tgts = make_batch(0, b=8)
    params = T.init_params(6, 2, 4, seed=30)
    cfg = small_cfg(batch_size=8, ablations={"no_tr"})
    _, _, est, _, sim, _ = T.loss_and_grad(params, refs, mods, tgts, dpl.BatchMemory(), cfg)
    (f_c, f_t), *_ = T._encode_batch(
        [(params.w_c, params.b_c, np.concatenate([refs, mods], axis=1)), (params.w_t, params.b_t, tgts)], 2, 4)
    raw = mke.estimate_batch(f_c, f_t, sim, cfg.tau, cfg.tau_mk, use_transition_rate=False)
    assert (est == raw).all()
    assert (est != mke.estimate_batch(f_c, f_t, sim, cfg.tau, cfg.tau_mk)).any()


def test_no_sample_needs_rng_and_resumes_exactly(tmp_path):
    refs, mods, tgts = make_batch(1)
    params = T.init_params(6, 2, 4, seed=31)
    with pytest.raises(ConfigError, match="no_sample"):
        T.loss_and_grad(params, refs, mods, tgts, dpl.BatchMemory(), small_cfg(ablations={"no_sample"}))

    # the random standard sample draws from the run's rng, so the checkpoint's
    # rng_state must carry the draws over a resume
    records, gallery = tiny_dataset(sigma=0.25)
    kw = dict(batch_size=8, q_tokens=2, dim=6, seed=26, ablations={"no_sample"})
    full, metrics_full = T.train(records, gallery, small_cfg(epochs=4, **kw))
    part, _ = T.train(records, gallery, small_cfg(epochs=3, **kw))
    T.save_checkpoint(part, tmp_path / "part.bin")
    cont, metrics_cont = T.train(
        records, gallery, small_cfg(epochs=4, **kw), resume=T.load_checkpoint(tmp_path / "part.bin")
    )
    T.save_checkpoint(full, tmp_path / "full.bin")
    T.save_checkpoint(cont, tmp_path / "cont.bin")
    assert (tmp_path / "full.bin").read_bytes() == (tmp_path / "cont.bin").read_bytes()
    assert metrics_full[-len(metrics_cont):] == metrics_cont
    # without the ablation the same run never draws, so its rng_state stays put
    plain, _ = T.train(records, gallery, small_cfg(epochs=3, batch_size=8, q_tokens=2, dim=6, seed=26))
    assert part.rng_state != plain.rng_state


def test_no_cs_masks_current_outliers_from_first_step():
    refs, mods, tgts = make_batch(4, b=8)
    params = T.init_params(6, 2, 4, seed=44)
    cfg = small_cfg(batch_size=8, ablations={"no_cs"})
    mem = dpl.BatchMemory()
    _, _, est, mask, sim, outliers = T.loss_and_grad(params, refs, mods, tgts, mem, cfg)
    assert outliers  # the case is only telling with outliers to mask
    assert set(np.flatnonzero(mask == 0.0)) == outliers
    # the previous pass's outliers play no part
    mem.prev_similarity, mem.prev_estimates, mem.prev_mask = sim, est, mask
    mem.prev_outliers = frozenset()
    *_, mask2, _, outliers2 = T.loss_and_grad(params, refs, mods, tgts, mem, cfg)
    assert set(np.flatnonzero(mask2 == 0.0)) == outliers2 == outliers
    # the full method masks nothing on a batch's first pass
    *_, mask_full, _, _ = T.loss_and_grad(params, refs, mods, tgts, dpl.BatchMemory(), small_cfg(batch_size=8))
    assert (mask_full == 1.0).all()


def test_no_history_keeps_no_memory():
    records, gallery = tiny_dataset(sigma=0.25)
    cfg = small_cfg(epochs=3, batch_size=8, q_tokens=2, dim=6, seed=26, ablations={"no_history"})
    ckpt, metrics = T.train(records, gallery, cfg)
    assert len(metrics) == 3 * len(ckpt.memories)
    for mem in ckpt.memories.values():
        assert all(value is None for value in vars(mem).values())
    assert all(m["loss_kl"] == 0.0 for m in metrics)


@pytest.mark.parametrize("flag", ["no_mask_rank", "no_mask_soft", "no_mask_kl"])
def test_no_mask_term_drops_the_mask_from_that_term_only(flag):
    refs, mods, tgts = make_batch(5)
    params = T.init_params(6, 2, 4, seed=15)
    cfg = small_cfg(ablations={flag})
    mask = np.array([0.0, 1.0, 0.0, 1.0])
    mem = dpl.BatchMemory()
    *_, sim, _ = T.loss_and_grad(params, refs, mods, tgts, mem, cfg)
    mem.prev_similarity = sim + 0.1 * np.random.default_rng(6).standard_normal(sim.shape)
    mem.prev_mask = mask
    bd, _, est, _, sim, _ = T.loss_and_grad(params, refs, mods, tgts, mem, cfg, frozen_mask=mask)

    def public(m):
        return {
            "no_mask_rank": dpl.robust_contrastive_loss(sim, m, cfg.tau),
            "no_mask_soft": dpl.soft_margin_loss(sim, est, m, cfg.m_base),
            "no_mask_kl": dpl.kl_consistency(sim, mem.prev_similarity, m, m, cfg.tau),
        }

    masked, unmasked = public(mask), public(np.ones(4))
    got = {"no_mask_rank": bd.rank, "no_mask_soft": bd.soft, "no_mask_kl": bd.kl}
    for term, value in got.items():
        assert value == (unmasked if term == flag else masked)[term], term
    assert masked[flag] != unmasked[flag]


def grad_soft_loop(sim, estimates, mask, m_base):
    """Per-row reference: (hinge sum / B, subgradient of +-1/B at each active
    row's hardest negative)."""
    b = sim.shape[0]
    total, g = 0.0, np.zeros_like(sim)
    for i in range(b):
        if mask[i] == 0.0 or b == 1:
            continue
        j = min((c for c in range(b) if c != i), key=lambda c: (-sim[i, c], c))
        hinge = dpl.dynamic_margin(estimates[i], m_base) + sim[i, j] - sim[i, i]
        if hinge > 0.0:
            total += hinge
            g[i, j] += 1.0 / b
            g[i, i] -= 1.0 / b
    return total / b, g


def test_grad_soft_equals_loop_reference():
    rng = np.random.default_rng(31)
    # ties: row 0's hardest negatives are columns 1 and 3, row 2's are 0 and 1;
    # row 1 is masked though its hinge is positive
    s = np.array([[0.1, 0.8, 0.2, 0.8],
                  [0.9, 0.0, 0.5, 0.3],
                  [0.7, 0.7, 0.6, 0.1],
                  [0.2, 0.1, 0.3, 0.95]])
    e = np.array([0.5, 1.0, 0.3, 0.9])
    m = np.array([1.0, 0.0, 1.0, 1.0])
    value, g = T._grad_soft(s, e, m, 0.2)
    ref_value, ref_g = grad_soft_loop(s, e, m, 0.2)
    assert (g == ref_g).all()
    assert abs(value - ref_value) < 1e-12
    assert g[0, 1] == 0.25 and g[0, 3] == 0.0 and g[2, 0] == 0.25 and not g[1].any()
    # B = 1 has no negative
    assert T._grad_soft(np.array([[0.3]]), np.ones(1), np.ones(1), 0.2)[0] == 0.0
    assert (T._grad_soft(np.array([[0.3]]), np.ones(1), np.ones(1), 0.2)[1] == 0.0).all()
    for b in (2, 3, 8, 32):
        for _ in range(20):
            s = np.round(rng.uniform(-1, 1, size=(b, b)), 1)  # coarse grid: many ties
            e = rng.uniform(0, 1, size=b)
            m = rng.integers(0, 2, size=b).astype(float)
            value, g = T._grad_soft(s, e, m, 0.2)
            ref_value, ref_g = grad_soft_loop(s, e, m, 0.2)
            assert (g == ref_g).all()
            assert abs(value - ref_value) < 1e-12


def tiny_dataset(sigma=0.0, n=24, seed=5):
    cfg = synth.GenConfig(
        n_triplets=n, n_gallery=n + 10, d_in=8, n_attrs=4, sigma=sigma,
        partial_fraction=0.5, unmentioned_noise_std=0.05, seed=seed,
    )
    return synth.generate(cfg)


def test_train_zero_width_vectors_raise():
    records = [synth.TripletRecord(i, np.zeros(0), np.zeros(0), i, "clean") for i in range(4)]
    gallery = [synth.GalleryEntry(i, np.zeros(0)) for i in range(4)]
    with pytest.raises(DimensionMismatch, match="input width 0"):
        T.train(records, gallery, small_cfg(epochs=1))


def test_train_zero_epochs_returns_init():
    records, gallery = tiny_dataset()
    cfg = small_cfg(epochs=0, batch_size=8, q_tokens=2, dim=6, seed=21)
    ckpt, metrics = T.train(records, gallery, cfg)
    init = T.init_params(8, 2, 6, 21)
    for key, arr in ckpt.params.arrays().items():
        np.testing.assert_array_equal(arr, init.arrays()[key])
    assert metrics == []


def test_train_deterministic_checkpoints(tmp_path):
    records, gallery = tiny_dataset(sigma=0.25)
    cfg = small_cfg(epochs=3, batch_size=8, q_tokens=2, dim=6, seed=22)
    for run in ("a", "b"):
        ckpt, _ = T.train(records, gallery, cfg)
        T.save_checkpoint(ckpt, tmp_path / f"ck_{run}.bin")
    assert (tmp_path / "ck_a.bin").read_bytes() == (tmp_path / "ck_b.bin").read_bytes()


# SHA-256 of the checkpoint and of the metrics rows of known-good runs, one
# case with no flag, one for each ablation flag alone and one with empty memories
PINNED_RUNS = {
    (): (
        "4f7548eb1d9e24462de16573e2d97274da6afa790389f0cd3845bbbd553a6e21",
        "8fffca568ce97b844b5c17c2d66c3d6b388fba6f3ec6f4ef9deb7c822c0282d9",
    ),
    ("no_cs",): (
        "c753bf0c326568bca7dd909f2e8ef5ee0648a5266c117c972af389d80aba8a65",
        "1f6785a67995c57425c8f60ef5bceaef0e4fccea4c96bc8fbe2115ec1cf0a3db",
    ),
    ("no_history",): (
        "61b7927513072cb0582dc626d5296cc4f118601ff4b5c9276b9c4fd5e2b2ccde",
        "6993d03234b2556479aedb4bf02fad7eb1e80be796ef2991390306e79e620cef",
    ),
    ("no_kl",): (
        "e980214b400c990b21af50729d638c18f4639264610206e2556f5a449a921f9a",
        "ccdf87321db2714cdfee5c1a5a4549ee2901f5bd2af67e51bc1cae8bf1999ea4",
    ),
    ("no_mask",): (
        "227b9c3fdd62986985e8e03eb7b2828574539f352cdc6f16026702b0d16a55cc",
        "0dce79ea8e47b11720ae5e8b622d34c37a2c1cc1ee930656bf10bb137274db32",
    ),
    ("no_mask_kl",): (
        "312d6c817462e4a9ea6bdd5e1d64128a6ec6171e68d7fd1a7091b0cef3408941",
        "cdba374b7567c088e9c25b9898ea54048649ff4b534450790df22d7aca9892f9",
    ),
    ("no_mask_rank",): (
        "ca6278b829440c54f83197b293972b6348ab77263a290ac7b5dcf32b7124c448",
        "a4b7fcc290a73f2dd883cdacb9447dbd4da946dd6af5d40f9a78487666581272",
    ),
    ("no_mask_soft",): (
        "7fab93a76d40002d74c51bb721e41846c6bea756a2b29dd2af6c2e782b04f133",
        "e45a6d81a09b5aa4eed9b8eb9a0d9e8704b6c0a02af9619e2b88d5e004a17909",
    ),
    ("no_mke",): (
        "d5bcc43424d909f1c0cca798505431947ab71ad97e4e95a6f9294ebc157b313a",
        "0ae1bece3d0e63811e50bee9ccb2b8f4fa57c5bb2d2f2152573ebe4c0fa6919d",
    ),
    ("no_rank",): (
        "f558423dc7a5dd3fea121e967204599cb2731fb02129bd329b29e50cf1a9fbd4",
        "1175c725de6716426589b17ff5f0b3825a8477c287c7cb3ab00e5b21e970a067",
    ),
    ("no_sample",): (
        "8bf6abfd33e46bb7729891844a98781ddec77b33d7590105dca16a9a092faf73",
        "a16d4840f92d89a858128f815c7ff1bcd86493f6577d3779f04b7a4bb14582b2",
    ),
    ("no_soft",): (
        "5e61fc4747ff82f3ff172136bb4858e86fed9ce6ed28d2833e721323c0984f1f",
        "2ba23d6bd9866d47c57d9bdca45c7927689cc83b56f7970bd8187f849388d967",
    ),
    ("no_tr",): (
        "d1bf34f34c558e608005a291a59d939a30b91b299d3f514c54e00b0b84593ea4",
        "36ce6b0a65ebf65c87fd7e4fcc15434e9dfa06adf42197ab9755254e87ad9e2f",
    ),
    ("no_history", "no_mke"): (
        "470f11c69180491471c2457bdb3659d266ebe5d8fead59b9997a9147766de129",
        "1fb6d69d77296ecdd3e9dd7ad0681560b66becc23b981755dd8cb1df5d24abda",
    ),
}


def test_pinned_runs_differ():
    # every flag moves both hashes, so a case that ignored its flag would fail
    assert {flags for flags in PINNED_RUNS if len(flags) == 1} == {(f,) for f in T.ABLATION_FLAGS}
    for column in zip(*PINNED_RUNS.values()):
        assert len(set(column)) == len(PINNED_RUNS)


@pytest.mark.parametrize("ablations", PINNED_RUNS, ids=lambda flags: {
    (): "full", ("no_history", "no_mke"): "empty-memories"}.get(flags, "-".join(flags)))
def test_train_bytes_pinned(tmp_path, ablations):
    # a change to the checkpoint or metrics bytes of any pinned run fails here
    ckpt_sha, rows_sha = PINNED_RUNS[ablations]
    records, gallery = tiny_dataset(sigma=0.25)
    cfg = small_cfg(epochs=3, batch_size=8, q_tokens=2, dim=6, seed=22, ablations=ablations)
    ckpt, metrics = T.train(records, gallery, cfg)
    T.save_checkpoint(ckpt, tmp_path / "ck.bin")
    assert hashlib.sha256((tmp_path / "ck.bin").read_bytes()).hexdigest() == ckpt_sha
    assert [tuple(row) for row in metrics] == [T.METRICS_COLUMNS] * len(metrics)
    assert hashlib.sha256(json.dumps(metrics).encode()).hexdigest() == rows_sha


def test_train_loss_decreases_on_clean_data():
    # frozen seed, measured before the assertion was locked in
    records, gallery = tiny_dataset(sigma=0.0, n=64, seed=5)
    cfg = small_cfg(epochs=60, batch_size=16, q_tokens=2, dim=8, seed=23)
    _, metrics = T.train(records, gallery, cfg)
    losses = np.array([m["loss_total"] for m in metrics])
    per_epoch = losses.reshape(60, -1).mean(axis=1)
    windows = per_epoch.reshape(6, 10).mean(axis=1)
    assert all(b < a for a, b in zip(windows, windows[1:]))


def test_checkpoint_round_trip(tmp_path):
    records, gallery = tiny_dataset()
    cfg = small_cfg(epochs=2, batch_size=8, q_tokens=2, dim=6, seed=24)
    ckpt, _ = T.train(records, gallery, cfg)
    T.save_checkpoint(ckpt, tmp_path / "ck.bin")
    back = T.load_checkpoint(tmp_path / "ck.bin")
    assert back.epoch == ckpt.epoch and back.config_hash == ckpt.config_hash
    assert back.rng_state == ckpt.rng_state
    for key, arr in ckpt.params.arrays().items():
        np.testing.assert_array_equal(arr, back.params.arrays()[key])
    assert back.opt.step == ckpt.opt.step
    for key in ckpt.opt.m:
        np.testing.assert_array_equal(back.opt.m[key], ckpt.opt.m[key])
        np.testing.assert_array_equal(back.opt.v[key], ckpt.opt.v[key])


def test_checkpoint_truncated_raises(tmp_path):
    records, gallery = tiny_dataset()
    cfg = small_cfg(epochs=1, batch_size=8, q_tokens=2, dim=6, seed=25)
    ckpt, _ = T.train(records, gallery, cfg)
    T.save_checkpoint(ckpt, tmp_path / "ck.bin")
    blob = (tmp_path / "ck.bin").read_bytes()
    (tmp_path / "bad.bin").write_bytes(blob[: len(blob) // 2])
    with pytest.raises(FormatError):
        T.load_checkpoint(tmp_path / "bad.bin")
    (tmp_path / "junk.bin").write_bytes(b"not a checkpoint at all")
    with pytest.raises(FormatError):
        T.load_checkpoint(tmp_path / "junk.bin")


def test_resume_equals_uninterrupted(tmp_path):
    records, gallery = tiny_dataset(sigma=0.25)
    full_cfg = small_cfg(epochs=4, batch_size=8, q_tokens=2, dim=6, seed=26)
    ckpt_full, metrics_full = T.train(records, gallery, full_cfg)

    part_cfg = small_cfg(epochs=3, batch_size=8, q_tokens=2, dim=6, seed=26)
    ckpt_part, _ = T.train(records, gallery, part_cfg)
    T.save_checkpoint(ckpt_part, tmp_path / "part.bin")
    resumed = T.load_checkpoint(tmp_path / "part.bin")
    ckpt_cont, metrics_cont = T.train(records, gallery, full_cfg, resume=resumed)

    for key, arr in ckpt_full.params.arrays().items():
        np.testing.assert_array_equal(arr, ckpt_cont.params.arrays()[key])
    tail = metrics_full[-len(metrics_cont):]
    assert [m["loss_total"] for m in tail] == [m["loss_total"] for m in metrics_cont]


def test_resume_with_another_config_raises():
    records, gallery = tiny_dataset(sigma=0.25)
    part, _ = T.train(records, gallery, small_cfg(epochs=1, batch_size=8, q_tokens=2, dim=6, seed=26))
    other = small_cfg(epochs=2, batch_size=8, q_tokens=2, dim=6, seed=26, learning_rate=2e-3)
    with pytest.raises(FormatError, match="another train config"):
        T.train(records, gallery, other, resume=part)


def test_resume_twice_from_one_checkpoint(tmp_path):
    # training from `resume` must not move the checkpoint it was handed
    records, gallery = tiny_dataset(sigma=0.25)
    full_cfg = small_cfg(epochs=4, batch_size=8, q_tokens=2, dim=6, seed=26)
    ckpt_full, _ = T.train(records, gallery, full_cfg)
    part, _ = T.train(records, gallery, small_cfg(epochs=3, batch_size=8, q_tokens=2, dim=6, seed=26))

    def blob(ckpt, name):
        T.save_checkpoint(ckpt, tmp_path / name)
        return (tmp_path / name).read_bytes()

    before = blob(part, "part.bin")
    first, _ = T.train(records, gallery, full_cfg, resume=part)
    second, _ = T.train(records, gallery, full_cfg, resume=part)
    assert blob(first, "first.bin") == blob(second, "second.bin") == blob(ckpt_full, "full.bin")
    assert blob(part, "part_after.bin") == before


def adamw_loop(arrays, grads, m, v, t, lr, weight_decay, beta1=0.9, beta2=0.999, eps=1e-8):
    """AdamW one array at a time: the reference for adamw_step's one pass."""
    for key, p in arrays.items():
        g = grads[key]
        m[key] = beta1 * m[key] + (1 - beta1) * g
        v[key] = beta2 * v[key] + (1 - beta2) * g * g
        m_hat = m[key] / (1 - beta1**t)
        v_hat = v[key] / (1 - beta2**t)
        p -= lr * m_hat / (np.sqrt(v_hat) + eps)
        p -= lr * weight_decay * p


def test_adamw_step_equals_per_array_loop():
    params = T.init_params(5, 3, 4, seed=7)
    ref = {k: a.copy() for k, a in params.arrays().items()}
    m = {k: np.zeros_like(a) for k, a in ref.items()}
    v = {k: np.zeros_like(a) for k, a in ref.items()}
    state = T.AdamWState(m=m, v=v)
    rng = np.random.default_rng(7)
    for t in range(1, 21):
        # gradients over several decades, so that rounding differs between orders
        grads = {k: rng.standard_normal(a.shape) * 10.0 ** rng.integers(-6, 3, size=a.shape)
                 for k, a in ref.items()}
        T.adamw_step(params, grads, state, lr=3e-3, weight_decay=0.05)
        adamw_loop(ref, grads, m, v, t, lr=3e-3, weight_decay=0.05)
        for key in T.PARAM_NAMES:
            assert (params.arrays()[key] == ref[key]).all(), (t, key)
            assert (state.m[key] == m[key]).all() and (state.v[key] == v[key]).all(), (t, key)
    assert state.step == 20


def test_adamw_step_leaves_grads_unwritten():
    params = T.init_params(5, 3, 4, seed=7)
    state = T.AdamWState(m={k: np.zeros_like(a) for k, a in params.arrays().items()},
                         v={k: np.zeros_like(a) for k, a in params.arrays().items()})
    rng = np.random.default_rng(8)
    grads = {k: rng.standard_normal(a.shape) for k, a in params.arrays().items()}
    before = {k: g.copy() for k, g in grads.items()}
    for _ in range(3):
        T.adamw_step(params, grads, state, lr=3e-3, weight_decay=0.05)
    assert all(grads[k].tobytes() == before[k].tobytes() for k in T.PARAM_NAMES)


def assert_flat_views(params, opt=None):
    for key, a in params.arrays().items():
        assert np.shares_memory(params.flat, a), key
    assert params.flat.tolist() == np.concatenate(list(params.arrays().values()), axis=None).tolist()
    if opt is not None:
        for key in T.PARAM_NAMES:
            assert np.shares_memory(opt.m_flat, opt.m[key]), key
            assert np.shares_memory(opt.v_flat, opt.v[key]), key


def test_params_and_moments_are_views_of_flat(tmp_path):
    params = T.init_params(6, 2, 3, seed=0)
    assert_flat_views(params)
    twin = params.copy()
    assert_flat_views(twin)
    assert not np.shares_memory(twin.flat, params.flat)

    records, gallery = tiny_dataset()
    ckpt, metrics = T.train(records, gallery, small_cfg(epochs=1, batch_size=8, q_tokens=2, dim=6, seed=3))
    assert len(metrics) > 0
    assert_flat_views(ckpt.params, ckpt.opt)
    T.save_checkpoint(ckpt, tmp_path / "ck.bin")
    back = T.load_checkpoint(tmp_path / "ck.bin")
    assert_flat_views(back.params, back.opt)

    # one more step moves the views together with the flat vectors
    grads = {k: np.ones_like(a) for k, a in back.params.arrays().items()}
    T.adamw_step(back.params, grads, back.opt, lr=1e-2, weight_decay=1e-4)
    assert_flat_views(back.params, back.opt)
    assert back.params.flat.tolist() != ckpt.params.flat.tolist()


def test_train_config_validation():
    with pytest.raises(ConfigError):
        small_cfg(batch_size=1).validate()
    with pytest.raises(ConfigError):
        small_cfg(tau=0.0).validate()
    with pytest.raises(ConfigError):
        small_cfg(ablations=frozenset({"bogus"})).validate()
    for key in ("q_tokens", "dim"):
        for bad in (0, -1):
            with pytest.raises(ConfigError, match=f"{key} must be >= 1"):
                small_cfg(**{key: bad}).validate()
    with pytest.raises(ConfigError):
        T.train([], [], small_cfg())


@pytest.mark.parametrize("min_pts, batch_size, want", [(0, 32, 4), (0, 8, 2), (5, 32, 5), (1, 8, 1)])
def test_min_pts_auto_or_set(min_pts, batch_size, want):
    # 0 picks max(2, ceil(0.1 * B)); any other value is used as given
    assert T.TrainConfig(dbscan_min_pts=min_pts, batch_size=batch_size).min_pts() == want


def test_train_non_finite_loss_raises():
    # no_mke skips the estimator, so a NaN input reaches the losses
    records, gallery = tiny_dataset()
    records[3].ref_vec = records[3].ref_vec.copy()
    records[3].ref_vec[0] = np.nan
    cfg = small_cfg(epochs=2, batch_size=8, q_tokens=2, dim=6, seed=27, ablations={"no_mke"})
    with pytest.raises(FloatingPointError, match="loss_total is nan"):
        T.train(records, gallery, cfg)
