import numpy as np
import pytest

from habit import dpl, features, synth, train as T
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
    f, _, _, pooled = T._encode_batch(w, b, np.asarray(x, dtype=float), q, d)
    return f, pooled


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
        T._encode_batch(w, b, np.ones((1, 1)), 2, 2)


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


def test_encode_dimension_mismatch():
    params = T.init_params(6, 2, 4, seed=0)
    with pytest.raises(DimensionMismatch):
        T._encode_batch(params.w_t, params.b_t, np.ones((3, 5)), 2, 4)
    with pytest.raises(DimensionMismatch):
        T._encode_batch(params.w_c, params.b_c, np.ones((3, 6)), 2, 4)


def finite_diff_check(flags, seed=0, with_history=True, h=1e-5):
    refs, mods, tgts = make_batch(seed)
    params = T.init_params(6, 2, 4, seed=seed + 10)
    cfg = small_cfg(ablations=frozenset(flags))
    mem = dpl.BatchMemory(batch_id=0)
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
        params, refs, mods, tgts, dpl.BatchMemory(0), cfg, np.random.default_rng(0)
    )
    assert bd.total == 0.0
    for g in grads.values():
        assert np.all(g == 0.0)


def test_reduces_to_plain_contrastive_baseline():
    refs, mods, tgts = make_batch(2)
    params = T.init_params(6, 2, 4, seed=12)
    cfg = small_cfg(ablations=frozenset({"no_mke", "no_mask", "no_kl", "no_soft"}))
    bd, _, _, _, sim, _ = T.loss_and_grad(
        params, refs, mods, tgts, dpl.BatchMemory(0), cfg, np.random.default_rng(0)
    )
    direct = dpl.robust_contrastive_loss(sim, np.ones(4), cfg.tau)
    assert bd.total == pytest.approx(direct, abs=1e-14)
    assert bd.kl == 0.0 and bd.soft == 0.0


def test_stop_gradient_history_contract():
    # changing stored history moves the loss (KL) but not rank/soft gradients
    refs, mods, tgts = make_batch(3)
    params = T.init_params(6, 2, 4, seed=13)
    cfg = small_cfg()
    mem = dpl.BatchMemory(0)
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
        params, refs, mods, tgts, dpl.BatchMemory(0), cfg, np.random.default_rng(0)
    )
    np.testing.assert_array_equal(est, np.ones(4))
    expected = dpl.soft_margin_loss(sim, np.ones(4), mask, cfg.m_base)
    assert bd.soft == pytest.approx(expected, abs=1e-15)


def grad_soft_loop(sim, estimates, mask, m_base):
    """Per-row reference subgradient: +-1/B at each active row's hardest negative."""
    b = sim.shape[0]
    g = np.zeros_like(sim)
    for i in range(b):
        if mask[i] == 0.0 or b == 1:
            continue
        j = min((c for c in range(b) if c != i), key=lambda c: (-sim[i, c], c))
        if dpl.dynamic_margin(estimates[i], m_base) + sim[i, j] - sim[i, i] > 0.0:
            g[i, j] += 1.0 / b
            g[i, i] -= 1.0 / b
    return g


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
    g = T._grad_soft(s, e, m, 0.2)
    assert (g == grad_soft_loop(s, e, m, 0.2)).all()
    assert g[0, 1] == 0.25 and g[0, 3] == 0.0 and g[2, 0] == 0.25 and not g[1].any()
    # B = 1 has no negative
    assert (T._grad_soft(np.array([[0.3]]), np.ones(1), np.ones(1), 0.2) == 0.0).all()
    for b in (2, 3, 8, 32):
        for _ in range(20):
            s = np.round(rng.uniform(-1, 1, size=(b, b)), 1)  # coarse grid: many ties
            e = rng.uniform(0, 1, size=b)
            m = rng.integers(0, 2, size=b).astype(float)
            assert (T._grad_soft(s, e, m, 0.2) == grad_soft_loop(s, e, m, 0.2)).all()


def tiny_dataset(sigma=0.0, n=24, seed=5):
    cfg = synth.GenConfig(
        n_triplets=n, n_gallery=n + 10, d_in=8, n_attrs=4, sigma=sigma,
        partial_fraction=0.5, unmentioned_noise_std=0.05, seed=seed,
    )
    return synth.generate(cfg)


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


def test_train_config_validation():
    with pytest.raises(ConfigError):
        small_cfg(batch_size=1).validate()
    with pytest.raises(ConfigError):
        small_cfg(tau=0.0).validate()
    with pytest.raises(ConfigError):
        small_cfg(ablations=frozenset({"bogus"})).validate()
    with pytest.raises(ConfigError):
        T.train([], [], small_cfg())


def test_train_non_finite_loss_raises():
    # no_mke skips the estimator, so a NaN input reaches the losses
    records, gallery = tiny_dataset()
    records[3].ref_vec = records[3].ref_vec.copy()
    records[3].ref_vec[0] = np.nan
    cfg = small_cfg(epochs=2, batch_size=8, q_tokens=2, dim=6, seed=27, ablations={"no_mke"})
    with pytest.raises(FloatingPointError, match="loss_total is nan"):
        T.train(records, gallery, cfg)
