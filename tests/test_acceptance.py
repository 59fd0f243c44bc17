"""Acceptance gate: one criterion per test, one printed PASS/FAIL line each.

Criteria 7-10 train on the frozen reference benchmark (generator defaults,
B=32, 100 epochs, lr 3e-3, tau_mk 0.01, seeds 0/1/2) and are slow; run with
``pytest tests/test_acceptance.py -s`` to watch the lines appear.
"""
import json
import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest
from oracles import dbscan_oracle, kl_oracle, mk_oracle, rank_oracle, soft_oracle

from habit import cli, dpl, evaluation, mke, synth, train as T

RNG = np.random.default_rng


def report(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


def rand_tokens(rng, q, d):
    m = rng.standard_normal((q, d))
    return m / np.linalg.norm(m, axis=1, keepdims=True)


# ------------------------------------------------------- criteria 1 to 6

def test_criterion_1_formula_fidelity():
    rng = RNG(101)
    t0 = time.time()
    worst = 0.0
    for _ in range(120):
        q, d = int(rng.integers(2, 6)), int(rng.integers(3, 9))
        fc, ft = rand_tokens(rng, q, d), rand_tokens(rng, q, d)
        fcs, fts = rand_tokens(rng, q, d), rand_tokens(rng, q, d)
        tau = float(rng.uniform(0.05, 0.5))
        worst = max(worst, abs(mke.mutual_knowledge(fc, ft, tau) - mk_oracle(fc, ft, tau)))

        mks, mk = mk_oracle(fcs, fts, tau), mk_oracle(fc, ft, tau)
        worst = max(worst, abs(mke.transition_rate(mks, mk) - abs(mks - mk) / max(mks, 1e-8)))

        tr1 = abs(mks - mk) / max(mks, 1e-8)
        tr2 = abs(mks - mk_oracle(fc, fts, tau)) / max(mks, 1e-8)
        tr3 = abs(mks - mk_oracle(fcs, ft, tau)) / max(mks, 1e-8)
        worst = max(
            worst,
            abs(mke.cleanliness(fc, ft, fcs, fts, tau) - 1.0 / (1.0 + tr1 + abs(tr2 - tr3))),
        )

        b_sz = int(rng.integers(2, 9))
        sim = rng.uniform(-1, 1, (b_sz, b_sz))
        prev = rng.uniform(-1, 1, (b_sz, b_sz))
        m_now = rng.integers(0, 2, b_sz).astype(float)
        m_prev = rng.integers(0, 2, b_sz).astype(float)
        est = rng.uniform(0, 1, b_sz)
        worst = max(worst, abs(dpl.kl_consistency(sim, prev, m_now, m_prev, 0.1)
                               - kl_oracle(sim, prev, m_now, m_prev, 0.1)))
        worst = max(worst, abs(dpl.soft_margin_loss(sim, est, m_now, 0.2)
                               - soft_oracle(sim, est, m_now, 0.2)))
        worst = max(worst, abs(dpl.robust_contrastive_loss(sim, m_now, 0.1)
                               - rank_oracle(sim, m_now, 0.1)))
        r, k, s = rng.uniform(0, 2, 3)
        worst = max(worst, abs(dpl.total_objective(r, k, s, 10.0, 0.5).total
                               - (r + 10.0 * k + 0.5 * s)))
    dt = time.time() - t0
    ok = worst < 1e-10 and dt < 10.0
    assert report(1, ok, f"7 ops x 120 instances, max abs err {worst:.2e}, {dt:.1f}s")


def test_criterion_2_mi_nonnegative():
    rng = RNG(202)
    low = min(
        mke.mutual_knowledge(
            rand_tokens(rng, q := int(rng.integers(1, 7)), d := int(rng.integers(2, 10))),
            rand_tokens(rng, q, d),
            float(rng.uniform(0.02, 1.0)),
        )
        for _ in range(1000)
    )
    assert report(2, low >= -1e-12, f"min MI over 1000 matrices = {low:.3e}")


def test_criterion_3_standard_fixed_point():
    rng = RNG(303)
    worst = 0.0
    for _ in range(200):
        b_sz = int(rng.integers(2, 12))
        comp = [rand_tokens(rng, 3, 5) for _ in range(b_sz)]
        tgt = [rand_tokens(rng, 3, 5) for _ in range(b_sz)]
        sim = rng.uniform(-1, 1, (b_sz, b_sz))
        est = mke.estimate_batch(comp, tgt, sim, 0.1, 0.1)
        worst = max(worst, abs(est[mke.select_standard(sim, 0.1)] - 1.0))
    assert report(3, worst <= 1e-9, f"max |E_std - 1| over 200 batches = {worst:.2e}")


def test_criterion_4_dynamic_margin():
    exact = dpl.dynamic_margin(1.0, 0.2) == 0.2 and dpl.dynamic_margin(0.0, 0.2) == 0.0
    grid = [dpl.dynamic_margin(e, 0.2) for e in np.linspace(0.0, 1.0, 101)]
    mono = all(b > a for a, b in zip(grid, grid[1:]))
    assert report(4, exact and mono, f"endpoints exact={exact}, strict monotone={mono}")


def test_criterion_5_dbscan_oracle():
    rng = RNG(505)
    t0 = time.time()
    bad = 0
    for _ in range(500):
        n = int(rng.integers(1, 65))
        vals = rng.uniform(0, 1, n)
        eps = float(rng.uniform(0.005, 0.3))
        min_pts = int(rng.integers(1, 9))
        if dpl.dbscan_1d(vals, eps, min_pts) != dbscan_oracle(vals, eps, min_pts):
            bad += 1
    dt = time.time() - t0
    assert report(5, bad == 0 and dt < 5.0, f"{bad}/500 mismatches, {dt:.1f}s")


@pytest.mark.parametrize("flags", [(), ("no_kl",), ("no_soft",), ("no_mask",)])
def test_criterion_6_gradients(flags, monkeypatch):
    rng = RNG(606)
    refs, mods, tgts = (rng.standard_normal((4, 6)) for _ in range(3))
    params = T.init_params(6, 2, 4, seed=7)
    cfg = T.TrainConfig(batch_size=4, q_tokens=2, dim=4, ablations=frozenset(flags))
    mem = dpl.BatchMemory()
    _, _, est, mask, sim, _ = T.loss_and_grad(params, refs, mods, tgts, mem, cfg, RNG(1))
    mem.prev_similarity = sim + 0.05 * RNG(2).standard_normal(sim.shape)
    mem.prev_estimates, mem.prev_outliers, mem.prev_mask = est, frozenset(), mask
    bd, grads, est0, mask0, _, _ = T.loss_and_grad(params, refs, mods, tgts, mem, cfg, RNG(5))
    # estimates and mask are stop-gradient: hold them while the parameters move
    monkeypatch.setattr(T, "estimate", lambda *args: est0)
    monkeypatch.setattr(dpl, "chrono_mask", lambda *args: mask0)

    def loss_of(p):
        out, *_ = T.loss_and_grad(p, refs, mods, tgts, mem, cfg, RNG(5))
        return out.total

    h = 1e-5
    worst = 0.0
    for key, arr in params.arrays().items():
        for i in np.ndindex(arr.shape):
            plus, minus = params.copy(), params.copy()
            plus.arrays()[key][i] += h
            minus.arrays()[key][i] -= h
            num = (loss_of(plus) - loss_of(minus)) / (2 * h)
            worst = max(worst, abs(num - grads[key][i]) / max(1e-8, abs(grads[key][i])))
    name = "+".join(flags) or "full"
    assert report(6, worst < 1e-4, f"{name}: max FD rel err {worst:.2e}")


# ------------------------------------------- frozen benchmark (criteria 7-10)

BENCH_TRAIN = dict(epochs=100, batch_size=32, learning_rate=3e-3, tau_mk=0.01)
BENCH_SEEDS = (0, 1, 2)
BENCH_SIGMAS = (0.0, 0.2, 0.5, 0.8)


def bench_run(sigma, seed, ablations=()):
    records, gallery = synth.generate(synth.GenConfig(sigma=sigma, seed=seed))
    train_recs, test_recs = synth.split(records, 0.2, seed)
    tcfg = T.TrainConfig(seed=seed, ablations=frozenset(ablations), **BENCH_TRAIN)
    ckpt, _ = T.train(train_recs, gallery, tcfg)

    refs = np.stack([r.ref_vec for r in test_recs])
    mods = np.stack([r.mod_vec for r in test_recs])
    gal = np.stack([g.vec for g in gallery])
    tids = [r.target_id for r in test_recs]
    ranked = evaluation.rank_gallery(ckpt.params, refs, mods, gal)
    r10 = evaluation.recall_at_k(ranked, tids, [10]).recall_at[10]

    # chrono mask after the final epoch, mapped back to sample order
    batches = T.fixed_partition(len(train_recs), tcfg.batch_size, tcfg.seed)
    flagged, truth = [], []
    for bid, idx in enumerate(batches):
        mask = ckpt.memories[bid].prev_mask
        for pos, i in enumerate(idx):
            flagged.append(mask[pos] == 0.0)
            truth.append(train_recs[i].noise_label != "clean")
    flagged = np.asarray(flagged)
    truth = np.asarray(truth)
    tp = float((flagged & truth).sum())
    prec = tp / flagged.sum() if flagged.any() else 0.0
    rec = tp / truth.sum() if truth.any() else 0.0
    f1 = 2 * prec * rec / (prec + rec) if prec + rec else 0.0

    # oracle detector: threshold on true target-attribute agreement
    oracle_f1 = 0.0
    if truth.any():
        agree = np.array([
            float(np.mean((train_recs[i].attrs + train_recs[i].described_delta)
                          == gallery[train_recs[i].target_id].attributes))
            for idx in batches for i in idx
        ])
        best = 0.0
        for thr in np.unique(agree):
            flag = agree < thr + 1e-12
            tp_o = float((flag & truth).sum())
            if tp_o == 0.0:
                continue
            p_o = tp_o / flag.sum()
            r_o = tp_o / truth.sum()
            best = max(best, 2 * p_o * r_o / (p_o + r_o))
        oracle_f1 = best
    return {"r10": r10, "det_f1": f1, "oracle_f1": oracle_f1}


class BenchRuns:
    """`bench_run` results, each trained once per module.

    `fetch` trains the runs it is asked for that are not cached yet. Two or
    more train at once, in a pool of at most one process per core, with one
    BLAS thread each; a run gets the same figures in a worker as in-process.
    """

    def __init__(self):
        self.cache = {}

    def __call__(self, sigma, seed, ablations=()):
        return self.fetch([(sigma, seed, ablations)])[0]

    def fetch(self, runs):
        keys = [(sigma, seed, tuple(sorted(ablations))) for sigma, seed, ablations in runs]
        missing = [key for key in dict.fromkeys(keys) if key not in self.cache]
        if len(missing) == 1:
            self.cache[missing[0]] = bench_run(*missing[0])
        elif missing:
            # a spawned worker reads the variable when its numpy loads
            with pytest.MonkeyPatch.context() as mp:
                mp.setenv("OPENBLAS_NUM_THREADS", "1")
                procs = min(len(os.sched_getaffinity(0)), len(missing))
                with ProcessPoolExecutor(procs, mp_context=multiprocessing.get_context("spawn")) as pool:
                    self.cache.update(zip(missing, pool.map(bench_run, *zip(*missing))))
        return [self.cache[key] for key in keys]


@pytest.fixture(scope="module")
def bench():
    return BenchRuns()


@pytest.mark.slow
def test_criterion_7_determinism_and_runtime(tmp_path):
    cfg = {
        "gen": {"sigma": 0.5, "seed": 0},
        "train": dict(seed=0, **BENCH_TRAIN),
        "split": {"seed": 0},
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    data = tmp_path / "data"
    assert cli.main(["gen", "--config", str(cfg_path), "--out", str(data)]) == 0
    t0 = time.time()
    assert cli.main(["train", "--config", str(cfg_path), "--data", str(data),
                     "--out", str(tmp_path / "a")]) == 0
    dt = time.time() - t0
    assert cli.main(["train", "--config", str(cfg_path), "--data", str(data),
                     "--out", str(tmp_path / "b")]) == 0
    same = all(
        (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        for name in ("checkpoint.bin", "metrics.csv")
    )
    assert report(7, same and dt < 300.0, f"byte-identical={same}, reference run {dt:.0f}s")


def test_criterion_8_detection_vs_oracle(bench):
    run = bench(0.5, 0)
    bar = 0.9 * run["oracle_f1"]
    ok = run["det_f1"] > bar
    assert report(8, ok, f"chrono-mask F1 {run['det_f1']:.3f} vs 0.9 x oracle "
                         f"{run['oracle_f1']:.3f} = {bar:.3f}")


@pytest.mark.slow
def test_criterion_9_ablation_ordering(bench):
    bench.fetch([(0.5, s, abl) for s in BENCH_SEEDS for abl in ((), ("no_mke",), ("no_mask",), ("no_rank",))]
                + [(0.8, s, abl) for s in BENCH_SEEDS for abl in ((), ("no_mask",))])
    full5 = np.mean([bench(0.5, s)["r10"] for s in BENCH_SEEDS])
    abls = {
        name: np.mean([bench(0.5, s, (name,))["r10"] for s in BENCH_SEEDS])
        for name in ("no_mke", "no_mask", "no_rank")
    }
    full8 = np.mean([bench(0.8, s)["r10"] for s in BENCH_SEEDS])
    nomask8 = np.mean([bench(0.8, s, ("no_mask",))["r10"] for s in BENCH_SEEDS])
    ok = all(full5 > v for v in abls.values()) and full8 > nomask8
    detail = (f"sigma 0.5 full {full5:.3f} vs " +
              ", ".join(f"{k} {v:.3f}" for k, v in abls.items()) +
              f"; sigma 0.8 full {full8:.3f} vs no_mask {nomask8:.3f}")
    assert report(9, ok, detail)


@pytest.mark.slow
def test_criterion_10_degradation_monotone(bench):
    bench.fetch([(sig, s, ()) for s in BENCH_SEEDS for sig in BENCH_SIGMAS])
    table = np.array([[bench(sig, s)["r10"] for sig in BENCH_SIGMAS] for s in BENCH_SEEDS])
    means = table.mean(axis=0)
    stds = table.std(axis=0)
    ok = all(means[k + 1] <= means[k] + stds[k + 1] for k in range(len(BENCH_SIGMAS) - 1))
    assert report(10, ok, "R@10 means over sigma " +
                  "/".join(f"{m:.3f}" for m in means) +
                  " (stds " + "/".join(f"{s:.3f}" for s in stds) + ")")
