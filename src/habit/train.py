"""Toy affine encoders, analytic gradients, AdamW, and the training loop.

Only the similarity matrix carries gradient: masks, cleanliness
estimates, dynamic margins, the standard-sample choice, and all cached
previous-pass quantities are constants with respect to the parameters.
That makes the backward pass a short closed-form chain
(losses -> similarity -> pooled vectors -> token rows -> affine maps).
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import dataclass, field, fields

import numpy as np

from . import dpl, mke
from .errors import ConfigError, DegenerateBatch, DimensionMismatch, FormatError, ZeroRow
# normalize_rows is not called here. habitbench/run.py traces the features
# layer by wrapping `train.normalize_rows`, and a traced run stops with an
# AttributeError if the name is missing.
from .features import ROW_NORM_EPS, normalize_rows  # noqa: F401

ABLATION_FLAGS = frozenset(
    {
        "no_sample", "no_tr", "no_mke",
        "no_cs", "no_kl", "no_history", "no_mask",
        "no_mask_rank", "no_mask_soft", "no_mask_kl",
        "no_rank", "no_soft",
    }
)

CHECKPOINT_MAGIC = b"HABITCK1"


@dataclass
class EncoderParams:
    w_c: np.ndarray  # (Q*D, 2*d_in)
    b_c: np.ndarray  # (Q*D,)
    w_t: np.ndarray  # (Q*D, d_in)
    b_t: np.ndarray  # (Q*D,)
    q_tokens: int
    dim: int

    @property
    def d_in(self) -> int:
        return self.w_t.shape[1]

    def copy(self) -> "EncoderParams":
        return EncoderParams(
            self.w_c.copy(), self.b_c.copy(), self.w_t.copy(), self.b_t.copy(),
            self.q_tokens, self.dim,
        )

    def arrays(self):
        return {"w_c": self.w_c, "b_c": self.b_c, "w_t": self.w_t, "b_t": self.b_t}


@dataclass
class TrainConfig:
    epochs: int = 100
    batch_size: int = 32
    learning_rate: float = 1e-3
    weight_decay: float = 1e-4
    tau: float = 0.1
    tau_mk: float = 0.1
    kappa: float = 10.0
    gamma: float = 0.5
    m_base: float = 0.2
    dbscan_eps: float = 0.05
    dbscan_min_pts: int = 0  # 0 = auto: max(2, ceil(0.1 * B))
    q_tokens: int = 4
    dim: int = 16
    seed: int = 0
    ablations: frozenset = field(default_factory=frozenset)

    def validate(self):
        if self.batch_size < 2:
            raise ConfigError("batch_size must be >= 2")
        if self.epochs < 0:
            raise ConfigError("epochs must be >= 0")
        for name in ("learning_rate", "tau", "tau_mk", "m_base", "dbscan_eps"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        unknown = set(self.ablations) - ABLATION_FLAGS
        if unknown:
            raise ConfigError(f"unknown ablation flags: {sorted(unknown)}")

    def min_pts(self) -> int:
        if self.dbscan_min_pts > 0:
            return self.dbscan_min_pts
        return max(2, int(np.ceil(0.1 * self.batch_size)))

    def has(self, flag: str) -> bool:
        return flag in self.ablations

    def to_dict(self):
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        d["ablations"] = sorted(self.ablations)
        return d


def config_hash(cfg: TrainConfig) -> int:
    blob = json.dumps(cfg.to_dict(), sort_keys=True).encode()
    return int.from_bytes(hashlib.sha256(blob).digest()[:8], "big")


def init_params(d_in: int, q_tokens: int, dim: int, seed: int) -> EncoderParams:
    """Seeded uniform init in [-1/sqrt(fan_in), 1/sqrt(fan_in)]."""
    rng = np.random.default_rng(seed)
    qd = q_tokens * dim

    def u(shape, fan_in):
        lim = 1.0 / np.sqrt(fan_in)
        return rng.uniform(-lim, lim, size=shape)

    return EncoderParams(
        w_c=u((qd, 2 * d_in), 2 * d_in),
        b_c=u(qd, 2 * d_in),
        w_t=u((qd, d_in), d_in),
        b_t=u(qd, d_in),
        q_tokens=q_tokens,
        dim=dim,
    )


def _encode_batch(w, b, x, q_tokens, dim):
    """Batch affine encode + row normalize + mean pool, keeping backward intermediates.

    The one encoder of train, eval and detect: x is (B, d) with d == w.shape[1].
    Returns (tokens, row_norms, pooled_norms, pooled_unit).
    """
    if x.shape[-1] != w.shape[1]:
        raise DimensionMismatch(f"input width {x.shape[-1]} != encoder input width {w.shape[1]}")
    z = x @ w.T + b
    tok = z.reshape(x.shape[0], q_tokens, dim)
    rn = np.sqrt(np.einsum("bqd,bqd->bq", tok, tok))
    if np.any(rn < ROW_NORM_EPS):
        raise ZeroRow("degenerate token row during batch encoding")
    f = tok / rn[:, :, None]
    vmean = f.mean(axis=1)
    vn = np.sqrt(np.einsum("bd,bd->b", vmean, vmean))
    if np.any(vn < ROW_NORM_EPS):
        raise ZeroRow("degenerate pooled vector during batch encoding")
    pooled = vmean / vn[:, None]
    return f, rn, vn, pooled


def _backprop_encoder(d_pooled, f, rn, vn, pooled, x, q_tokens, dim):
    """Gradient of sum(d_pooled * pooled) w.r.t. (w, b) of one encoder."""
    # unit-normalize backward: dv = (I - pp^T) dp / |v|
    dv = (d_pooled - pooled * np.einsum("bd,bd->b", pooled, d_pooled)[:, None]) / vn[:, None]
    df = np.repeat(dv[:, None, :] / q_tokens, q_tokens, axis=1)
    # per-row normalize backward
    dz = (df - f * np.einsum("bqd,bqd->bq", f, df)[:, :, None]) / rn[:, :, None]
    dz2 = dz.reshape(x.shape[0], q_tokens * dim)
    return dz2.T @ x, dz2.sum(axis=0)


def _grad_rank(sim, mask, tau):
    """d(robust contrastive loss)/d(sim)."""
    b = sim.shape[0]
    p = dpl._row_softmax(sim, tau)
    off = ~np.eye(b, dtype=bool)
    ratio = np.where(off, p / (1.0 - p), 0.0)
    row_sum = ratio.sum(axis=1)
    g = (ratio - p * row_sum[:, None]) / (tau * (b - 1))
    return g * (mask[:, None] / b)


def _grad_kl(sim_now, sim_prev, mask_now, mask_prev, tau):
    """d(kl_consistency)/d(sim_now); previous-pass similarities are constants."""
    keep = (np.asarray(mask_now) > 0) & (np.asarray(mask_prev) > 0)
    n_keep = int(keep.sum())
    g = np.zeros_like(sim_now)
    if n_keep == 0:
        return g
    p = dpl._row_softmax(sim_now[keep], tau)
    q = dpl._row_softmax(sim_prev[keep], tau)
    log_ratio = np.log(p) - np.log(q)
    kl_rows = np.sum(p * log_ratio, axis=1)
    g[keep] = p * (log_ratio - kl_rows[:, None]) / (tau * n_keep)
    return g


def _grad_soft(sim, estimates, mask, m_base):
    """Subgradient of the soft margin loss; argmax ties break to lowest index."""
    b = sim.shape[0]
    hinge, j = dpl._hardest_negative_hinge(sim, estimates, mask, m_base)
    rows = np.flatnonzero(hinge > 0.0)
    g = np.zeros_like(sim)
    g[rows, j[rows]] = 1.0 / b
    g[rows, rows] = -1.0 / b
    return g


def loss_and_grad(
    params, refs, mods, tgts, memory, cfg, rng=None,
    frozen_estimates=None, frozen_mask=None,
):
    """One pass of the per-iteration training body.

    Returns (LossBreakdown, grads dict keyed like params.arrays(),
    estimates, mask, similarity, outliers). `memory` is read-only here;
    the caller decides when to refresh it.

    Estimates, masks, margins, the standard-sample choice, and all cached
    history are constants with respect to the gradient. `frozen_estimates`
    / `frozen_mask` pin them to given values (used by finite-difference
    checks, which must not differentiate through stop-gradient paths).
    """
    refs = np.asarray(refs, dtype=np.float64)
    mods = np.asarray(mods, dtype=np.float64)
    tgts = np.asarray(tgts, dtype=np.float64)
    b = refs.shape[0]
    if b < 2:
        raise DegenerateBatch("training batch must have B >= 2")

    x_c = np.concatenate([refs, mods], axis=1)
    f_c, rn_c, vn_c, q_pool = _encode_batch(
        params.w_c, params.b_c, x_c, params.q_tokens, params.dim
    )
    f_t, rn_t, vn_t, t_pool = _encode_batch(
        params.w_t, params.b_t, tgts, params.q_tokens, params.dim
    )
    sim = q_pool @ t_pool.T

    # --- cleanliness estimation (all stop-gradient) ---
    if frozen_estimates is not None:
        estimates = np.asarray(frozen_estimates, dtype=np.float64)
    elif cfg.has("no_mke"):
        estimates = np.ones(b)
    else:
        std_idx = None
        if cfg.has("no_sample"):
            if rng is None:
                raise ConfigError("no_sample ablation needs an rng")
            std_idx = int(rng.integers(b))
        estimates = mke.estimate_batch(
            f_c, f_t, sim, cfg.tau, cfg.tau_mk,
            standard_index=std_idx,
            use_transition_rate=not cfg.has("no_tr"),
        )

    # --- chrono-synergia mask (stop-gradient) ---
    outliers = dpl.dbscan_1d(estimates, cfg.dbscan_eps, cfg.min_pts())
    if frozen_mask is not None:
        mask = np.asarray(frozen_mask, dtype=np.float64)
    elif cfg.has("no_mask"):
        mask = np.ones(b)
    elif cfg.has("no_cs") or cfg.has("no_history"):
        mask = np.ones(b)
        for i in outliers:
            mask[i] = 0.0
    else:
        mask = dpl.chrono_mask(outliers, memory.prev_outliers, b)

    ones = np.ones(b)
    mask_rank = ones if cfg.has("no_mask") or cfg.has("no_mask_rank") else mask
    mask_soft = ones if cfg.has("no_mask") or cfg.has("no_mask_soft") else mask
    mask_kl = ones if cfg.has("no_mask") or cfg.has("no_mask_kl") else mask

    # --- losses on the similarity matrix ---
    g_sim = np.zeros_like(sim)
    rank = 0.0
    if not cfg.has("no_rank"):
        rank = dpl.robust_contrastive_loss(sim, mask_rank, cfg.tau)
        g_sim += _grad_rank(sim, mask_rank, cfg.tau)

    kl = 0.0
    use_kl = not (cfg.has("no_kl") or cfg.has("no_history"))
    if use_kl and memory.prev_similarity is not None:
        prev_mask_kl = (
            ones if cfg.has("no_mask") or cfg.has("no_mask_kl") else memory.prev_mask
        )
        kl = dpl.kl_consistency(
            sim, memory.prev_similarity, mask_kl, prev_mask_kl, cfg.tau
        )
        g_sim += cfg.kappa * _grad_kl(
            sim, memory.prev_similarity, mask_kl, prev_mask_kl, cfg.tau
        )

    soft = 0.0
    if not cfg.has("no_soft"):
        margins_from = ones if cfg.has("no_mke") else estimates
        soft = dpl.soft_margin_loss(sim, margins_from, mask_soft, cfg.m_base)
        g_sim += cfg.gamma * _grad_soft(sim, margins_from, mask_soft, cfg.m_base)

    breakdown = dpl.total_objective(rank, kl, soft, cfg.kappa, cfg.gamma)

    # --- backward: similarity -> pooled -> tokens -> affine params ---
    d_qpool = g_sim @ t_pool
    d_tpool = g_sim.T @ q_pool
    dw_c, db_c = _backprop_encoder(
        d_qpool, f_c, rn_c, vn_c, q_pool, x_c, params.q_tokens, params.dim
    )
    dw_t, db_t = _backprop_encoder(
        d_tpool, f_t, rn_t, vn_t, t_pool, tgts, params.q_tokens, params.dim
    )
    grads = {"w_c": dw_c, "b_c": db_c, "w_t": dw_t, "b_t": db_t}
    return breakdown, grads, estimates, mask, sim, outliers


@dataclass
class AdamWState:
    m: dict
    v: dict
    step: int = 0


def adamw_step(params, grads, state, lr, weight_decay, beta1=0.9, beta2=0.999, eps=1e-8):
    """Decoupled-weight-decay adaptive-moment update, in place."""
    state.step += 1
    t = state.step
    arrays = params.arrays()
    for key, p in arrays.items():
        g = grads[key]
        state.m[key] = beta1 * state.m[key] + (1 - beta1) * g
        state.v[key] = beta2 * state.v[key] + (1 - beta2) * g * g
        m_hat = state.m[key] / (1 - beta1**t)
        v_hat = state.v[key] / (1 - beta2**t)
        p -= lr * m_hat / (np.sqrt(v_hat) + eps)
        p -= lr * weight_decay * p


@dataclass
class Checkpoint:
    """Everything needed to continue a run bit-for-bit."""

    params: EncoderParams
    epoch: int
    config_hash: int
    rng_state: bytes
    opt: AdamWState | None = None
    memories: dict | None = None


def fixed_partition(n: int, batch_size: int, seed: int):
    """Seeded index batches, fixed for the whole run; drops a trailing sliver < 2."""
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    batches = [order[i : i + batch_size] for i in range(0, n, batch_size)]
    return [b for b in batches if len(b) >= 2]


def train(records, gallery, cfg: TrainConfig, resume: Checkpoint | None = None):
    """Full training loop; returns (Checkpoint, metrics rows).

    Metrics rows are dicts matching the CSV header
    epoch,iter,loss_total,loss_rank,loss_kl,loss_soft,masked_count,mean_cleanliness.
    With `resume`, training continues from the checkpointed epoch and
    reproduces the uninterrupted run bit-for-bit. A step whose total loss
    is not finite raises FloatingPointError before the parameters move.
    """
    cfg.validate()
    if not records:
        raise ConfigError("empty dataset")
    d_in = records[0].ref_vec.shape[0]
    refs = np.stack([r.ref_vec for r in records])
    mods = np.stack([r.mod_vec for r in records])
    gal = np.stack([g.vec for g in gallery])
    tgts = gal[[r.target_id for r in records]]

    batches = fixed_partition(len(records), cfg.batch_size, cfg.seed)
    rng = np.random.default_rng(cfg.seed + 1)
    if resume is not None:
        params = resume.params.copy()
        rng.bit_generator.state = json.loads(resume.rng_state)
        opt = resume.opt
        memories = resume.memories
        start_epoch = resume.epoch
    else:
        params = init_params(d_in, cfg.q_tokens, cfg.dim, cfg.seed)
        opt = AdamWState(
            m={k: np.zeros_like(v) for k, v in params.arrays().items()},
            v={k: np.zeros_like(v) for k, v in params.arrays().items()},
        )
        memories = {i: dpl.BatchMemory(batch_id=i) for i in range(len(batches))}
        start_epoch = 0

    metrics = []
    it = start_epoch * len(batches)
    for epoch in range(start_epoch, cfg.epochs):
        for bid, idx in enumerate(batches):
            mem = memories[bid]
            breakdown, grads, estimates, mask, sim, outliers = loss_and_grad(
                params, refs[idx], mods[idx], tgts[idx], mem, cfg, rng
            )
            if not np.isfinite(breakdown.total):
                raise FloatingPointError(
                    f"epoch {epoch}, iter {it + 1}: loss_total is {breakdown.total}"
                )
            adamw_step(params, grads, opt, cfg.learning_rate, cfg.weight_decay)
            if not cfg.has("no_history"):
                mem.prev_similarity = sim
                mem.prev_estimates = estimates
                mem.prev_outliers = outliers
                mem.prev_mask = mask
            it += 1
            metrics.append(
                {
                    "epoch": epoch,
                    "iter": it,
                    "loss_total": breakdown.total,
                    "loss_rank": breakdown.rank,
                    "loss_kl": breakdown.kl,
                    "loss_soft": breakdown.soft,
                    "masked_count": int(np.sum(mask == 0.0)),
                    "mean_cleanliness": float(np.mean(estimates)),
                }
            )
    state_blob = json.dumps(rng.bit_generator.state, sort_keys=True).encode()
    ckpt = Checkpoint(
        params=params,
        epoch=cfg.epochs,
        config_hash=config_hash(cfg),
        rng_state=state_blob,
        opt=opt,
        memories=memories,
    )
    return ckpt, metrics


def _checkpoint_arrays(ckpt: Checkpoint):
    """Flat name -> array map in a deterministic order."""
    arrays = dict(ckpt.params.arrays())
    if ckpt.opt is not None:
        for key, v in ckpt.opt.m.items():
            arrays[f"opt_m.{key}"] = v
        for key, v in ckpt.opt.v.items():
            arrays[f"opt_v.{key}"] = v
    if ckpt.memories is not None:
        for bid in sorted(ckpt.memories):
            mem = ckpt.memories[bid]
            if mem.prev_similarity is None:
                continue
            arrays[f"mem.{bid}.sim"] = mem.prev_similarity
            arrays[f"mem.{bid}.est"] = mem.prev_estimates
            arrays[f"mem.{bid}.mask"] = mem.prev_mask
    return arrays


def save_checkpoint(ckpt: Checkpoint, path):
    """Deterministic binary checkpoint (no timestamps, bit-exact arrays)."""
    arrays = _checkpoint_arrays(ckpt)
    meta = {
        "epoch": ckpt.epoch,
        "config_hash": ckpt.config_hash,
        "q_tokens": ckpt.params.q_tokens,
        "dim": ckpt.params.dim,
        "opt_step": None if ckpt.opt is None else ckpt.opt.step,
        "outliers": None
        if ckpt.memories is None
        else {
            str(bid): sorted(mem.prev_outliers)
            for bid, mem in ckpt.memories.items()
            if mem.prev_outliers is not None
        },
        "n_memories": None if ckpt.memories is None else len(ckpt.memories),
        "shapes": {k: list(v.shape) for k, v in arrays.items()},
    }
    meta_blob = json.dumps(meta, sort_keys=True).encode()
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<Q", len(meta_blob)))
        fh.write(meta_blob)
        fh.write(struct.pack("<Q", len(ckpt.rng_state)))
        fh.write(ckpt.rng_state)
        for key in sorted(arrays):
            blob = np.ascontiguousarray(arrays[key]).tobytes()
            fh.write(struct.pack("<Q", len(blob)))
            fh.write(blob)


def load_checkpoint(path) -> Checkpoint:
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:8] != CHECKPOINT_MAGIC:
        raise FormatError(f"{path}: bad magic")

    off = 8

    def take(n):
        nonlocal off
        if off + n > len(data):
            raise FormatError(f"{path}: truncated checkpoint")
        chunk = data[off : off + n]
        off += n
        return chunk

    try:
        meta = json.loads(take(struct.unpack("<Q", take(8))[0]))
        rng_state = take(struct.unpack("<Q", take(8))[0])
        arrays = {}
        for key in sorted(meta["shapes"]):
            shape = tuple(meta["shapes"][key])
            blob = take(struct.unpack("<Q", take(8))[0])
            arrays[key] = np.frombuffer(blob, dtype=np.float64).reshape(shape).copy()
        if off != len(data):
            raise FormatError(f"{path}: trailing bytes")
    except FormatError:
        raise
    except (json.JSONDecodeError, KeyError, ValueError, struct.error) as exc:
        raise FormatError(f"{path}: corrupt checkpoint: {exc}") from exc

    params = EncoderParams(
        w_c=arrays["w_c"], b_c=arrays["b_c"], w_t=arrays["w_t"], b_t=arrays["b_t"],
        q_tokens=int(meta["q_tokens"]), dim=int(meta["dim"]),
    )
    opt = None
    if meta.get("opt_step") is not None:
        keys = ("w_c", "b_c", "w_t", "b_t")
        opt = AdamWState(
            m={k: arrays[f"opt_m.{k}"] for k in keys},
            v={k: arrays[f"opt_v.{k}"] for k in keys},
            step=int(meta["opt_step"]),
        )
    memories = None
    if meta.get("n_memories") is not None:
        memories = {
            bid: dpl.BatchMemory(batch_id=bid) for bid in range(meta["n_memories"])
        }
        for bid_str, out in (meta.get("outliers") or {}).items():
            bid = int(bid_str)
            mem = memories[bid]
            mem.prev_outliers = frozenset(out)
            mem.prev_similarity = arrays[f"mem.{bid}.sim"]
            mem.prev_estimates = arrays[f"mem.{bid}.est"]
            mem.prev_mask = arrays[f"mem.{bid}.mask"]
    return Checkpoint(
        params=params,
        epoch=int(meta["epoch"]),
        config_hash=int(meta["config_hash"]),
        rng_state=rng_state,
        opt=opt,
        memories=memories,
    )
