"""Toy affine encoders, analytic gradients, AdamW, and the training loop.

Only the similarity matrix carries gradient: masks, cleanliness
estimates, dynamic margins, the standard-sample choice, and all cached
previous-pass quantities are constants with respect to the parameters.
That makes the backward pass a short closed-form chain: the `dpl` loss
terms return their gradients with respect to the similarity matrix, and
this module chains them through the encoders
(similarity -> pooled vectors -> token rows -> affine maps).
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import dpl, mke
from .errors import ConfigError, DegenerateBatch, DimensionMismatch, FormatError, ZeroRow
# normalize_rows is not called here. habitbench/run.py traces the features
# layer by wrapping `train.normalize_rows`, and a traced run stops with an
# AttributeError if the name is missing (see the names above `estimate`).
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

# The columns of metrics.csv: one row per training step.
METRICS_COLUMNS = (
    "epoch", "iter", "loss_total", "loss_rank", "loss_kl", "loss_soft",
    "masked_count", "mean_cleanliness",
)


PARAM_NAMES = ("w_c", "b_c", "w_t", "b_t")


def _pack(arrays):
    """Copy arrays[k] for k in PARAM_NAMES, in that order, into one float64 vector.

    Returns the vector and a name -> view dict; each view has its array's shape.
    """
    flat = np.concatenate([np.asarray(arrays[k], dtype=np.float64) for k in PARAM_NAMES], axis=None)
    views, off = {}, 0
    for key in PARAM_NAMES:
        size = np.size(arrays[key])
        views[key] = flat[off : off + size].reshape(np.shape(arrays[key]))
        off += size
    return flat, views


@dataclass
class EncoderParams:
    """The two affine encoders, held as views into one flat vector.

    `__post_init__` copies w_c, b_c, w_t, b_t, in that order, into `flat`
    and rebinds each field to its view, so AdamW updates all four in one
    pass over `flat`.
    """

    w_c: np.ndarray  # (Q*D, 2*d_in)
    b_c: np.ndarray  # (Q*D,)
    w_t: np.ndarray  # (Q*D, d_in)
    b_t: np.ndarray  # (Q*D,)
    q_tokens: int
    dim: int
    flat: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.flat, views = _pack(vars(self))
        for key, view in views.items():
            setattr(self, key, view)

    @property
    def d_in(self) -> int:
        return self.w_t.shape[1]

    def copy(self) -> "EncoderParams":
        return EncoderParams(self.w_c, self.b_c, self.w_t, self.b_t, self.q_tokens, self.dim)

    def arrays(self):
        return {k: getattr(self, k) for k in PARAM_NAMES}


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
        for name, value in vars(self).items():
            if isinstance(value, float) and not np.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value}")
        for name, low in (
            ("batch_size", 2), ("epochs", 0), ("q_tokens", 1), ("dim", 1),
            ("kappa", 0), ("gamma", 0), ("weight_decay", 0), ("dbscan_min_pts", 0), ("seed", 0),
        ):
            if getattr(self, name) < low:
                raise ConfigError(f"{name} must be >= {low}")
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

    def to_dict(self):
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        d["ablations"] = sorted(self.ablations)
        return d


def config_hash(cfg: TrainConfig) -> int:
    blob = json.dumps(cfg.to_dict(), sort_keys=True).encode()
    return int.from_bytes(hashlib.sha256(blob).digest()[:8], "big")


def init_params(d_in: int, q_tokens: int, dim: int, seed: int) -> EncoderParams:
    """Seeded uniform init in [-1/sqrt(fan_in), 1/sqrt(fan_in)]."""
    if d_in < 1:
        raise DimensionMismatch(f"input width {d_in}: an encoder needs vectors of one entry or more")
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


def _encode_batch(encoders, q_tokens, dim, rows=None):
    """Affine encode + row normalize + mean pool of a stack of encoders, keeping backward intermediates.

    The one encoder of train, eval and detect: one (w, b, x) per encoder, each
    x a batch (B, d) or a stack of batches (..., B, d) with d == w.shape[1],
    one leading shape for all. Returns (tokens, row_norms, pooled_norms,
    pooled_unit) with a leading encoder axis E. No product ever spans two
    batches: numpy runs each stacked `x @ w.T` as one product per batch, into
    its slice of one buffer, so every batch gets the bits of its own 2-D call.
    The normalize and pool steps then run once on the stack, in place. No w,
    b or x is written.

    With `rows`, an index into the first leading axis, the products still run
    over all of x and the row-wise rest only on `f[:, rows]`: each output is
    bit for bit `a[:, rows]` of the call without `rows`.
    """
    lead = encoders[0][2].shape[:-1]
    f = np.empty((len(encoders), *lead, q_tokens * dim))
    for out, (w, b, x) in zip(f, encoders):
        if x.shape != (*lead, w.shape[1]):
            raise DimensionMismatch(f"input {x.shape} != {lead} rows of encoder input width {w.shape[1]}")
        np.matmul(x, w.T, out=out)
    if rows is not None:
        f = f[:, rows]
    for out, (_, b, _) in zip(f, encoders):
        out += b
    f = f.reshape(f.shape[:-1] + (q_tokens, dim))
    rn = np.sqrt(np.einsum("...qd,...qd->...q", f, f))
    if (rn < ROW_NORM_EPS).any():
        raise ZeroRow("degenerate token row during batch encoding")
    f /= rn[..., None]
    # f.mean(axis=-2) in slice adds, in numpy's sum's order: left to right from +0.0
    pooled = f[..., 0, :] + 0.0
    for t in range(1, q_tokens):
        pooled += f[..., t, :]
    pooled /= q_tokens
    vn = np.sqrt(np.einsum("...d,...d->...", pooled, pooled))
    if (vn < ROW_NORM_EPS).any():
        raise ZeroRow("degenerate pooled vector during batch encoding")
    pooled /= vn[..., None]
    return f, rn, vn, pooled


def _backprop_encoder(d_pooled, f, rn, vn, pooled, xs):
    """One (dw, db) per encoder: the gradients of sum(d_pooled * pooled) for `_encode_batch`'s
    stacks and inputs `xs`. The normalize backward runs once on the stack, and only
    `dz.T @ x` per encoder. No argument is written."""
    q_tokens = f.shape[2]
    # unit-normalize backward: dv = (I - pp^T) dp / |v|, then the mean's 1/Q
    dv = pooled * np.einsum("ebd,ebd->eb", pooled, d_pooled)[..., None]
    np.subtract(d_pooled, dv, out=dv)
    dv /= vn[..., None]
    dv /= q_tokens
    df = np.repeat(dv[:, :, None, :], q_tokens, axis=2)
    # per-row normalize backward
    dz = f * np.einsum("ebqd,ebqd->ebq", f, df)[..., None]
    np.subtract(df, dz, out=dz)
    dz /= rn[..., None]
    dz = dz.reshape(pooled.shape[:2] + (-1,))
    db = dz.sum(axis=1)
    return [(dz[i].T @ x, db[i]) for i, x in enumerate(xs)]


# habitbench/run.py times and traces a step by wrapping, at call time, `loss_and_grad`,
# `adamw_step`, `_encode_batch`, `_backprop_encoder` and these three names (each term
# returns (value, d_sim) in one pass), so a step must keep calling each by its name.
_grad_rank, _grad_kl, _grad_soft = dpl._rank_term, dpl._kl_term, dpl._soft_term


def estimate(f_c, f_t, sim, cfg, rng=None, softmax=None):
    """Cleanliness of one batch or a (..., B) stack: the one rule of training and detect.

    Under `no_sample` the standard is drawn from `rng`; with none (detect) `select_standard`
    picks it, reading `softmax` = `mke.row_softmax_parts(sim, cfg.tau)` if given.
    """
    if "no_mke" in cfg.ablations:
        return np.ones(sim.shape[:-1])
    draw = rng is not None and "no_sample" in cfg.ablations
    standard = int(rng.integers(sim.shape[-1])) if draw else mke.select_standard(sim, cfg.tau, softmax)
    return mke.estimate_batch(f_c, f_t, sim, cfg.tau, cfg.tau_mk, standard_index=standard,
                              use_transition_rate="no_tr" not in cfg.ablations)


def loss_and_grad(params, refs, mods, tgts, memory, cfg, rng=None):
    """One pass of the per-iteration training body.

    Returns (LossBreakdown, grads dict keyed like params.arrays(),
    estimates, mask, similarity, outliers). `memory` is read-only here;
    the caller decides when to refresh it. `refs`, `mods` and `tgts` must
    have one row per sample each (else DimensionMismatch). Both encoders run
    as one stack, and one row softmax of sim / tau gives the standard sample
    (`mke.select_standard`) and the rank and KL terms their p.

    Estimates, masks, margins, the standard-sample choice, and all cached
    history are constants with respect to the gradient.
    """
    refs = np.asarray(refs, dtype=np.float64)
    mods = np.asarray(mods, dtype=np.float64)
    tgts = np.asarray(tgts, dtype=np.float64)
    b = refs.shape[0]
    if mods.shape[0] != b or tgts.shape[0] != b:
        raise DimensionMismatch(
            f"batch rows disagree: {b} refs, {mods.shape[0]} mods, {tgts.shape[0]} targets")
    if b < 2:
        raise DegenerateBatch("training batch must have B >= 2")
    if rng is None and "no_sample" in cfg.ablations:
        raise ConfigError("no_sample ablation needs an rng")

    x_c = np.concatenate([refs, mods], axis=1)
    f, rn, vn, pooled = _encode_batch(
        [(params.w_c, params.b_c, x_c), (params.w_t, params.b_t, tgts)], params.q_tokens, params.dim
    )
    q_pool, t_pool = pooled
    sim = q_pool @ t_pool.T
    softmax = mke.row_softmax_parts(sim, cfg.tau)
    p = softmax[1] / softmax[2]

    # --- cleanliness estimation and chrono-synergia mask (stop-gradient) ---
    estimates = estimate(f[0], f[1], sim, cfg, rng, softmax)
    outliers = dpl.dbscan_1d(estimates, cfg.dbscan_eps, cfg.min_pts())
    # no previous outliers mask nothing; without chrono-synergia an outlier now is masked now
    no_cs = "no_cs" in cfg.ablations or "no_history" in cfg.ablations
    prev = None if "no_mask" in cfg.ablations else outliers if no_cs else memory.prev_outliers
    mask = dpl.chrono_mask(outliers, prev, b)

    ones = np.ones(b)
    mask_rank = ones if "no_mask_rank" in cfg.ablations else mask
    mask_soft = ones if "no_mask_soft" in cfg.ablations else mask
    mask_kl = ones if "no_mask_kl" in cfg.ablations else mask

    # --- losses on the similarity matrix ---
    g_sim = np.zeros_like(sim)
    rank = kl = soft = 0.0
    if "no_rank" not in cfg.ablations:
        rank, g = _grad_rank(p, mask_rank, cfg.tau)
        g_sim += g

    # under no_history the memory stays empty, so there is no KL term
    if "no_kl" not in cfg.ablations and memory.prev_similarity is not None:
        prev_mask_kl = ones if "no_mask_kl" in cfg.ablations else memory.prev_mask
        kl, g = _grad_kl(p, memory.prev_similarity, mask_kl, prev_mask_kl, cfg.tau)
        g_sim += cfg.kappa * g

    if "no_soft" not in cfg.ablations:
        soft, g = _grad_soft(sim, estimates, mask_soft, cfg.m_base)
        g_sim += cfg.gamma * g

    breakdown = dpl.total_objective(rank, kl, soft, cfg.kappa, cfg.gamma)

    # --- backward: similarity -> pooled -> tokens -> affine params ---
    d_pool = np.empty_like(pooled)
    np.matmul(g_sim, t_pool, out=d_pool[0])
    np.matmul(g_sim.T, q_pool, out=d_pool[1])
    (dw_c, db_c), (dw_t, db_t) = _backprop_encoder(d_pool, f, rn, vn, pooled, (x_c, tgts))
    grads = {"w_c": dw_c, "b_c": db_c, "w_t": dw_t, "b_t": db_t}
    return breakdown, grads, estimates, mask, sim, outliers


@dataclass
class AdamWState:
    """AdamW moments, each one flat vector laid out like `EncoderParams.flat`.

    `m` and `v` map each parameter name to its view into `m_flat` /
    `v_flat`; `__post_init__` copies the given arrays into them.
    """

    m: dict
    v: dict
    step: int = 0
    m_flat: np.ndarray = field(init=False, repr=False, compare=False)
    v_flat: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.m_flat, self.m = _pack(self.m)
        self.v_flat, self.v = _pack(self.v)

    def copy(self) -> "AdamWState":
        return AdamWState(self.m, self.v, self.step)


# AdamW's moment decay rates and denominator floor: Kingma & Ba's defaults, which every run uses
BETA1, BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


def adamw_step(params, grads, state, lr, weight_decay):
    """Decoupled-weight-decay adaptive-moment update, in place, in one pass.

    Elementwise this is, in this order of operations,
    m = BETA1*m + (1-BETA1)*g;  v = BETA2*v + (1-BETA2)*g*g;
    p -= lr*m_hat / (sqrt(v_hat) + ADAM_EPS);  p -= lr*weight_decay*p,
    with m_hat = m / (1-BETA1**t) and v_hat = v / (1-BETA2**t). It writes
    `params.flat`, `state.m_flat` and `state.v_flat` in place, and its
    temporaries into the flat copy of `grads` and one scratch vector, so
    `grads` is not written.
    """
    state.step += 1
    t = state.step
    g = np.concatenate([grads[k] for k in PARAM_NAMES], axis=None)
    m, v, p = state.m_flat, state.v_flat, params.flat
    tmp = np.multiply(g, 1 - BETA1)
    m *= BETA1
    m += tmp
    np.multiply(g, 1 - BETA2, out=tmp)
    tmp *= g
    v *= BETA2
    v += tmp
    denom = np.divide(v, 1 - BETA2**t, out=tmp)
    np.sqrt(denom, out=denom)
    denom += ADAM_EPS
    update = np.divide(m, 1 - BETA1**t, out=g)
    update *= lr
    update /= denom
    p -= update
    p -= np.multiply(p, lr * weight_decay, out=update)


@dataclass
class Checkpoint:
    """Everything needed to continue a run bit-for-bit."""

    params: EncoderParams
    epoch: int
    config_hash: int
    rng_state: bytes
    opt: AdamWState
    memories: dict


def check_config(ckpt: Checkpoint, cfg: TrainConfig):
    """Raise FormatError unless `ckpt` was trained with `cfg`, epochs aside."""
    for key in ("q_tokens", "dim"):
        got, want = getattr(ckpt.params, key), getattr(cfg, key)
        if got != want:
            raise FormatError(f"checkpoint {key} {got} != config train.{key} {want}")
    if config_hash(replace(cfg, epochs=ckpt.epoch)) != ckpt.config_hash:
        raise FormatError("checkpoint was trained with another train config (epochs aside)")


def fixed_partition(n: int, batch_size: int, seed: int):
    """Seeded index batches, fixed for the whole run; drops a trailing sliver < 2."""
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    batches = [order[i : i + batch_size] for i in range(0, n, batch_size)]
    return [b for b in batches if len(b) >= 2]


def train(records, gallery, cfg: TrainConfig, resume: Checkpoint | None = None):
    """Full training loop; returns (Checkpoint, metrics rows).

    Metrics rows are dicts keyed by METRICS_COLUMNS, in order. A `resume`
    continues from its epoch and reproduces the uninterrupted run
    bit-for-bit; it raises FormatError unless it passes `check_config`, is at
    most `cfg.epochs` in, and holds one memory per batch, of that batch's
    size. A step whose total loss is not finite raises FloatingPointError
    before the parameters move.
    """
    cfg.validate()
    batches = fixed_partition(len(records), cfg.batch_size, cfg.seed)
    if not batches:
        raise ConfigError(f"empty dataset: {len(records)} records make no batch of 2 or more")
    d_in = records[0].ref_vec.shape[0]
    refs = np.stack([r.ref_vec for r in records])
    mods = np.stack([r.mod_vec for r in records])
    tgts = np.array([gallery[r.target_id].vec for r in records])
    rng = np.random.default_rng(cfg.seed + 1)
    if resume is not None:
        check_config(resume, cfg)
        if cfg.epochs < resume.epoch:
            raise FormatError(f"checkpoint epoch {resume.epoch} > config train.epochs {cfg.epochs}")
        if len(resume.memories) != len(batches):
            raise FormatError(f"checkpoint has {len(resume.memories)} memories for {len(batches)} batches")
        for bid, idx in enumerate(batches):
            sim = resume.memories[bid].prev_similarity
            if sim is not None and len(sim) != len(idx):
                raise FormatError(f"checkpoint batch {bid} memory has B {len(sim)}, the batch has {len(idx)}")
        # copies, so that training leaves `resume` as it was
        params = resume.params.copy()
        rng.bit_generator.state = json.loads(resume.rng_state)
        opt = resume.opt.copy()
        memories = {bid: replace(mem) for bid, mem in resume.memories.items()}
        start_epoch = resume.epoch
    else:
        params = init_params(d_in, cfg.q_tokens, cfg.dim, cfg.seed)
        opt = AdamWState(
            m={k: np.zeros_like(v) for k, v in params.arrays().items()},
            v={k: np.zeros_like(v) for k, v in params.arrays().items()},
        )
        memories = {i: dpl.BatchMemory() for i in range(len(batches))}
        start_epoch = 0

    metrics = []
    it = start_epoch * len(batches)
    for epoch in range(start_epoch, cfg.epochs):
        for bid, idx in enumerate(batches):
            breakdown, grads, estimates, mask, sim, outliers = loss_and_grad(
                params, refs[idx], mods[idx], tgts[idx], memories[bid], cfg, rng
            )
            if not np.isfinite(breakdown.total):
                raise FloatingPointError(
                    f"epoch {epoch}, iter {it + 1}: loss_total is {breakdown.total}"
                )
            adamw_step(params, grads, opt, cfg.learning_rate, cfg.weight_decay)
            if "no_history" not in cfg.ablations:
                memories[bid] = dpl.BatchMemory(sim, estimates, outliers, mask)
            it += 1
            row = (epoch, it, breakdown.total, breakdown.rank, breakdown.kl, breakdown.soft,
                   int(np.sum(mask == 0.0)), float(np.mean(estimates)))
            metrics.append(dict(zip(METRICS_COLUMNS, row)))
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


def save_checkpoint(ckpt: Checkpoint, path):
    """Deterministic binary checkpoint (no timestamps, bit-exact arrays)."""
    arrays = dict(ckpt.params.arrays())
    for key in PARAM_NAMES:
        arrays[f"opt_m.{key}"] = ckpt.opt.m[key]
        arrays[f"opt_v.{key}"] = ckpt.opt.v[key]
    filled = {bid: mem for bid, mem in ckpt.memories.items() if mem.prev_similarity is not None}
    for bid, mem in filled.items():
        arrays[f"mem.{bid}.sim"] = mem.prev_similarity
        arrays[f"mem.{bid}.est"] = mem.prev_estimates
        arrays[f"mem.{bid}.mask"] = mem.prev_mask
    meta = {
        "epoch": ckpt.epoch,
        "config_hash": ckpt.config_hash,
        "q_tokens": ckpt.params.q_tokens,
        "dim": ckpt.params.dim,
        "opt_step": ckpt.opt.step,
        "outliers": {str(bid): sorted(mem.prev_outliers) for bid, mem in filled.items()},
        "n_memories": len(ckpt.memories),
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
    """Read a `save_checkpoint` file; a malformed one raises FormatError.

    Beyond the byte layout, the structure must hold together: the meta
    repeats no key, the RNG state is one a PCG64 generator takes, every
    array is present and no other is, the integer fields are integers, each
    parameter's shape agrees with q_tokens, dim and the input width, each
    AdamW moment has its parameter's shape (the flat packing relies on that),
    outliers are stored only for batches below n_memories, each memory holds
    a (B, B) sim, a (B,) est and mask and distinct outliers in [0, B), and
    every array is finite.
    """
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
        meta = json.loads(take(struct.unpack("<Q", take(8))[0]),
                          object_pairs_hook=lambda pairs: _unique(path, pairs))
        rng_state = take(struct.unpack("<Q", take(8))[0])
        np.random.PCG64().state = json.loads(rng_state)  # as a resume sets it
        arrays = {}
        for key in sorted(meta["shapes"]):
            shape = tuple(meta["shapes"][key])
            blob = take(struct.unpack("<Q", take(8))[0])
            arrays[key] = np.frombuffer(blob, dtype=np.float64).reshape(shape).copy()
            if not np.isfinite(arrays[key]).all():
                raise FormatError(f"{path}: array {key!r} is not finite")
        if off != len(data):
            raise FormatError(f"{path}: trailing bytes")
        return _checkpoint_from(path, meta, arrays, rng_state)
    except FormatError:
        raise
    except (KeyError, OverflowError, RecursionError, TypeError, ValueError, struct.error) as exc:
        raise FormatError(f"{path}: corrupt checkpoint: {exc!r}") from exc


def _unique(path, pairs) -> dict:
    """A meta object; json.loads would keep the last value of a repeated key silently."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        keys = [key for key, _ in pairs]
        raise FormatError(f"{path}: meta repeats key {next(k for k in keys if keys.count(k) > 1)!r}")
    return obj


def _checkpoint_from(path, meta, arrays, rng_state) -> Checkpoint:
    read = set()

    def array(key):
        if key not in arrays:
            raise FormatError(f"{path}: missing array {key!r}")
        read.add(key)
        return arrays[key]

    def integer(key):
        value = meta.get(key)
        if type(value) is not int:
            raise FormatError(f"{path}: {key} {value!r} is not an integer")
        return value

    q_tokens, dim = integer("q_tokens"), integer("dim")
    w_t = array("w_t")
    qd, d_in = q_tokens * dim, w_t.shape[-1] if w_t.ndim else 0
    expected = {"w_c": (qd, 2 * d_in), "b_c": (qd,), "w_t": (qd, d_in), "b_t": (qd,)}
    for key, shape in expected.items():
        # each AdamW moment shares its parameter's shape and place in the flat vectors
        for name in (key, f"opt_m.{key}", f"opt_v.{key}"):
            if array(name).shape != shape:
                raise FormatError(
                    f"{path}: {name} has shape {arrays[name].shape}, not {shape} "
                    f"(q_tokens {q_tokens}, dim {dim}, input width {d_in})"
                )
    params = EncoderParams(*(arrays[k] for k in PARAM_NAMES), q_tokens=q_tokens, dim=dim)
    opt = AdamWState(
        m={k: arrays[f"opt_m.{k}"] for k in PARAM_NAMES},
        v={k: arrays[f"opt_v.{k}"] for k in PARAM_NAMES},
        step=integer("opt_step"),
    )
    n_memories = integer("n_memories")
    memories = {bid: dpl.BatchMemory() for bid in range(n_memories)}
    outliers = meta.get("outliers")
    if not isinstance(outliers, dict):
        raise FormatError(f"{path}: outliers {outliers!r} is not a batch id map")
    # only the keys save_checkpoint writes: int() would read "01" or "+1" as batch 1 again
    ids = {str(bid): bid for bid in memories}
    for bid_str, out in outliers.items():
        bid = ids.get(bid_str)
        if bid is None:
            raise FormatError(f"{path}: outliers for batch {bid_str!r} of {n_memories} batches")
        sim, est, mask = array(f"mem.{bid}.sim"), array(f"mem.{bid}.est"), array(f"mem.{bid}.mask")
        b = sim.shape[0] if sim.ndim else 0
        if (sim.shape, est.shape, mask.shape) != ((b, b), (b,), (b,)):
            raise FormatError(f"{path}: batch {bid} memory has sim {sim.shape}, est {est.shape} and "
                              f"mask {mask.shape}, not (B, B), (B,) and (B,)")
        if not (isinstance(out, list) and all(type(i) is int and 0 <= i < b for i in out)
                and len(set(out)) == len(out)):
            raise FormatError(f"{path}: batch {bid} outliers {out!r} are not distinct integers in [0, {b})")
        memories[bid] = dpl.BatchMemory(sim, est, frozenset(out), mask)
    if arrays.keys() - read:
        raise FormatError(f"{path}: unexpected arrays {sorted(arrays.keys() - read)}")
    return Checkpoint(
        params=params,
        epoch=integer("epoch"),
        config_hash=integer("config_hash"),
        rng_state=rng_state,
        opt=opt,
        memories=memories,
    )
