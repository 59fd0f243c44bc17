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
            ("kappa", 0), ("gamma", 0), ("weight_decay", 0), ("dbscan_min_pts", 0),
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
    if (rn < ROW_NORM_EPS).any():
        raise ZeroRow("degenerate token row during batch encoding")
    f = tok / rn[:, :, None]
    vmean = f.sum(axis=1) / q_tokens  # f.mean(axis=1), without its overhead
    vn = np.sqrt(np.einsum("bd,bd->b", vmean, vmean))
    if (vn < ROW_NORM_EPS).any():
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


# Each loss term returns (value, d_sim) in one pass. habitbench/run.py traces
# the terms by wrapping these three names, so loss_and_grad calls them here.
_grad_rank, _grad_kl, _grad_soft = dpl._rank_term, dpl._kl_term, dpl._soft_term


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
    else:
        # without chrono-synergia an outlier now is masked now
        no_cs = cfg.has("no_cs") or cfg.has("no_history")
        mask = dpl.chrono_mask(outliers, outliers if no_cs else memory.prev_outliers, b)

    ones = np.ones(b)
    mask_rank = ones if cfg.has("no_mask") or cfg.has("no_mask_rank") else mask
    mask_soft = ones if cfg.has("no_mask") or cfg.has("no_mask_soft") else mask
    mask_kl = ones if cfg.has("no_mask") or cfg.has("no_mask_kl") else mask

    # --- losses on the similarity matrix ---
    g_sim = np.zeros_like(sim)
    rank = kl = soft = 0.0
    if not cfg.has("no_rank"):
        rank, g = _grad_rank(sim, mask_rank, cfg.tau)
        g_sim += g

    use_kl = not (cfg.has("no_kl") or cfg.has("no_history"))
    if use_kl and memory.prev_similarity is not None:
        prev_mask_kl = (
            ones if cfg.has("no_mask") or cfg.has("no_mask_kl") else memory.prev_mask
        )
        kl, g = _grad_kl(sim, memory.prev_similarity, mask_kl, prev_mask_kl, cfg.tau)
        g_sim += cfg.kappa * g

    if not cfg.has("no_soft"):
        margins_from = ones if cfg.has("no_mke") else estimates
        soft, g = _grad_soft(sim, margins_from, mask_soft, cfg.m_base)
        g_sim += cfg.gamma * g

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


def adamw_step(params, grads, state, lr, weight_decay, beta1=0.9, beta2=0.999, eps=1e-8):
    """Decoupled-weight-decay adaptive-moment update, in place, in one pass.

    Elementwise this is, in this order of operations,
    m = beta1*m + (1-beta1)*g;  v = beta2*v + (1-beta2)*g*g;
    p -= lr*m_hat / (sqrt(v_hat) + eps);  p -= lr*weight_decay*p,
    with m_hat = m / (1-beta1**t) and v_hat = v / (1-beta2**t).
    """
    state.step += 1
    t = state.step
    g = np.concatenate([grads[k] for k in PARAM_NAMES], axis=None)
    m, v, p = state.m_flat, state.v_flat, params.flat
    m *= beta1
    m += (1 - beta1) * g
    v *= beta2
    v += (1 - beta2) * g * g
    denom = np.sqrt(v / (1 - beta2**t))
    denom += eps
    update = m / (1 - beta1**t)
    update *= lr
    update /= denom
    p -= update
    p -= lr * weight_decay * p


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
    that passes `check_config` continues from its epoch and reproduces the
    uninterrupted run bit-for-bit. A step whose total loss is not finite
    raises FloatingPointError before the parameters move.
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
        check_config(resume, cfg)
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

    Beyond the byte layout, the structure must hold together: every array
    is present, the integer fields are integers, each parameter's shape
    agrees with q_tokens, dim and the input width, each AdamW moment has its
    parameter's shape (the flat packing relies on that), and outliers are
    stored only for batches below n_memories.
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
        meta = json.loads(take(struct.unpack("<Q", take(8))[0]))
        rng_state = take(struct.unpack("<Q", take(8))[0])
        arrays = {}
        for key in sorted(meta["shapes"]):
            shape = tuple(meta["shapes"][key])
            blob = take(struct.unpack("<Q", take(8))[0])
            arrays[key] = np.frombuffer(blob, dtype=np.float64).reshape(shape).copy()
        if off != len(data):
            raise FormatError(f"{path}: trailing bytes")
        return _checkpoint_from(path, meta, arrays, rng_state)
    except FormatError:
        raise
    except (KeyError, TypeError, ValueError, struct.error) as exc:
        raise FormatError(f"{path}: corrupt checkpoint: {exc!r}") from exc


def _checkpoint_from(path, meta, arrays, rng_state) -> Checkpoint:
    def array(key):
        if key not in arrays:
            raise FormatError(f"{path}: missing array {key!r}")
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
    for bid_str, out in outliers.items():
        bid = int(bid_str)
        if bid not in memories:
            raise FormatError(f"{path}: outliers for batch {bid_str} of {n_memories} batches")
        mem = memories[bid]
        mem.prev_outliers = frozenset(out)
        mem.prev_similarity = array(f"mem.{bid}.sim")
        mem.prev_estimates = array(f"mem.{bid}.est")
        mem.prev_mask = array(f"mem.{bid}.mask")
    return Checkpoint(
        params=params,
        epoch=integer("epoch"),
        config_hash=integer("config_hash"),
        rng_state=rng_state,
        opt=opt,
        memories=memories,
    )
