"""Synthetic triplet benchmark with controllable correspondence noise.

Each clean triplet is built from a latent integer attribute vector `a`:
the reference embeds `a`, the modification embeds a sparse delta, and the
target gallery entry embeds `a + delta` plus optional Gaussian
"unmentioned discrepancy" noise. Corrupted records either describe only
part of the delta (`partial`) or point at a wrong gallery entry
(`mismatch`); ground-truth labels are kept for diagnostics.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, FormatError

NOISE_LABELS = ("clean", "partial", "mismatch")
ATTR_LEVELS = 5  # latent attributes take values in [0, ATTR_LEVELS)
# embed attributes centered so random pairs are near-orthogonal instead of
# sharing one large mean component
_ATTR_CENTER = (ATTR_LEVELS - 1) / 2.0


@dataclass
class GenConfig:
    n_triplets: int = 2000
    n_gallery: int = 2500
    d_in: int = 16
    n_attrs: int = 8
    sigma: float = 0.0
    partial_fraction: float = 0.5
    unmentioned_noise_std: float = 0.1
    seed: int = 0

    def validate(self):
        for name, value in vars(self).items():
            if isinstance(value, float) and not np.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value}")
        if self.n_triplets < 1:
            raise ConfigError("n_triplets must be >= 1")
        if self.n_gallery < self.n_triplets:
            raise ConfigError("n_gallery must be >= n_triplets")
        if self.d_in < self.n_attrs:
            raise ConfigError("d_in must be >= n_attrs")
        # the largest arrays are the (d_in, d_in) draw of the projection and the
        # (n_gallery, d_in) gallery; numpy sizes no array of more bytes than intp holds
        if max(self.d_in, self.n_gallery) * self.d_in * 8 > np.iinfo(np.intp).max:
            raise ConfigError(f"d_in {self.d_in} with n_gallery {self.n_gallery}: an array too big to size")
        if self.n_attrs < 2:
            raise ConfigError("n_attrs must be >= 2 (partial noise needs |delta| >= 2)")
        if ATTR_LEVELS**self.n_attrs < 2 * self.n_gallery:
            raise ConfigError("attribute space too small for distinct gallery entries")
        if not 0.0 <= self.sigma <= 1.0:
            raise ConfigError(f"sigma={self.sigma} outside [0, 1]")
        if not 0.0 <= self.partial_fraction <= 1.0:
            raise ConfigError(f"partial_fraction={self.partial_fraction} outside [0, 1]")
        if self.unmentioned_noise_std < 0.0:
            raise ConfigError("unmentioned_noise_std must be >= 0")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")


@dataclass
class TripletRecord:
    id: int
    ref_vec: np.ndarray
    mod_vec: np.ndarray
    target_id: int
    noise_label: str
    # latent diagnostics, not part of the wire format
    attrs: np.ndarray | None = field(default=None, repr=False)
    described_delta: np.ndarray | None = field(default=None, repr=False)


@dataclass
class GalleryEntry:
    id: int
    vec: np.ndarray
    attributes: np.ndarray | None = field(default=None, repr=False)


def _attribute_projection(rng, d_in, n_attrs):
    # near-orthonormal columns so attribute geometry survives embedding
    g = rng.standard_normal((d_in, d_in))
    q, _ = np.linalg.qr(g)
    return q[:, :n_attrs]


def _distinct_attribute_vectors(rng, n, n_attrs):
    # a round draws only the missing vectors: the draws of one at a time, same end state
    seen, out = set(), []
    while len(out) < n:
        for key in map(tuple, rng.integers(0, ATTR_LEVELS, size=(n - len(out), n_attrs)).tolist()):
            if key not in seen:
                seen.add(key)
                out.append(key)
    return np.array(out, dtype=np.float64)


def _embed(proj, rows):
    # bitwise equal to `proj @ row` per row; `rows @ proj.T` rounds differently
    return np.matmul(proj, rows[:, :, None])[:, :, 0]


def generate(cfg: GenConfig):
    """Build (records, gallery) deterministically from cfg.seed."""
    cfg.validate()
    rng = np.random.default_rng(cfg.seed)
    proj = _attribute_projection(rng, cfg.d_in, cfg.n_attrs)

    target_attrs = _distinct_attribute_vectors(rng, cfg.n_gallery, cfg.n_attrs)
    vecs = _embed(proj, target_attrs - _ATTR_CENTER)
    if cfg.unmentioned_noise_std > 0:
        vecs = vecs + rng.normal(0.0, cfg.unmentioned_noise_std, size=vecs.shape)
    gallery = [GalleryEntry(id=g, vec=vecs[g], attributes=target_attrs[g]) for g in range(cfg.n_gallery)]

    # triplet i targets gallery entry i; remaining entries are distractors
    deltas = np.zeros((cfg.n_triplets, cfg.n_attrs))
    for delta in deltas:
        support_size = int(rng.integers(2, min(3, cfg.n_attrs) + 1))
        support = rng.choice(cfg.n_attrs, size=support_size, replace=False)
        for k in support:
            step = 0.0
            while step == 0.0:
                step = float(rng.integers(-2, 3))
            delta[k] = step
    ref_attrs = target_attrs[: cfg.n_triplets] - deltas
    ref_vecs, mod_vecs = _embed(proj, ref_attrs - _ATTR_CENTER), _embed(proj, deltas)
    records = [
        TripletRecord(id=i, ref_vec=ref_vecs[i], mod_vec=mod_vecs[i], target_id=i, noise_label="clean",
                      attrs=ref_attrs[i], described_delta=deltas[i].copy())
        for i in range(cfg.n_triplets)
    ]

    n_noisy = int(np.floor(cfg.sigma * cfg.n_triplets))
    noisy_ids = rng.choice(cfg.n_triplets, size=n_noisy, replace=False)
    n_partial = int(round(cfg.partial_fraction * n_noisy))
    for pos, rid in enumerate(noisy_ids):
        rec = records[int(rid)]
        if pos < n_partial:
            # describe only a nonempty strict subset of the true delta
            support = np.flatnonzero(rec.described_delta)
            keep = int(rng.integers(1, len(support)))
            kept = rng.choice(support, size=keep, replace=False)
            sub = np.zeros(cfg.n_attrs)
            for k in kept:
                sub[k] = rec.described_delta[k]
            rec.mod_vec = proj @ sub
            rec.described_delta = sub
            rec.noise_label = "partial"
        else:
            wrong = int(rng.integers(0, cfg.n_gallery - 1))
            if wrong >= rec.target_id:
                wrong += 1
            rec.target_id = wrong
            rec.noise_label = "mismatch"
    return records, gallery


def split(records, fraction: float, seed: int):
    """Seeded disjoint/exhaustive split; the test side keeps only clean records."""
    if not 0.0 < fraction < 1.0:
        raise ConfigError(f"fraction={fraction} outside (0, 1)")
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(records))
    clean_positions = [i for i in order if records[i].noise_label == "clean"]
    n_test = int(np.floor(fraction * len(clean_positions)))
    test_set = set(clean_positions[:n_test])
    train = [records[i] for i in order if i not in test_set]
    test = [records[i] for i in sorted(test_set)]
    if not test:
        warnings.warn("test split is empty (no clean records available)")
    return train, test


def _fmt(vec):
    return "[" + ", ".join(["%.17g"] * len(vec)) % tuple(vec.tolist()) + "]"


def write_dataset(records, path):
    with open(path, "w", newline="\n") as fh:
        for r in records:
            fh.write(
                '{"id": %d, "ref": %s, "mod": %s, "target_id": %d, "noise_label": "%s"}\n'
                % (r.id, _fmt(r.ref_vec), _fmt(r.mod_vec), r.target_id, r.noise_label)
            )


def write_gallery(gallery, path):
    with open(path, "w", newline="\n") as fh:
        for g in gallery:
            fh.write('{"id": %d, "vec": %s}\n' % (g.id, _fmt(g.vec)))


# %.17g writes -0.0 as "-0"; read as the float, it keeps its sign bit
_DECODER = json.JSONDecoder(parse_int=lambda text: -0.0 if text == "-0" else int(text))


def _read_jsonl(path, what, parse):
    """parse(obj) for each non-blank JSON line of `path`; a malformed line raises FormatError."""
    try:
        with open(path) as fh:
            return [parse(_DECODER.decode(line)) for line in fh if line.strip()]
    except (json.JSONDecodeError, KeyError, OverflowError, RecursionError, TypeError, ValueError) as exc:
        raise FormatError(f"bad {what} file {path}: {exc}") from exc


def _id(obj, key):
    if type(obj[key]) is not int:  # bool is not an id, nor is 2.0 or "2"
        raise TypeError(f"{key} {obj[key]!r} is not a JSON integer")
    return obj[key]


_NUMBER_TYPES = frozenset({int, float})


def _vector(obj, key):
    # float64 from the start: an all-integral vector, written as "1, 0, ...", keeps its bits
    if type(obj[key]) is not list or not _NUMBER_TYPES.issuperset(map(type, obj[key])):
        raise TypeError(f"{key} is not a flat list of JSON numbers")
    return np.array(obj[key], dtype=np.float64)


def _record(obj):
    if obj["noise_label"] not in NOISE_LABELS:
        raise ValueError(f"unknown noise_label {obj['noise_label']!r}")
    return TripletRecord(id=_id(obj, "id"), ref_vec=_vector(obj, "ref"), mod_vec=_vector(obj, "mod"),
                         target_id=_id(obj, "target_id"), noise_label=obj["noise_label"])


def read_dataset(path):
    return _read_jsonl(path, "dataset", _record)


def read_gallery(path):
    return _read_jsonl(path, "gallery", lambda obj: GalleryEntry(id=_id(obj, "id"), vec=_vector(obj, "vec")))
