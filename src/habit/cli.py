"""Command-line surface: gen / train / detect / eval / sweep.

One JSON config document drives every command; flags override config
values; every run directory receives a fully materialized
resolved_config.json. Exit codes: 0 ok, 2 config, 3 io, 4 format,
5 numeric failure.
"""

from __future__ import annotations

import argparse
import copy
import csv
import dataclasses
import json
import logging
import os
import sys
from pathlib import Path

import numpy as np

from . import evaluation, synth, train as train_mod
from .errors import ConfigError, FormatError, HabitError
from .kernels import dbscan_noise_flags

log = logging.getLogger("habit")


def _default_config() -> dict:
    """A fresh dict of every default; `gen` and `train` come from their dataclasses."""
    return {
        "gen": dataclasses.asdict(synth.GenConfig()),
        "train": train_mod.TrainConfig().to_dict(),
        "split": {"test_fraction": 0.2, "seed": 0},
        "eval": {"ks": [1, 5, 10, 50], "subset_size": 6, "subset_seed": 0},
    }


def _merge_section(defaults, given, path):
    out = dict(defaults)
    for key, value in given.items():
        name = f"{path}.{key}" if path else key
        if key not in defaults:
            raise ConfigError(f"unknown config key {name}")
        # the value must have its default's JSON type; an int may stand for a float
        want = (int, float) if isinstance(defaults[key], float) else type(defaults[key])
        if not isinstance(value, want) or isinstance(value, bool):
            raise ConfigError(f"config key {name} must be {type(defaults[key]).__name__}, got {value!r}")
        if isinstance(defaults[key], dict):
            out[key] = _merge_section(defaults[key], value, name)
        else:
            out[key] = value
    return out


def load_config(path: str | None, seed: int | None = None) -> dict:
    given = {}
    if path is not None:
        with open(path) as fh:
            try:
                given = json.load(fh)
            except (json.JSONDecodeError, UnicodeDecodeError) as exc:
                raise FormatError(f"{path}: not valid JSON: {exc}") from exc
        if not isinstance(given, dict):
            raise FormatError(f"{path}: config root must be a JSON object")
    cfg = _merge_section(_default_config(), given, "")
    if seed is not None:
        cfg["gen"]["seed"] = seed
        cfg["train"]["seed"] = seed
        cfg["split"]["seed"] = seed
        cfg["eval"]["subset_seed"] = seed
    return cfg


def gen_config(cfg: dict) -> synth.GenConfig:
    g = synth.GenConfig(**cfg["gen"])
    g.validate()
    return g


def train_config(cfg: dict) -> train_mod.TrainConfig:
    kw = dict(cfg["train"])
    kw["ablations"] = frozenset(kw.get("ablations", []))
    t = train_mod.TrainConfig(**kw)
    t.validate()
    return t


def _resolved_json(cfg: dict) -> str:
    """The strict JSON text of `cfg`; a NaN or infinity in any key is a config error."""
    for name, section in cfg.items():
        for key, value in section.items():
            try:
                json.dumps(value, allow_nan=False)
            except ValueError:
                raise ConfigError(f"config key {name}.{key} must be finite, got {value!r}") from None
    return json.dumps(cfg, indent=2, sort_keys=True, allow_nan=False) + "\n"


def write_resolved(cfg: dict, out_dir: Path):
    text = _resolved_json(cfg)
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "resolved_config.json", "w", newline="\n") as fh:
        fh.write(text)


def _write_csv(path: Path, header, rows) -> None:
    """The one CSV dialect of every table: LF line ends, each float as repr(float(v))."""
    with open(path, "w", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([repr(float(v)) if isinstance(v, float) else v for v in row] for row in rows)


def _load_data(data_dir: Path):
    ds = data_dir / "dataset.jsonl"
    gal = data_dir / "gallery.jsonl"
    if not ds.exists() or not gal.exists():
        raise FileNotFoundError(f"missing dataset files under {data_dir}")
    records, gallery = synth.read_dataset(ds), synth.read_gallery(gal)
    shapes = {g.vec.shape for g in gallery} | {v.shape for r in records for v in (r.ref_vec, r.mod_vec)}
    if len(shapes) > 1:
        raise FormatError(f"{data_dir}: ref, mod and gallery vectors differ in length: {sorted(shapes)}")
    if (0,) in shapes:
        raise FormatError(f"{data_dir}: ref, mod and gallery vectors are empty")
    for r in records:
        if not 0 <= r.target_id < len(gallery):
            raise FormatError(f"{ds}: record {r.id}: target_id {r.target_id} is outside the gallery")
    for name, items, vecs in (
        ("ref", records, [r.ref_vec for r in records]),
        ("mod", records, [r.mod_vec for r in records]),
        ("gallery", gallery, [g.vec for g in gallery]),
    ):
        if not vecs:
            continue
        bad = np.flatnonzero(~np.isfinite(np.stack(vecs).reshape(len(vecs), -1)).all(axis=1))
        if bad.size:
            raise FloatingPointError(f"{data_dir}: {name} vector of id {items[bad[0]].id} is not finite")
    return records, gallery


def _load_run(cfg: dict, ckpt_path: Path, data_dir: Path):
    """Checkpoint and data for eval and detect; the checkpoint must fit the config and the data."""
    ckpt = train_mod.load_checkpoint(ckpt_path)
    train_mod.check_config(ckpt, train_config(cfg))
    records, gallery = _load_data(data_dir)
    width = gallery[0].vec.shape[0] if gallery else ckpt.params.d_in
    if width != ckpt.params.d_in:
        raise FormatError(
            f"{ckpt_path}: checkpoint input width {ckpt.params.d_in} != "
            f"vector length {width} of the data in {data_dir}"
        )
    return ckpt, records, gallery


def cmd_gen(cfg: dict, out_dir: Path) -> None:
    g = gen_config(cfg)
    records, gallery = synth.generate(g)
    out_dir.mkdir(parents=True, exist_ok=True)
    synth.write_dataset(records, out_dir / "dataset.jsonl")
    synth.write_gallery(gallery, out_dir / "gallery.jsonl")
    write_resolved(cfg, out_dir)
    log.info("wrote %d records / %d gallery entries to %s", len(records), len(gallery), out_dir)


def cmd_train(cfg: dict, data_dir: Path, out_dir: Path) -> None:
    records, gallery = _load_data(data_dir)
    tcfg = train_config(cfg)
    train_records, _ = synth.split(records, cfg["split"]["test_fraction"], cfg["split"]["seed"])
    ckpt, metrics = train_mod.train(train_records, gallery, tcfg)
    out_dir.mkdir(parents=True, exist_ok=True)
    train_mod.save_checkpoint(ckpt, out_dir / "checkpoint.bin")
    _write_csv(out_dir / "metrics.csv", train_mod.METRICS_COLUMNS, (row.values() for row in metrics))
    write_resolved(cfg, out_dir)
    log.info("trained %d epochs, checkpoint at %s", tcfg.epochs, out_dir / "checkpoint.bin")


# Batches estimated at a time, for memory first. On 3584 rows (112 batches of
# B 32, Q 4, D 16) detect alone peaks 11 MB above its inputs in chunks of 16 and
# 24 MB as one stack, and a call takes about 22 against 27 ms (2 cores).
DETECT_CHUNK = 16


def detect_masks(params, records, gallery, tcfg):
    """Inference-mode cleanliness + outlier mask, one encoded stack per batch size.

    Each stack is estimated and flagged in chunks of `DETECT_CHUNK` batches,
    which give each batch the bits of its own call. The estimates follow
    training's rule, `train.estimate`, with no rng: under `no_sample` detect
    keeps `select_standard`. `params`, `records` and `gallery` are not written.
    """
    refs = np.array([r.ref_vec for r in records])
    mods = np.array([r.mod_vec for r in records])
    tgts = np.array([gallery[r.target_id].vec for r in records])
    batches = train_mod.fixed_partition(len(records), tcfg.batch_size, tcfg.seed)
    cleanliness = np.full(len(records), np.nan)
    mask = np.ones(len(records))
    shape = (params.q_tokens, params.dim)
    # one stack per batch size: BLAS rounds the rows of a short tail batch
    # differently when they are encoded with the full batches
    for size in {len(idx) for idx in batches}:
        idx = np.array([i for i in batches if len(i) == size])
        rows = idx.reshape(-1)
        x_c = np.concatenate([refs[rows], mods[rows]], axis=1)
        f, _, _, pooled = train_mod._encode_batch(
            [(params.w_c, params.b_c, x_c), (params.w_t, params.b_t, tgts[rows])], *shape)
        f_c, f_t, q, t = (a.reshape(idx.shape + a.shape[1:]) for a in (*f, *pooled))
        for lo in range(0, len(idx), DETECT_CHUNK):
            s = slice(lo, lo + DETECT_CHUNK)
            est = train_mod.estimate(f_c[s], f_t[s], q[s] @ np.swapaxes(t[s], -1, -2), tcfg)
            cleanliness[idx[s]] = est
            mask[idx[s][dbscan_noise_flags(est, tcfg.dbscan_eps, tcfg.min_pts()) == 1]] = 0.0
    covered = ~np.isnan(cleanliness)
    return cleanliness, mask, covered


def cmd_detect(cfg: dict, ckpt_path: Path, data_dir: Path, out_dir: Path) -> evaluation.DetectionReport:
    ckpt, records, gallery = _load_run(cfg, ckpt_path, data_dir)
    tcfg = train_config(cfg)
    train_records, _ = synth.split(records, cfg["split"]["test_fraction"], cfg["split"]["seed"])
    if not train_records:
        raise ConfigError("empty train split; nothing to detect")
    cleanliness, mask, covered = detect_masks(ckpt.params, train_records, gallery, tcfg)
    kept = [i for i in range(len(train_records)) if covered[i]]
    report = evaluation.detection_metrics(
        mask[kept], cleanliness[kept], [train_records[i].noise_label for i in kept]
    )
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = [[train_records[i].id, cleanliness[i], int(mask[i]), train_records[i].noise_label]
            for i in kept]
    rows += [[name, getattr(report, name)] for name in ("precision", "recall", "f1", "auc")]
    _write_csv(out_dir / "detection.csv", ["id", "cleanliness", "mask", "truth"], rows)
    write_resolved(cfg, out_dir)
    log.info("detection F1=%.4f AUC=%.4f", report.f1, report.auc)
    return report


def cmd_eval(
    cfg: dict, ckpt_path: Path, data_dir: Path, out_dir: Path, ks=None
) -> evaluation.RetrievalReport:
    ks = list(ks) if ks is not None else list(cfg["eval"]["ks"])
    if not ks or not all(isinstance(k, int) and not isinstance(k, bool) and k >= 1 for k in ks):
        raise ConfigError(f"eval.ks or --ks must list integers K >= 1, got {ks!r}")
    ckpt, records, gallery = _load_run(cfg, ckpt_path, data_dir)
    _, test_records = synth.split(records, cfg["split"]["test_fraction"], cfg["split"]["seed"])
    if not test_records:
        raise ConfigError("empty test split; nothing to evaluate")
    refs = np.stack([r.ref_vec for r in test_records])
    mods = np.stack([r.mod_vec for r in test_records])
    gal = np.stack([g.vec for g in gallery])
    true_ids = [r.target_id for r in test_records]
    subsets = evaluation.build_subsets(
        true_ids, len(gallery), cfg["eval"]["subset_seed"], cfg["eval"]["subset_size"]
    )

    ranked = evaluation.rank_gallery(ckpt.params, refs, mods, gal)
    report = evaluation.recall_at_k(ranked, true_ids, ks)
    sub = evaluation.recall_subset(ckpt.params, refs, mods, gal, true_ids, subsets)

    out_dir.mkdir(parents=True, exist_ok=True)
    rows = [["recall", k, report.recall_at[k]] for k in sorted(report.recall_at)]
    rows += [["recall_sub", k, sub[k]] for k in sorted(sub)]
    _write_csv(out_dir / "report.csv", ["metric", "k", "value"], rows)
    write_resolved(cfg, out_dir)
    log.info("R@K over %d queries: %s", report.n_queries, report.recall_at)
    return report


SWEEP_AXES = {"sigma": ("gen", "sigma"), "kappa": ("train", "kappa"), "gamma": ("train", "gamma")}


def cmd_sweep(cfg: dict, axis: str, values, out_dir: Path) -> None:
    if axis not in SWEEP_AXES:
        raise ConfigError(f"unknown sweep axis {axis!r}; pick one of {sorted(SWEEP_AXES)}")
    if not values or not np.isfinite(values).all():
        raise ConfigError(f"sweep needs one or more finite values, got {values!r}")
    section, key = SWEEP_AXES[axis]
    names = [f"{axis}_{value:g}" for value in values]
    shared = sorted({name for name in names if names.count(name) > 1})
    if shared:
        raise ConfigError(f"run directories name a value by 6 significant digits; values share {shared}")
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    for value, name in zip(values, names):
        run_cfg = copy.deepcopy(cfg)
        run_cfg[section][key] = value
        run_dir = out_dir / name
        try:
            cmd_gen(run_cfg, run_dir / "data")
            cmd_train(run_cfg, run_dir / "data", run_dir)
            retrieval = cmd_eval(run_cfg, run_dir / "checkpoint.bin", run_dir / "data", run_dir)
            detection = cmd_detect(run_cfg, run_dir / "checkpoint.bin", run_dir / "data", run_dir)
        except (HabitError, FloatingPointError) as exc:
            log.warning("sweep value %s failed: %s", value, exc)
            rows.append([axis, value, f"failed: {exc}", "", ""])
            continue
        rows.append([axis, value, "ok", retrieval.recall_at.get(10, ""), detection.f1])
    header = ["axis", "value", "status", "r_at_10", "detection_f1"]
    _write_csv(out_dir / "sweep_summary.csv", header, rows)


def build_parser():
    parser = argparse.ArgumentParser(prog="habit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, data=False, ckpt=False):
        p.add_argument("--config", default=None, help="JSON config file")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override every seed")
        if data:
            p.add_argument("--data", required=True, help="directory with dataset.jsonl/gallery.jsonl")
        if ckpt:
            p.add_argument("--ckpt", required=True, help="checkpoint file")

    common(sub.add_parser("gen", help="generate a synthetic noisy triplet dataset"))
    common(sub.add_parser("train", help="train on a generated dataset"), data=True)
    common(sub.add_parser("detect", help="score/flag noisy training samples"), data=True, ckpt=True)
    p_eval = sub.add_parser("eval", help="retrieval recall on the clean test split")
    common(p_eval, data=True, ckpt=True)
    p_eval.add_argument("--ks", default=None, help="comma-separated K values, e.g. 1,5,10")
    p_sweep = sub.add_parser("sweep", help="run gen/train/eval/detect across one axis")
    common(p_sweep)
    p_sweep.add_argument("--axis", required=True, choices=sorted(SWEEP_AXES))
    p_sweep.add_argument("--values", required=True, help="comma-separated values")
    return parser


def _parse_ks(text):
    if text is None:
        return None
    try:
        return [int(x) for x in text.split(",") if x.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad --ks value {text!r}: {exc}") from exc


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    level = {"quiet": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}.get(
        os.environ.get("HABIT_LOG", "info").lower(), logging.INFO
    )
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")
    cfg = load_config(args.config, args.seed)
    # every command checks the train section, the split and eval seeds and that every key is finite
    train_config(cfg)
    for section, key in (("split", "seed"), ("eval", "subset_seed")):
        if cfg[section][key] < 0:
            raise ConfigError(f"{section}.{key} must be >= 0")
    _resolved_json(cfg)
    out = Path(args.out)
    if args.command == "gen":
        cmd_gen(cfg, out)
    elif args.command == "train":
        cmd_train(cfg, Path(args.data), out)
    elif args.command == "detect":
        cmd_detect(cfg, Path(args.ckpt), Path(args.data), out)
    elif args.command == "eval":
        cmd_eval(cfg, Path(args.ckpt), Path(args.data), out, _parse_ks(args.ks))
    else:  # sweep: the subparsers admit no other command
        try:
            values = [float(x) for x in args.values.split(",") if x.strip()]
        except ValueError as exc:
            raise ConfigError(f"bad --values {args.values!r}: {exc}") from exc
        cmd_sweep(cfg, args.axis, values, out)
    return 0


def main(argv=None) -> int:
    try:
        return run(argv)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 3
    except FormatError as exc:
        print(f"format error: {exc}", file=sys.stderr)
        return 4
    except (FloatingPointError, HabitError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
