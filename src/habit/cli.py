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


def validate_config(cfg: dict):
    """The one check of every command: `cfg` as (GenConfig, TrainConfig), or ConfigError.

    Every key must be strict JSON (no NaN or infinity), `gen` and `train` must
    pass their `validate`, `split.seed` and `eval.subset_seed` must be >= 0,
    `split.test_fraction` in (0, 1), `eval.subset_size` >= 1 and `eval.ks` a
    non-empty list of integers >= 1. A config one command refuses, every command refuses.
    """
    for name, section in cfg.items():
        for key, value in section.items():
            try:
                json.dumps(value, allow_nan=False)
            except ValueError:
                raise ConfigError(f"config key {name}.{key} must be finite, got {value!r}") from None
    gcfg = synth.GenConfig(**cfg["gen"])
    gcfg.validate()
    ablations = cfg["train"]["ablations"]
    if not all(isinstance(flag, str) for flag in ablations):
        raise ConfigError(f"train.ablations must list flag names, got {ablations!r}")
    tcfg = train_mod.TrainConfig(**dict(cfg["train"], ablations=frozenset(ablations)))
    tcfg.validate()
    split, ev = cfg["split"], cfg["eval"]
    for name, value in (("split.seed", split["seed"]), ("eval.subset_seed", ev["subset_seed"])):
        if value < 0:
            raise ConfigError(f"{name} must be >= 0")
    if not 0.0 < split["test_fraction"] < 1.0:
        raise ConfigError(f"split.test_fraction={split['test_fraction']} outside (0, 1)")
    if ev["subset_size"] < 1:
        raise ConfigError(f"eval.subset_size {ev['subset_size']}: a subset size must be >= 1")
    if not ev["ks"] or not all(type(k) is int and k >= 1 for k in ev["ks"]):
        raise ConfigError(f"eval.ks or --ks must list integers K >= 1, got {ev['ks']!r}")
    return gcfg, tcfg


def write_resolved(cfg: dict, out_dir: Path):
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "resolved_config.json", "w", newline="\n") as fh:
        fh.write(json.dumps(cfg, indent=2, sort_keys=True, allow_nan=False) + "\n")


def _write_csv(path: Path, header, rows) -> None:
    """The one CSV dialect of every table: LF line ends, each float as repr(float(v))."""
    with open(path, "w", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([repr(float(v)) if isinstance(v, float) else v for v in row] for row in rows)


def _load_data(data_dir: Path, split: dict):
    """The train and test splits of the records under `data_dir`, and its gallery."""
    ds = data_dir / "dataset.jsonl"
    gal = data_dir / "gallery.jsonl"
    if not ds.exists() or not gal.exists():
        raise FileNotFoundError(f"missing dataset files under {data_dir}")
    records, gallery = synth.read_dataset(ds), synth.read_gallery(gal)
    # a record's target_id indexes the gallery by position, so each id must be its position
    bad = next((n for n, g in enumerate(gallery) if g.id != n), None)
    if bad is not None:
        raise FormatError(f"{gal}: the entry at position {bad} has id {gallery[bad].id}: "
                          f"gallery ids must be 0..{len(gallery) - 1} in file order")
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
    return (*synth.split(records, split["test_fraction"], split["seed"]), gallery)


def _load_run(tcfg, split: dict, ckpt_path: Path, data_dir: Path):
    """Checkpoint and data for eval and detect; the checkpoint must fit the config and the data."""
    ckpt = train_mod.load_checkpoint(ckpt_path)
    train_mod.check_config(ckpt, tcfg)
    train_records, test_records, gallery = _load_data(data_dir, split)
    width = gallery[0].vec.shape[0] if gallery else ckpt.params.d_in
    if width != ckpt.params.d_in:
        raise FormatError(
            f"{ckpt_path}: checkpoint input width {ckpt.params.d_in} != "
            f"vector length {width} of the data in {data_dir}"
        )
    return ckpt, train_records, test_records, gallery


def cmd_gen(cfg: dict, gcfg, out_dir: Path) -> None:
    records, gallery = synth.generate(gcfg)
    out_dir.mkdir(parents=True, exist_ok=True)
    synth.write_dataset(records, out_dir / "dataset.jsonl")
    synth.write_gallery(gallery, out_dir / "gallery.jsonl")
    write_resolved(cfg, out_dir)
    log.info("wrote %d records / %d gallery entries to %s", len(records), len(gallery), out_dir)


def cmd_train(cfg: dict, tcfg, data_dir: Path, out_dir: Path) -> None:
    train_records, _, gallery = _load_data(data_dir, cfg["split"])
    ckpt, metrics = train_mod.train(train_records, gallery, tcfg)
    out_dir.mkdir(parents=True, exist_ok=True)
    train_mod.save_checkpoint(ckpt, out_dir / "checkpoint.bin")
    _write_csv(out_dir / "metrics.csv", train_mod.METRICS_COLUMNS, (row.values() for row in metrics))
    write_resolved(cfg, out_dir)
    log.info("trained %d epochs, checkpoint at %s", tcfg.epochs, out_dir / "checkpoint.bin")


# Batches encoded and estimated at a time, for memory first. On 3600 rows (B 32,
# Q 4, D 16) detect allocates at most 4.5 MB in chunks of 16 and 22 MB as one
# stack (tracemalloc), and a call takes about 18 against 23 ms (2 cores).
DETECT_CHUNK = 16


def detect_masks(params, records, gallery, tcfg):
    """Inference-mode cleanliness + outlier mask, in stacks of `DETECT_CHUNK` batches of one size.

    Each stack is encoded, estimated and flagged at once, giving every batch the
    bits of its own call. The estimates follow training's rule, `train.estimate`,
    with no rng: under `no_sample` detect keeps `select_standard`. `params`,
    `records` and `gallery` are not written.
    """
    refs = np.array([r.ref_vec for r in records])
    mods = np.array([r.mod_vec for r in records])
    tgts = np.array([gallery[r.target_id].vec for r in records])
    batches = train_mod.fixed_partition(len(records), tcfg.batch_size, tcfg.seed)
    cleanliness = np.full(len(records), np.nan)
    mask = np.ones(len(records))
    shape = (params.q_tokens, params.dim)
    for size in {len(idx) for idx in batches}:
        idx = np.array([i for i in batches if len(i) == size])
        for ix in np.split(idx, range(DETECT_CHUNK, len(idx), DETECT_CHUNK)):
            x_c = np.concatenate([refs[ix], mods[ix]], axis=-1)
            (f_c, f_t), _, _, (q, t) = train_mod._encode_batch(
                [(params.w_c, params.b_c, x_c), (params.w_t, params.b_t, tgts[ix])], *shape)
            est = train_mod.estimate(f_c, f_t, q @ np.swapaxes(t, -1, -2), tcfg)
            cleanliness[ix] = est
            mask[ix[dbscan_noise_flags(est, tcfg.dbscan_eps, tcfg.min_pts()) == 1]] = 0.0
    covered = ~np.isnan(cleanliness)
    return cleanliness, mask, covered


def cmd_detect(cfg: dict, tcfg, ckpt_path: Path, data_dir: Path, out_dir: Path) -> evaluation.DetectionReport:
    ckpt, train_records, _, gallery = _load_run(tcfg, cfg["split"], ckpt_path, data_dir)
    cleanliness, mask, covered = detect_masks(ckpt.params, train_records, gallery, tcfg)
    if not covered.any():
        raise ConfigError("empty train split: no batch of 2 or more records to detect on")
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


def cmd_eval(cfg: dict, tcfg, ckpt_path: Path, data_dir: Path, out_dir: Path) -> evaluation.RetrievalReport:
    ckpt, _, test_records, gallery = _load_run(tcfg, cfg["split"], ckpt_path, data_dir)
    if not test_records:
        raise ConfigError("empty test split; nothing to evaluate")
    refs = np.stack([r.ref_vec for r in test_records])
    mods = np.stack([r.mod_vec for r in test_records])
    gal = np.stack([g.vec for g in gallery])
    true_ids = [r.target_id for r in test_records]
    subsets = evaluation.build_subsets(
        true_ids, len(gallery), cfg["eval"]["subset_seed"], cfg["eval"]["subset_size"]
    )

    keys = evaluation.rank_gallery(ckpt.params, refs, mods, gal)
    report = evaluation.recall_at_k(keys, true_ids, cfg["eval"]["ks"])
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
            gcfg, tcfg = validate_config(run_cfg)
            cmd_gen(run_cfg, gcfg, run_dir / "data")
            cmd_train(run_cfg, tcfg, run_dir / "data", run_dir)
            retrieval = cmd_eval(run_cfg, tcfg, run_dir / "checkpoint.bin", run_dir / "data", run_dir)
            detection = cmd_detect(run_cfg, tcfg, run_dir / "checkpoint.bin", run_dir / "data", run_dir)
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


def _parse_list(text, kind, flag):
    try:
        return [kind(x) for x in text.split(",") if x.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad {flag} {text!r}: {exc}") from exc


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    level = {"quiet": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}.get(
        os.environ.get("HABIT_LOG", "info").lower(), logging.INFO
    )
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")
    cfg = load_config(args.config, args.seed)
    if getattr(args, "ks", None) is not None:
        cfg["eval"]["ks"] = _parse_list(args.ks, int, "--ks")
    gcfg, tcfg = validate_config(cfg)
    out = Path(args.out)
    if args.command == "gen":
        cmd_gen(cfg, gcfg, out)
    elif args.command == "train":
        cmd_train(cfg, tcfg, Path(args.data), out)
    elif args.command == "detect":
        cmd_detect(cfg, tcfg, Path(args.ckpt), Path(args.data), out)
    elif args.command == "eval":
        cmd_eval(cfg, tcfg, Path(args.ckpt), Path(args.data), out)
    else:  # sweep: the subparsers admit no other command
        cmd_sweep(cfg, args.axis, _parse_list(args.values, float, "--values"), out)
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
