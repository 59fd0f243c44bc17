import contextlib
import csv
import hashlib
import io
import json
import re
import struct
import tempfile
from collections import namedtuple
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from habit import cli, dpl, mke, synth, train as train_mod
from habit.errors import ConfigError

SMALL = {
    "gen": {
        "n_triplets": 40, "n_gallery": 60, "d_in": 10, "n_attrs": 5,
        "sigma": 0.3, "unmentioned_noise_std": 0.05, "seed": 11,
    },
    "train": {"epochs": 3, "batch_size": 8, "q_tokens": 2, "dim": 6, "seed": 11},
    "split": {"test_fraction": 0.25, "seed": 11},
    "eval": {"ks": [1, 5, 10], "subset_size": 4, "subset_seed": 11},
}


def config_text(overrides=None):
    """`SMALL` as JSON, with the keys of each section of `overrides` replaced."""
    cfg = json.loads(json.dumps(SMALL))
    for section, kv in (overrides or {}).items():
        cfg.setdefault(section, {}).update(kv)
    return json.dumps(cfg)


def write_config(tmp_path, overrides=None):
    path = tmp_path / "config.json"
    path.write_text(config_text(overrides))
    return str(path)


def test_unknown_config_key_rejected(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"gen": {"bogus_key": 1}}))
    with pytest.raises(ConfigError):
        cli.load_config(str(path))


def test_config_wrong_type_exit_2(tmp_path):
    # an int stands for a float, not the other way round (a wrong type under
    # the CLI is the row train.epochs-ten of the bad-config table)
    assert cli.load_config(write_config(tmp_path, {"train": {"learning_rate": 1}}))
    with pytest.raises(ConfigError):
        cli.load_config(write_config(tmp_path, {"train": {"batch_size": 8.0}}))


def test_gen_sigma_zero_all_clean(tmp_path):
    cfg_path = write_config(tmp_path, {"gen": {"sigma": 0.0}})
    assert cli.main(["gen", "--config", cfg_path, "--out", str(tmp_path / "out")]) == 0
    lines = (tmp_path / "out" / "dataset.jsonl").read_text().splitlines()
    assert all('"noise_label": "clean"' in ln for ln in lines)
    assert (tmp_path / "out" / "resolved_config.json").exists()


def test_gen_rerun_byte_identical(tmp_path):
    cfg_path = write_config(tmp_path)
    cli.main(["gen", "--config", cfg_path, "--out", str(tmp_path / "a")])
    cli.main(["gen", "--config", cfg_path, "--out", str(tmp_path / "b")])
    for name in ("dataset.jsonl", "gallery.jsonl", "resolved_config.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def full_pipeline(tmp_path, overrides=None):
    cfg_path = write_config(tmp_path, overrides)
    data = str(tmp_path / "data")
    run = str(tmp_path / "run")
    assert cli.main(["gen", "--config", cfg_path, "--out", data]) == 0
    assert cli.main(["train", "--config", cfg_path, "--data", data, "--out", run]) == 0
    return cfg_path, data, run


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    """The data and run directories of the `SMALL` pipeline, built once; tests only read them."""
    return full_pipeline(tmp_path_factory.mktemp("small"))[1:]


FUZZ_FILES = {"dataset.jsonl": "data", "gallery.jsonl": "data", "checkpoint.bin": "run", "config.json": "."}


@pytest.fixture(scope="module")
def small_files(small_run):
    """The bytes of the `SMALL` pipeline's inputs: its config, data and checkpoint."""
    root = Path(small_run[0]).parent
    return {name: (root / where / name).read_bytes() for name, where in FUZZ_FILES.items()}


def test_train_outputs_and_determinism(tmp_path):
    cfg_path, data, run = full_pipeline(tmp_path)
    run2 = str(tmp_path / "run2")
    assert cli.main(["train", "--config", cfg_path, "--data", data, "--out", run2]) == 0
    assert (tmp_path / "run" / "checkpoint.bin").read_bytes() == (
        tmp_path / "run2" / "checkpoint.bin"
    ).read_bytes()
    assert (tmp_path / "run" / "metrics.csv").read_bytes() == (
        tmp_path / "run2" / "metrics.csv"
    ).read_bytes()
    with open(tmp_path / "run" / "metrics.csv") as fh:
        header = fh.readline().strip()
    assert header == "epoch,iter,loss_total,loss_rank,loss_kl,loss_soft,masked_count,mean_cleanliness"


def test_train_zero_epochs_noop(tmp_path):
    cfg_path, data, run = full_pipeline(tmp_path, {"train": {"epochs": 0}})
    with open(tmp_path / "run" / "metrics.csv") as fh:
        assert len(fh.read().splitlines()) == 1  # header only


def test_eval_reports_recall(tmp_path):
    cfg_path, data, run = full_pipeline(tmp_path)
    out = str(tmp_path / "eval")
    code = cli.main(
        ["eval", "--config", cfg_path, "--ckpt", f"{run}/checkpoint.bin", "--data", data, "--out", out]
    )
    assert code == 0
    rows = list(csv.DictReader((tmp_path / "eval" / "report.csv").read_text().splitlines()))
    recalls = {r["k"]: float(r["value"]) for r in rows if r["metric"] == "recall"}
    assert set(recalls) == {"1", "5", "10"}
    assert recalls["1"] <= recalls["5"] <= recalls["10"]
    # K = gallery size forces recall 1
    code = cli.main(
        ["eval", "--config", cfg_path, "--ckpt", f"{run}/checkpoint.bin", "--data", data,
         "--out", out, "--ks", "60"]
    )
    assert code == 0
    rows = list(csv.DictReader((tmp_path / "eval" / "report.csv").read_text().splitlines()))
    assert float([r for r in rows if r["k"] == "60"][0]["value"]) == 1.0


def test_detect_outputs(tmp_path):
    cfg_path, data, run = full_pipeline(tmp_path)
    out = str(tmp_path / "det")
    code = cli.main(
        ["detect", "--config", cfg_path, "--ckpt", f"{run}/checkpoint.bin", "--data", data, "--out", out]
    )
    assert code == 0
    lines = (tmp_path / "det" / "detection.csv").read_text().splitlines()
    assert lines[0] == "id,cleanliness,mask,truth"
    summary = {ln.split(",")[0] for ln in lines[-4:]}
    assert summary == {"precision", "recall", "f1", "auc"}
    # rerun is byte identical
    out2 = str(tmp_path / "det2")
    cli.main(["detect", "--config", cfg_path, "--ckpt", f"{run}/checkpoint.bin", "--data", data, "--out", out2])
    assert (tmp_path / "det" / "detection.csv").read_bytes() == (
        tmp_path / "det2" / "detection.csv"
    ).read_bytes()


# SHA-256 of the eval and detect outputs of the SMALL pipeline, as PINNED_RUNS
# in tests/test_train.py pins the training files
PINNED_OUTPUTS = {
    ("eval", "report.csv"): "186c3eb92e0ebfd20f9d03add8d78a60cfc9c2c425713be3c57176e7c49336b7",
    ("detect", "detection.csv"): "b62a70fd228dcd9c492def7f83eec4d7d59f70c6f26009f514f79c8d78407421",
}


@pytest.mark.parametrize("command, name", PINNED_OUTPUTS, ids=["eval", "detect"])
def test_eval_and_detect_bytes_pinned(tmp_path, command, name):
    cfg_path, data, run = full_pipeline(tmp_path)
    out = tmp_path / command
    argv = [command, "--config", cfg_path, "--ckpt", f"{run}/checkpoint.bin", "--data", data, "--out", str(out)]
    assert cli.main(argv) == 0
    assert hashlib.sha256((out / name).read_bytes()).hexdigest() == PINNED_OUTPUTS[command, name]


def detect_masks_per_batch(params, records, gallery, tcfg):
    """The per-batch loop `cli.detect_masks` stacks: the reference it must equal bit for bit."""
    refs = np.stack([r.ref_vec for r in records])
    mods = np.stack([r.mod_vec for r in records])
    tgts = np.stack([gallery[r.target_id].vec for r in records])
    batches = train_mod.fixed_partition(len(records), tcfg.batch_size, tcfg.seed)
    cleanliness = np.full(len(records), np.nan)
    mask = np.ones(len(records))
    shape = (params.q_tokens, params.dim)
    for idx in batches:
        x_c = np.concatenate([refs[idx], mods[idx]], axis=1)
        (f_c,), _, _, (q,) = train_mod._encode_batch([(params.w_c, params.b_c, x_c)], *shape)
        (f_t,), _, _, (t,) = train_mod._encode_batch([(params.w_t, params.b_t, tgts[idx])], *shape)
        est = mke.estimate_batch(f_c, f_t, q @ t.T, tcfg.tau, tcfg.tau_mk)
        outliers = dpl.dbscan_1d(est, tcfg.dbscan_eps, tcfg.min_pts())
        cleanliness[idx] = est
        mask[idx[list(outliers)]] = 0.0
    covered = ~np.isnan(cleanliness)
    return cleanliness, mask, covered


def trained(gen=None, train=None):
    """Parameters after a short run on all records of a SMALL-like config."""
    records, gallery = synth.generate(synth.GenConfig(**{**SMALL["gen"], **(gen or {})}))
    tcfg = train_mod.TrainConfig(**{**SMALL["train"], **(train or {})})
    ckpt, _ = train_mod.train(records, gallery, tcfg)
    return ckpt.params, records, gallery, tcfg


def as_bytes(outputs):
    return [a.tobytes() for a in outputs]


@pytest.mark.parametrize("gen, train, sizes, dropped", [
    ({}, {}, {8: 5}, 0),  # SMALL: five batches of 8
    # the reference shapes with a 16-record tail: two batch sizes, so two stacks
    ({"n_triplets": 80, "n_gallery": 90, "d_in": 16}, {"batch_size": 32, "q_tokens": 4, "dim": 16},
     {16: 1, 32: 2}, 0),
    # batches of B x Q*D <= 1200 at input width 32, where one product over all
    # of a stack's rows rounds each batch apart from its own product
    ({"d_in": 16}, {"batch_size": 8, "q_tokens": 4, "dim": 16}, {8: 5}, 0),
    ({"n_triplets": 64, "n_gallery": 70, "d_in": 32}, {"batch_size": 16, "q_tokens": 4, "dim": 8},
     {16: 4}, 0),
    ({"n_triplets": 41}, {}, {8: 5}, 1),  # the 1-record sliver is dropped
    # 41 batches of 8 are estimated in chunks of 16, 16 and a partial 9
    ({"n_triplets": 328, "n_gallery": 340}, {}, {8: 2 * cli.DETECT_CHUNK + 9}, 0),
], ids=["small", "tail16", "d16-b8-q4-dim16", "d32-b16-q4-dim8", "sliver1", "chunks"])
def test_detect_masks_equals_per_batch_loop(gen, train, sizes, dropped):
    params, records, gallery, tcfg = trained(gen, train)
    batches = train_mod.fixed_partition(len(records), tcfg.batch_size, tcfg.seed)
    lengths = [len(b) for b in batches]
    assert {n: lengths.count(n) for n in lengths} == sizes
    got = cli.detect_masks(params, records, gallery, tcfg)
    assert as_bytes(got) == as_bytes(detect_masks_per_batch(params, records, gallery, tcfg))
    assert len(records) - got[2].sum() == dropped


def test_detect_masks_honours_ablations(monkeypatch):
    params, records, gallery, tcfg = trained()
    full = cli.detect_masks(params, records, gallery, tcfg)

    def detect(flag):
        return cli.detect_masks(params, records, gallery, replace(tcfg, ablations=frozenset({flag})))

    # training's no_sample standard comes from its per-step rng; detect keeps select_standard
    assert as_bytes(detect("no_sample")) == as_bytes(full)
    cleanliness, mask, covered = detect("no_mke")
    assert (cleanliness == 1.0).all() and (mask == 1.0).all() and covered.all()
    no_tr = detect("no_tr")
    assert as_bytes(no_tr) != as_bytes(full)
    estimate = mke.estimate_batch
    monkeypatch.setattr(mke, "estimate_batch", lambda *a: estimate(*a, use_transition_rate=False))
    assert as_bytes(no_tr) == as_bytes(detect_masks_per_batch(params, records, gallery, tcfg))


def test_sweep_sigma(tmp_path):
    cfg_path = write_config(tmp_path, {"train": {"epochs": 2}})
    out = str(tmp_path / "sweep")
    code = cli.main(
        ["sweep", "--config", cfg_path, "--out", out, "--axis", "sigma", "--values", "0.0,0.5"]
    )
    assert code == 0
    rows = list(csv.DictReader((tmp_path / "sweep" / "sweep_summary.csv").read_text().splitlines()))
    assert len(rows) == 2
    assert [r["value"] for r in rows] == ["0.0", "0.5"]
    assert all(r["status"] == "ok" for r in rows)
    assert all(r["r_at_10"] != "" and r["detection_f1"] != "" for r in rows)


def test_sweep_failed_value_is_a_row(tmp_path):
    # a value whose run fails is reported in the summary; the sweep itself succeeds
    out = tmp_path / "sweep"
    code = cli.main(["sweep", "--config", write_config(tmp_path), "--out", str(out), "--axis", "sigma",
                     "--values", "1.5"])
    assert code == 0
    rows = list(csv.DictReader((out / "sweep_summary.csv").read_text().splitlines()))
    assert [(r["value"], r["r_at_10"], r["detection_f1"]) for r in rows] == [("1.5", "", "")]
    assert rows[0]["status"].startswith("failed: ") and "sigma=1.5" in rows[0]["status"]


def test_sweep_unknown_axis_exit_2(tmp_path):
    cfg_path = write_config(tmp_path)
    with pytest.raises(SystemExit):  # argparse rejects bad --axis choices
        cli.main(["sweep", "--config", cfg_path, "--out", str(tmp_path / "s"),
                  "--axis", "bogus", "--values", "1"])
    # only a library call reaches cmd_sweep's own check
    with pytest.raises(ConfigError, match="unknown sweep axis 'bogus'"):
        cli.cmd_sweep(cli.load_config(cfg_path), "bogus", [1.0], tmp_path / "s")
    assert not (tmp_path / "s").exists()


def test_seed_flag_overrides(tmp_path):
    cfg_path = write_config(tmp_path)
    cfg = cli.load_config(cfg_path, seed=99)
    assert cfg["gen"]["seed"] == 99
    assert cfg["train"]["seed"] == 99
    assert cfg["split"]["seed"] == 99


def test_load_config_seed_does_not_leak_into_later_calls():
    cli.load_config(None, 7)
    cfg = cli.load_config(None)
    seeds = [cfg["gen"]["seed"], cfg["train"]["seed"], cfg["split"]["seed"], cfg["eval"]["subset_seed"]]
    assert seeds == [0, 0, 0, 0]


def test_resolved_config_reproduces_eval_ks_flag(tmp_path):
    # --ks is merged into eval.ks, so the resolved config of an eval run reproduces its report
    cfg_path, data, run = full_pipeline(tmp_path)
    first, second = tmp_path / "first", tmp_path / "second"
    ckpt = ["--ckpt", f"{run}/checkpoint.bin", "--data", data]
    assert cli.main(["eval", "--config", cfg_path, *ckpt, "--out", str(first), "--ks", "1,2"]) == 0
    assert json.loads((first / "resolved_config.json").read_text())["eval"]["ks"] == [1, 2]
    assert cli.main(["eval", "--config", str(first / "resolved_config.json"), *ckpt, "--out", str(second)]) == 0
    for name in ("resolved_config.json", "report.csv"):
        assert (first / name).read_bytes() == (second / name).read_bytes()


def test_resolved_config_reproduces_gen(tmp_path):
    first, second = tmp_path / "first", tmp_path / "second"
    assert cli.main(["gen", "--seed", "5", "--out", str(first)]) == 0
    resolved = str(first / "resolved_config.json")
    assert cli.main(["gen", "--config", resolved, "--out", str(second)]) == 0
    for name in ("resolved_config.json", "dataset.jsonl"):
        assert (first / name).read_bytes() == (second / name).read_bytes()


# The exit-code contract. Each row writes the `SMALL` pipeline's inputs, makes
# one edit (the config, the flags, a data file, the checkpoint, or a library
# call that fails), runs one command and expects the row's exit code, that
# code's prefix and the row's message on stderr, no traceback, and nothing at
# --out; a row of exit code 0 (a bound that is accepted) expects no traceback
# and its outputs. A row's test name and id are the ones its case has always run under.
Row = namedtuple("Row", "test id command edit code says warns", defaults=(None,))
PREFIX = {2: "config error: ", 3: "io error: ", 4: "format error: ", 5: "numeric error: "}
ALL_COMMANDS = ["gen", "train", "eval", "detect"]
DATA_COMMANDS, RUN_COMMANDS = ALL_COMMANDS[1:], ALL_COMMANDS[2:]  # the commands given --data, --ckpt
NEST = b"[" * 200_000 + b"]" * 200_000  # deeper than the JSON decoder recurses


def refuse(root, monkeypatch, small_files, row):
    for name, where in FUZZ_FILES.items():
        (root / where).mkdir(exist_ok=True)
        (root / where / name).write_bytes(small_files[name])
    out = root / "out"
    argv = [row.command, "--config", str(root / "config.json"), "--out", str(out)]
    if row.command in DATA_COMMANDS:
        argv += ["--data", str(root / "data")]
    if row.command in RUN_COMMANDS:
        argv += ["--ckpt", str(root / "run" / "checkpoint.bin")]
    argv += row.edit(root, monkeypatch) or []
    err = io.StringIO()
    with contextlib.redirect_stderr(err), (
            pytest.warns(UserWarning, match=row.warns) if row.warns else contextlib.nullcontext()):
        code = cli.main(argv)
    err = err.getvalue()
    assert code == row.code and "Traceback" not in err, err
    if code == 0:  # a row at a bound that is accepted writes its outputs
        assert out.exists()
        return
    assert PREFIX[code] in err and row.says in err, err
    assert not out.exists()


def _rows(test, commands, code, cases, warns=None):
    """`test`'s rows: each (id, edit, says) case under each command; with
    several commands, a row's id starts with its command."""
    return [Row(test, "-".join(filter(None, [command if len(commands) > 1 else None, id])),
                command, edit, code, says, warns)
            for id, edit, says in cases for command in commands]


def _edit(name, fn):
    """The edit that replaces the bytes b of input `name` by fn(b)."""
    def edit(root, monkeypatch):
        path = root / FUZZ_FILES[name] / name
        path.write_bytes(fn(path.read_bytes()))
    return edit


def _write(name, blob):
    return _edit(name, lambda _: blob)


def _config(overrides):
    return _write("config.json", config_text(overrides).encode())


def _flags(*flags):
    return lambda root, monkeypatch: list(flags)


def _lines(name, fn):
    """The edit that replaces the lines of data file `name` by fn(lines)."""
    return _edit(name, lambda blob: "".join(ln + "\n" for ln in fn(blob.decode().splitlines())).encode())


def _line(name, fn, n=0):
    """The edit that replaces line `n` of data file `name`, read as JSON obj, by fn(obj)."""
    return _lines(name, lambda lines: [*lines[:n], json.dumps(fn(json.loads(lines[n]))), *lines[n + 1:]])


def _regen(overrides):
    """The edit that overrides config keys and generates the data files from the result."""
    def edit(root, monkeypatch):
        _config(overrides)(root, monkeypatch)
        assert cli.main(["gen", "--config", str(root / "config.json"), "--out", str(root / "data")]) == 0
    return edit


def _raising(module, name, exc):
    """The edit that makes `module.name` raise `exc`."""
    def edit(root, monkeypatch):
        def fail(*args, **kwargs):
            raise exc
        monkeypatch.setattr(module, name, fail)
    return edit


def _int_and_float_keys():
    """(section, key, bad value) for every int key of the default config (-1) and every float key (NaN)."""
    for section, values in cli._default_config().items():
        for key, value in values.items():
            if type(value) in (int, float):
                yield section, key, -1 if type(value) is int else float("nan")


def _bad(section, key, value, says, id=None):
    return id or f"{section}.{key}-{value}", {section: {key: value}}, says


# one check refuses the whole config for every command, sections it does not
# read included, before it reads data or writes a file; json writes and reads
# NaN and Infinity, which would otherwise train on silently
BAD_CONFIG = [
    _bad("train", "dbscan_eps", float("nan"), "dbscan_eps must be finite"),
    _bad("train", "q_tokens", 0, "q_tokens must be >= 1"),
    _bad("split", "test_fraction", float("nan"), "split.test_fraction must be finite"),
    _bad("gen", "unmentioned_noise_std", float("inf"), "gen.unmentioned_noise_std must be finite"),
    _bad("train", "seed", -1, "seed must be >= 0"),
    _bad("split", "seed", -2, "split.seed must be >= 0"),
    _bad("eval", "subset_seed", -1, "eval.subset_seed must be >= 0"),
    _bad("gen", "n_triplets", -1, "n_triplets must be >= 1"),
    _bad("split", "test_fraction", 1.5, "split.test_fraction=1.5 outside (0, 1)"),
    _bad("eval", "subset_size", 0, "subset size must be >= 1"),
    _bad("eval", "ks", [0], "eval.ks or --ks must list integers K >= 1", id="eval.ks-0"),
    _bad("train", "ablations", [["no_kl"]], "train.ablations must list flag names", id="train.ablations-list"),
    _bad("train", "ablations", [1, "no_kl"], "train.ablations must list flag names", id="train.ablations-int"),
    _bad("gen", "n_attrs", 2, "attribute space too small for distinct gallery entries"),
    _bad("train", "q_tokens", -1, "q_tokens must be >= 1"),
    _bad("train", "dim", 0, "dim must be >= 1"),
    _bad("train", "kappa", float("nan"), "kappa must be finite"),
    _bad("train", "learning_rate", float("inf"), "learning_rate must be finite"),
    _bad("train", "weight_decay", -1.0, "weight_decay must be >= 0"),
    _bad("train", "kappa", -1.0, "kappa must be >= 0"),
    _bad("train", "gamma", -0.5, "gamma must be >= 0"),
    _bad("train", "dbscan_min_pts", -3, "dbscan_min_pts must be >= 0"),
    _bad("gen", "sigma", 1.5, "sigma=1.5 outside [0, 1]"),
    _bad("gen", "seed", -1, "seed must be >= 0"),
    _bad("train", "epochs", "ten", "config key train.epochs must be int, got 'ten'"),
    # numpy cannot size the (d_in, d_in) projection; it would raise a ValueError
    _bad("gen", "d_in", 2**32, "d_in 4294967296"),
]
# every other int key at -1 and float key at NaN: the message names the key
BAD_CONFIG += [_bad(section, key, value, key) for section, key, value in _int_and_float_keys()
               if f"{section}.{key}-{value}" not in {id for id, _, _ in BAD_CONFIG}]

KS_SAYS = "eval.ks or --ks must list integers K >= 1"
CONFIG_ROWS = [
    *_rows("test_bad_config_exit_2_for_every_command", ALL_COMMANDS, 2,
           [(id, _config(overrides), says) for id, overrides, says in BAD_CONFIG]),
    *_rows("test_malformed_config_exit_4", ["gen"], 4, [
        ("utf-16", _write("config.json", b"\xff\xfe{\x00}\x00"), "not valid JSON"),
        ("invalid-json", _write("config.json", b'{"gen": {"seed": 1}'), "not valid JSON"),
        ("list-root", _write("config.json", b"[1, 2]"), "config root must be a JSON object"),
        ("deep-nesting", _write("config.json", NEST), "maximum recursion depth exceeded"),
    ]),
    # a float or a bool is not a K
    *_rows("test_eval_bad_ks_exit_2", ["eval"], 2, [
        (f"config-{id}", _config({"eval": {"ks": ks}}), KS_SAYS)
        for id, ks in [("a", ["a"]), ("1.5", [1.5]), ("true", [True]), ("empty", [])]]),
    # a subset holds the target plus size - 1 distinct distractors from the
    # 60-entry gallery; a size outside 1..60 is a config error, not a hang
    *_rows("test_eval_subset_size_bounds", ["eval"], 2, [
        ("0-2", _config({"eval": {"subset_size": 0}}), "a subset size must be >= 1"),
    ]),
    *_rows("test_eval_subset_size_bounds", ["eval"], 0, [("60-0", _config({"eval": {"subset_size": 60}}), None)]),
    *_rows("test_eval_subset_size_bounds", ["eval"], 2, [
        ("61-2", _config({"eval": {"subset_size": 61}}),
         "subset size 61 must be between 1 and the gallery size 60"),
    ]),
    # the checkpoint was trained with q_tokens 2, dim 6 and the default kappa
    *_rows("test_checkpoint_config_mismatch_exit_4", RUN_COMMANDS, 4, [
        ("q_tokens-3", _config({"train": {"q_tokens": 3}}), "checkpoint q_tokens 2 != config train.q_tokens 3"),
        ("dim-5", _config({"train": {"dim": 5}}), "checkpoint dim 6 != config train.dim 5"),
        ("kappa-5.0", _config({"train": {"kappa": 5.0}}), "another train config"),
    ]),
]

FLAG_ROWS = [
    # numpy's generators take no negative seed
    *_rows("test_gen_negative_seed_flag_exit_2", ["gen"], 2, [
        (None, _flags("--seed", "-1"), "seed must be >= 0")]),
    *_rows("test_eval_bad_ks_exit_2", ["eval"], 2, [
        ("flag-two", _flags("--ks", "1,two"), "bad --ks '1,two'"),
        ("flag-0", _flags("--ks", "0"), f"{KS_SAYS}, got [0]"),
        ("flag-empty", _flags("--ks", ","), f"{KS_SAYS}, got []"),
    ]),
    *_rows("test_train_missing_data_exit_3", ["train"], 3, [
        (None, lambda root, monkeypatch: ["--data", str(root / "nope")], "missing dataset files under"),
    ]),
    # both values would be named sigma_0.123456 (or sigma_0.5), and the second
    # run would overwrite the first
    *_rows("test_sweep_shared_run_directory_exit_2", ["sweep"], 2, [
        (values, _flags("--axis", "sigma", "--values", values), f"values share ['sigma_{name}']")
        for values, name in [("0.1234561,0.1234562", "0.123456"), ("0.5,0.5", "0.5")]]),
    *_rows("test_sweep_non_finite_value_exit_2", ["sweep"], 2, [
        (values, _flags("--axis", "kappa", f"--values={values}"), "sweep needs one or more finite values")
        for values in ["inf", "0.5,nan", "-inf"]]),
    *_rows("test_sweep_bad_values_exit_2", ["sweep"], 2, [
        (None, _flags("--axis", "sigma", "--values", "0.1,half"), "bad --values '0.1,half'"),
    ]),
]


def _empty_vectors(root, monkeypatch):
    # the lengths agree, but an encoder of input width 0 cannot be built
    for name, keys in (("dataset.jsonl", ("ref", "mod")), ("gallery.jsonl", ("vec",))):
        _lines(name, lambda lines: [json.dumps({**json.loads(ln), **dict.fromkeys(keys, [])}) for ln in lines])(
            root, monkeypatch)


WRONG_JSON_TYPES = [  # valid JSON of the wrong type is a malformed file, not a traceback
    ("dataset-list", "dataset.jsonl", lambda obj: [1, 2]),
    ("dataset-null-id", "dataset.jsonl", lambda obj: {**obj, "id": None}),
    ("dataset-ref-object", "dataset.jsonl", lambda obj: {**obj, "ref": {"a": 1}}),
    ("gallery-list", "gallery.jsonl", lambda obj: [1]),
    ("gallery-null-id", "gallery.jsonl", lambda obj: {**obj, "id": None}),
    # valid JSON, but not a valid value for its field
    ("dataset-float-target", "dataset.jsonl", lambda obj: {**obj, "target_id": 2.7}),
    ("dataset-bool-target", "dataset.jsonl", lambda obj: {**obj, "target_id": True}),
    ("dataset-string-id", "dataset.jsonl", lambda obj: {**obj, "id": "3"}),
    ("dataset-string-entry", "dataset.jsonl", lambda obj: {**obj, "ref": ["2"] + obj["ref"][1:]}),
    ("dataset-bool-entry", "dataset.jsonl", lambda obj: {**obj, "mod": [False] + obj["mod"][1:]}),
    ("dataset-nested-ref", "dataset.jsonl", lambda obj: {**obj, "ref": [obj["ref"]]}),
    ("gallery-float-id", "gallery.jsonl", lambda obj: {**obj, "id": 1.5}),
    # no float64 holds it
    ("gallery-huge-entry", "gallery.jsonl", lambda obj: {**obj, "vec": [10**400] + obj["vec"][1:]}),
    ("dataset-unknown-label", "dataset.jsonl", lambda obj: {**obj, "noise_label": "dirty"}),
]


def _nan_at(key):
    return lambda obj: {**obj, key: [float("nan")] + obj[key][1:]}  # json writes the literal NaN


DATA_ROWS = [
    # a valid gallery and checkpoint, but no records: nothing to train, evaluate or detect
    *_rows("test_empty_dataset_exit_2", DATA_COMMANDS, 2, [
        (None, _lines("dataset.jsonl", lambda lines: []), "empty")], warns="test split is empty"),
    # two clean records split one and one: the train split's one record makes no batch of 2
    *_rows("test_empty_dataset_exit_2", ["train", "detect"], 2, [
        ("one-train-record", _regen({"gen": {"n_triplets": 2, "sigma": 0.0}, "split": {"test_fraction": 0.5}}),
         "no batch of 2")]),
    *_rows("test_data_wrong_json_type_exit_4", DATA_COMMANDS, 4, [
        *[(id, _line(name, fn), f"bad {name.split('.')[0]} file") for id, name, fn in WRONG_JSON_TYPES],
        ("dataset-deep-nesting", _lines("dataset.jsonl", lambda lines: [NEST.decode(), *lines[1:]]),
         "bad dataset file"),
    ]),
    # a target_id is a gallery position: a reordered gallery would train and
    # evaluate on the wrong entries with exit 0
    *_rows("test_gallery_ids_out_of_order_exit_4", DATA_COMMANDS, 4, [
        ("swapped-lines", _lines("gallery.jsonl", lambda lines: [lines[1], lines[0], *lines[2:]]),
         "the entry at position 0 has id 1: gallery ids must be 0..59 in file order"),
        ("duplicate-id", _line("gallery.jsonl", lambda obj: {**obj, "id": 2}, n=3),
         "the entry at position 3 has id 2: gallery ids must be 0..59 in file order"),
    ]),
    *_rows("test_train_target_outside_gallery_exit_4", ["train"], 4, [
        (None, _line("dataset.jsonl", lambda obj: {**obj, "target_id": 60}),
         "target_id 60 is outside the gallery")]),
    *_rows("test_train_ref_wrong_length_exit_4", ["train"], 4, [
        (None, _line("dataset.jsonl", lambda obj: {**obj, "ref": [0.5] * 9}), "differ in length")]),
    *_rows("test_train_empty_vectors_exit_4", ["train"], 4, [(None, _empty_vectors, "vectors are empty")]),
    # the checkpoint was trained on d_in 10
    *_rows("test_checkpoint_width_mismatch_exit_4", RUN_COMMANDS, 4, [
        (None, _regen({"gen": {"d_in": 12}}), "checkpoint input width 10 != vector length 12")]),
    *_rows("test_non_finite_data_exit_5", ["train"], 5, [
        (f"{name}-{key}", _line(name, _nan_at(key), n=2), "vector of id 2 is not finite")
        for name, key in [("dataset.jsonl", "ref"), ("dataset.jsonl", "mod"), ("gallery.jsonl", "vec")]]),
]


def _rewrite_checkpoint(blob, edit):
    """The checkpoint `blob` after `edit(meta, arrays)`; arrays are raw bytes.

    An edit that returns bytes puts them in place of the RNG state.
    """
    off = 8

    def take():
        nonlocal off
        (n,) = struct.unpack("<Q", blob[off : off + 8])
        off += 8 + n
        return blob[off - n : off]

    meta, rng_state = json.loads(take()), take()
    arrays = {key: take() for key in sorted(meta["shapes"])}
    rng_state = edit(meta, arrays) or rng_state
    chunks = [json.dumps(meta).encode(), rng_state] + [arrays[k] for k in sorted(meta["shapes"])]
    return blob[:8] + b"".join(struct.pack("<Q", len(c)) + c for c in chunks)


def _ckpt(edit):
    return _edit("checkpoint.bin", lambda blob: _rewrite_checkpoint(blob, edit))


def _meta_text(fn):
    """The edit that replaces the checkpoint meta's JSON text t by fn(t)."""
    def rewrite(blob):
        (n,) = struct.unpack("<Q", blob[8:16])
        meta = fn(blob[16 : 16 + n])
        return blob[:8] + struct.pack("<Q", len(meta)) + meta + blob[16 + n :]
    return _edit("checkpoint.bin", rewrite)


def _drop_w_c(meta, arrays):
    del meta["shapes"]["w_c"], arrays["w_c"]


def _w_c_one_row_short(meta, arrays):
    rows, cols = meta["shapes"]["w_c"]
    meta["shapes"]["w_c"] = [rows - 1, cols]
    arrays["w_c"] = arrays["w_c"][: (rows - 1) * cols * 8]


def _nan_in_w_c(meta, arrays):
    # training never saves a non-finite parameter
    arrays["w_c"] = struct.pack("<d", float("nan")) + arrays["w_c"][8:]


def _mask_one_short(meta, arrays):
    (b,) = meta["shapes"]["mem.0.mask"]
    meta["shapes"]["mem.0.mask"] = [b - 1]
    arrays["mem.0.mask"] = arrays["mem.0.mask"][:-8]


def _junk_array(meta, arrays):
    meta["shapes"]["junk"] = [1]
    arrays["junk"] = struct.pack("<d", 0.0)


def _drop_outliers_of_batch_2(meta, arrays):
    # its three memory arrays stay in the file, and nothing would read them
    del meta["outliers"]["2"]


def _meta(**fields):
    return _ckpt(lambda meta, arrays: meta.update(fields))


def _outliers_under_key(key):
    return _ckpt(lambda meta, arrays: meta["outliers"].update({key: [0]}))


def _outliers_of_batch_0(*ids):
    return _ckpt(lambda meta, arrays: meta["outliers"].update({"0": list(ids)}))


CHECKPOINT_ROWS = [
    *_rows("test_detect_corrupt_checkpoint_exit_4", ["detect"], 4, [
        (None, _write("checkpoint.bin", b"garbage"), "bad magic")]),
    *_rows("test_checkpoint_bad_bytes_exit_4", RUN_COMMANDS, 4, [
        ("trailing-bytes", _edit("checkpoint.bin", lambda blob: blob + b"\0"), "trailing bytes"),
        ("meta-not-json", _edit("checkpoint.bin", lambda blob: blob[:8] + struct.pack("<Q", 3) + b"{x}"),
         "corrupt checkpoint"),
        # the checkpoint's two JSON parts, each nested deeper than the decoder recurses
        ("meta-deep-nesting", _meta_text(lambda text: NEST), "corrupt checkpoint: RecursionError"),
        ("rng-deep-nesting", _ckpt(lambda meta, arrays: NEST), "corrupt checkpoint: RecursionError"),
    ]),
    *_rows("test_malformed_checkpoint_structure_exit_4", RUN_COMMANDS, 4, [
        ("missing-array", _ckpt(_drop_w_c), "missing array 'w_c'"),
        ("text-opt-step", _meta(opt_step="many"), "opt_step 'many' is not an integer"),
        ("outliers-past-n-memories",
         _ckpt(lambda meta, arrays: meta["outliers"].update({str(meta["n_memories"]): [0]})),
         "outliers for batch"),
        # keys that int() reads as batch 0 or 1, but that save_checkpoint never writes
        ("key-01", _outliers_under_key("01"), "outliers for batch '01' of"),
        ("key-space-1", _outliers_under_key(" 1"), "outliers for batch ' 1' of"),
        ("key-plus-1", _outliers_under_key("+1"), "outliers for batch '+1' of"),
        ("key-minus-0", _outliers_under_key("-0"), "outliers for batch '-0' of"),
        # batch 1 twice, before or after the saved one: json.loads would keep the last silently
        ("repeated-key-before",
         _meta_text(lambda t: t.replace(b'"outliers": {', b'"outliers": {"1": [0, 1, 2], ')),
         "meta repeats key '1'"),
        ("repeated-key-after",
         _meta_text(lambda t: re.sub(rb'("outliers": \{[^}]*)', rb'\1, "1": [0, 1, 2]', t)),
         "meta repeats key '1'"),
        ("w_c-row-short", _ckpt(_w_c_one_row_short), "w_c has shape"),
        ("null-opt-step", _meta(opt_step=None), "opt_step None is not an integer"),
        ("null-n-memories", _meta(n_memories=None), "n_memories None is not an integer"),
        ("null-outliers", _meta(outliers=None), "outliers None is not a batch id map"),
        ("nan-w_c", _ckpt(_nan_in_w_c), "array 'w_c' is not finite"),
        # a memory must fit its batch of B = 8, or a resume stops in numpy; 4 x 16
        # holds the same 64 entries as batch 0's 8 x 8
        ("sim-4x16", _ckpt(lambda meta, arrays: meta["shapes"].update({"mem.0.sim": [4, 16]})),
         "batch 0 memory has sim (4, 16)"),
        ("mask-one-short", _ckpt(_mask_one_short), "mask (7,), not (B, B), (B,) and (B,)"),
        ("outlier-negative", _outliers_of_batch_0(-1),
         "batch 0 outliers [-1] are not distinct integers in [0, 8)"),
        ("outlier-past-batch", _outliers_of_batch_0(99), "batch 0 outliers [99] are not"),
        ("outlier-true", _outliers_of_batch_0(True), "batch 0 outliers [True] are not"),
        ("outlier-text", _outliers_of_batch_0("a"), "batch 0 outliers ['a'] are not"),
        ("outlier-float", _outliers_of_batch_0(1.5), "batch 0 outliers [1.5] are not"),
        ("outlier-twice", _outliers_of_batch_0(1, 1), "batch 0 outliers [1, 1] are not distinct"),
        ("junk-array", _ckpt(_junk_array), "unexpected arrays ['junk']"),
        ("unread-memory", _ckpt(_drop_outliers_of_batch_2),
         "unexpected arrays ['mem.2.est', 'mem.2.mask', 'mem.2.sim']"),
        ("empty-rng-state", _ckpt(lambda meta, arrays: b"{}"), "corrupt checkpoint"),
        ("negative-rng-state",
         _ckpt(lambda meta, arrays: b'{"bit_generator": "PCG64", "state": {"state": -1, "inc": 1}}'),
         "corrupt checkpoint"),
    ]),
]

# an allocation that fails ends in exit 3; a real one may not fail at once
MEMORY_ROWS = [
    Row("test_memory_error_exit_3", command, command, _raising(module, name, MemoryError(size)), 3,
        "out of memory")
    for command, module, name, size in [("gen", synth, "generate", "146. TiB"),
                                        ("train", train_mod, "init_params", "1.46 TiB")]
]


def _test(rows):
    """The test that runs `rows`: one case per row id, or a plain test of one row without one."""
    if not rows[0].id:
        def test(tmp_path, monkeypatch, small_files):
            refuse(tmp_path, monkeypatch, small_files, rows[0])
        return test

    @pytest.mark.parametrize("row", rows, ids=[row.id for row in rows])
    def test(tmp_path, monkeypatch, small_files, row):
        refuse(tmp_path, monkeypatch, small_files, row)
    return test


_TESTS = {}
for _row in CONFIG_ROWS + FLAG_ROWS + DATA_ROWS + CHECKPOINT_ROWS + MEMORY_ROWS:
    _TESTS.setdefault(_row.test, []).append(_row)
globals().update({name: _test(rows) for name, rows in _TESTS.items()})


JSON_TOKENS = (b"NaN", b"Infinity", b"-Infinity", b"1e400", b"-1", b"0", b"0.5", b"true", b"null",
               b"[]", b"{}", b'"x"')
NUMBER = re.compile(rb"-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")


def mutate(blob, data):
    """One random edit of `blob`: a bit flip, a cut, a deleted span, a line
    duplicated or dropped, or a number replaced by another JSON token."""
    kind = data.draw(st.sampled_from(["flip", "truncate", "delete", "duplicate", "drop", "number"]))
    if kind == "flip":
        i = data.draw(st.integers(0, 8 * len(blob) - 1))
        return blob[:i // 8] + bytes([blob[i // 8] ^ (1 << i % 8)]) + blob[i // 8 + 1:]
    if kind == "truncate":
        return blob[:data.draw(st.integers(0, len(blob) - 1))]
    if kind == "delete":
        i = data.draw(st.integers(0, len(blob) - 1))
        return blob[:i] + blob[i + data.draw(st.integers(1, 64)):]
    if kind == "number":
        spans = [m.span() for m in NUMBER.finditer(blob)]
        i, j = data.draw(st.sampled_from(spans))
        return blob[:i] + data.draw(st.sampled_from(JSON_TOKENS)) + blob[j:]
    lines = blob.split(b"\n")
    i = data.draw(st.integers(0, len(lines) - 1))
    return b"\n".join(lines[:i] + lines[i:i + 1] * (kind == "duplicate") + lines[i + 1:])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(FUZZ_FILES)), st.data())
def test_mutated_input_keeps_exit_code_contract(small_files, name, data):
    # whatever one input file holds, a command ends in a documented exit code, not a traceback
    command = data.draw(st.sampled_from(["eval", "detect"] if name == "checkpoint.bin" else
                                        ["train", "eval", "detect"]))
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for file, where in FUZZ_FILES.items():
            (root / where).mkdir(exist_ok=True)
            blob = small_files[file]
            (root / where / file).write_bytes(mutate(blob, data) if file == name else blob)
        argv = [command, "--config", str(root / "config.json"), "--data", str(root / "data"),
                "--out", str(root / "out")]
        if command != "train":
            argv += ["--ckpt", str(root / "run" / "checkpoint.bin")]
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.main(argv)
    assert code in {0, 2, 3, 4, 5}
    assert "Traceback" not in err.getvalue()
