import contextlib
import csv
import hashlib
import io
import json
import re
import struct
import tempfile
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


def write_config(tmp_path, overrides=None):
    cfg = json.loads(json.dumps(SMALL))
    for section, kv in (overrides or {}).items():
        cfg.setdefault(section, {}).update(kv)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def test_unknown_config_key_rejected(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"gen": {"bogus_key": 1}}))
    with pytest.raises(ConfigError):
        cli.load_config(str(path))


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


@pytest.mark.parametrize("section, key, value, says", [
    ("train", "dbscan_eps", float("nan"), "dbscan_eps must be finite"),
    ("train", "q_tokens", 0, "q_tokens must be >= 1"),
    ("split", "test_fraction", float("nan"), "split.test_fraction must be finite"),
    ("gen", "unmentioned_noise_std", float("inf"), "gen.unmentioned_noise_std must be finite"),
    ("train", "seed", -1, "seed must be >= 0"),
    ("split", "seed", -2, "split.seed must be >= 0"),
    ("eval", "subset_seed", -1, "eval.subset_seed must be >= 0"),
    ("gen", "n_triplets", -1, "n_triplets must be >= 1"),
    ("split", "test_fraction", 1.5, "split.test_fraction=1.5 outside (0, 1)"),
    ("eval", "subset_size", 0, "subset size must be >= 1"),
    ("eval", "ks", [0], "eval.ks or --ks must list integers K >= 1"),
    ("train", "ablations", [["no_kl"]], "train.ablations must list flag names"),
    ("train", "ablations", [1, "no_kl"], "train.ablations must list flag names"),
    ("gen", "n_attrs", 2, "attribute space too small for distinct gallery entries"),
    ("train", "q_tokens", -1, "q_tokens must be >= 1"),
    ("train", "dim", 0, "dim must be >= 1"),
    ("train", "kappa", float("nan"), "kappa must be finite"),
    ("train", "learning_rate", float("inf"), "learning_rate must be finite"),
    ("train", "weight_decay", -1.0, "weight_decay must be >= 0"),
    ("train", "kappa", -1.0, "kappa must be >= 0"),
    ("train", "gamma", -0.5, "gamma must be >= 0"),
    ("train", "dbscan_min_pts", -3, "dbscan_min_pts must be >= 0"),
    ("gen", "sigma", 1.5, "sigma=1.5 outside [0, 1]"),
    ("gen", "seed", -1, "seed must be >= 0"),
], ids=["train.dbscan_eps-nan", "train.q_tokens-0", "split.test_fraction-nan",
        "gen.unmentioned_noise_std-inf", "train.seed--1", "split.seed--2", "eval.subset_seed--1",
        "gen.n_triplets--1", "split.test_fraction-1.5", "eval.subset_size-0", "eval.ks-0",
        "train.ablations-list", "train.ablations-int", "gen.n_attrs-2", "train.q_tokens--1",
        "train.dim-0", "train.kappa-nan", "train.learning_rate-inf", "train.weight_decay--1.0",
        "train.kappa--1.0", "train.gamma--0.5", "train.dbscan_min_pts--3", "gen.sigma-1.5",
        "gen.seed--1"])
@pytest.mark.parametrize("command", ["gen", "train", "eval", "detect"])
def test_bad_config_exit_2_for_every_command(tmp_path, capsys, small_run, command, section, key, value, says):
    # one check refuses the whole config for every command, sections it does
    # not read included, before it reads data or writes a file; json writes and
    # reads NaN and Infinity, which would otherwise train on silently
    data, run = small_run
    cfg_path = write_config(tmp_path, {section: {key: value}})
    out = tmp_path / "out"
    argv = [command, "--config", cfg_path, "--out", str(out)]
    if command != "gen":
        argv += ["--data", data]
    if command in ("eval", "detect"):
        argv += ["--ckpt", f"{run}/checkpoint.bin"]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert says in err and "Traceback" not in err
    assert not out.exists()


def test_gen_negative_seed_flag_exit_2(tmp_path, capsys):
    # numpy's generators take no negative seed; gen.seed is a row of the test above
    out = tmp_path / "out"
    assert cli.main(["gen", "--seed", "-1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "seed must be >= 0" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("text, says", [
    (b"\xff\xfe{\x00}\x00", "not valid JSON"),
    (b'{"gen": {"seed": 1}', "not valid JSON"),
    (b"[1, 2]", "config root must be a JSON object"),
], ids=["utf-16", "invalid-json", "list-root"])
def test_malformed_config_exit_4(tmp_path, capsys, text, says):
    path = tmp_path / "config.json"
    path.write_bytes(text)
    assert cli.main(["gen", "--config", str(path), "--out", str(tmp_path / "out")]) == 4
    err = capsys.readouterr().err
    assert "format error" in err and says in err and "Traceback" not in err


def _int_and_float_keys():
    """(section, key, bad value) for every int key of the default config (-1) and every float key (NaN)."""
    for section, values in cli._default_config().items():
        for key, value in values.items():
            if type(value) in (int, float):
                yield section, key, -1 if type(value) is int else float("nan")


def test_every_bad_number_exits_2(tmp_path, capsys, small_run):
    # a bad key is refused with exit 2 by every command, whether it reads the key or not
    data, run = small_run
    extra = {"gen": [], "train": ["--data", data], "eval": ["--data", data, "--ckpt", f"{run}/checkpoint.bin"]}
    extra["detect"] = extra["eval"]
    for i, (section, key, value) in enumerate(_int_and_float_keys()):
        cfg_path = write_config(tmp_path, {section: {key: value}})
        for command, args in extra.items():
            code = cli.main([command, "--config", cfg_path, "--out", str(tmp_path / f"out{i}{command}"), *args])
            err = capsys.readouterr().err
            assert code == 2 and "Traceback" not in err, (command, section, key, value, err)


def test_train_missing_data_exit_3(tmp_path):
    cfg_path = write_config(tmp_path)
    code = cli.main(
        ["train", "--config", cfg_path, "--data", str(tmp_path / "nope"), "--out", str(tmp_path / "out")]
    )
    assert code == 3


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


@pytest.mark.parametrize("config_ks, flag_ks", [
    ([1, 5, 10], "1,two"), ([1, 5, 10], "0"), ([1, 5, 10], ","),
    (["a"], None), ([1.5], None), ([True], None), ([], None),
], ids=["flag-two", "flag-0", "flag-empty", "config-a", "config-1.5", "config-true", "config-empty"])
def test_eval_bad_ks_exit_2(tmp_path, capsys, small_run, config_ks, flag_ks):
    # eval.ks or --ks must list at least one K, each an int >= 1; a float or a bool is not one
    data, run = small_run
    cfg_path = write_config(tmp_path, {"eval": {"ks": config_ks}})
    argv = ["eval", "--config", cfg_path, "--ckpt", f"{run}/checkpoint.bin", "--data", data,
            "--out", str(tmp_path / "e")]
    assert cli.main(argv + (["--ks", flag_ks] if flag_ks else [])) == 2
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("size, code", [(0, 2), (60, 0), (61, 2)])
def test_eval_subset_size_bounds(tmp_path, capsys, small_run, size, code):
    # a subset holds the target plus size - 1 distinct distractors from the
    # 60-entry gallery; a size outside 1..60 is a config error, not a hang
    data, run = small_run
    cfg_path = write_config(tmp_path, {"eval": {"subset_size": size}})
    out = str(tmp_path / "e")
    assert cli.main(
        ["eval", "--config", cfg_path, "--ckpt", f"{run}/checkpoint.bin", "--data", data, "--out", out]
    ) == code
    if code:
        assert "subset size" in capsys.readouterr().err


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


def test_detect_corrupt_checkpoint_exit_4(tmp_path):
    cfg_path, data, run = full_pipeline(tmp_path)
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"garbage")
    code = cli.main(
        ["detect", "--config", cfg_path, "--ckpt", str(bad), "--data", data, "--out", str(tmp_path / "d")]
    )
    assert code == 4


@pytest.mark.parametrize("edit, says", [
    (lambda blob: blob + b"\0", "trailing bytes"),
    (lambda blob: blob[:8] + struct.pack("<Q", 3) + b"{x}", "corrupt checkpoint"),
], ids=["trailing-bytes", "meta-not-json"])
@pytest.mark.parametrize("command", ["eval", "detect"])
def test_checkpoint_bad_bytes_exit_4(tmp_path, capsys, command, edit, says):
    cfg_path, data, run = full_pipeline(tmp_path)
    ckpt = tmp_path / "run" / "checkpoint.bin"
    ckpt.write_bytes(edit(ckpt.read_bytes()))
    code = cli.main([command, "--config", cfg_path, "--ckpt", str(ckpt), "--data", data,
                     "--out", str(tmp_path / "out")])
    assert code == 4
    err = capsys.readouterr().err
    assert "format error" in err and says in err and "Traceback" not in err


def _rewrite_checkpoint(path, edit):
    """Rewrite a checkpoint file in place after `edit(meta, arrays)`; arrays are raw bytes.

    An edit that returns bytes puts them in place of the RNG state.
    """
    blob = path.read_bytes()
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
    path.write_bytes(blob[:8] + b"".join(struct.pack("<Q", len(c)) + c for c in chunks))


def _drop_w_c(meta, arrays):
    del meta["shapes"]["w_c"], arrays["w_c"]


def _text_opt_step(meta, arrays):
    meta["opt_step"] = "many"


def _outliers_past_n_memories(meta, arrays):
    meta["outliers"][str(meta["n_memories"])] = [0]


def _w_c_one_row_short(meta, arrays):
    rows, cols = meta["shapes"]["w_c"]
    meta["shapes"]["w_c"] = [rows - 1, cols]
    arrays["w_c"] = arrays["w_c"][: (rows - 1) * cols * 8]


def _nan_in_w_c(meta, arrays):
    # training never saves a non-finite parameter
    arrays["w_c"] = struct.pack("<d", float("nan")) + arrays["w_c"][8:]


def _sim_4x16(meta, arrays):
    meta["shapes"]["mem.0.sim"] = [4, 16]  # the same 64 entries as batch 0's 8 x 8


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


def _outliers_under_key(key):
    return lambda meta, arrays: meta["outliers"].update({key: [0]})


def _outliers_of_batch_0(*ids):
    return lambda meta, arrays: meta["outliers"].update({"0": list(ids)})


@pytest.mark.parametrize("edit, says", [
    (_drop_w_c, "missing array 'w_c'"),
    (_text_opt_step, "opt_step 'many' is not an integer"),
    (_outliers_past_n_memories, "outliers for batch"),
    # keys that int() reads as batch 0 or 1, but that save_checkpoint never writes
    (_outliers_under_key("01"), "outliers for batch '01' of"),
    (_outliers_under_key(" 1"), "outliers for batch ' 1' of"),
    (_outliers_under_key("+1"), "outliers for batch '+1' of"),
    (_outliers_under_key("-0"), "outliers for batch '-0' of"),
    (_w_c_one_row_short, "w_c has shape"),
    (lambda meta, arrays: meta.update(opt_step=None), "opt_step None is not an integer"),
    (lambda meta, arrays: meta.update(n_memories=None), "n_memories None is not an integer"),
    (lambda meta, arrays: meta.update(outliers=None), "outliers None is not a batch id map"),
    (_nan_in_w_c, "array 'w_c' is not finite"),
    # a memory must fit its batch of B = 8, or a resume stops in numpy
    (_sim_4x16, "batch 0 memory has sim (4, 16)"),
    (_mask_one_short, "mask (7,), not (B, B), (B,) and (B,)"),
    (_outliers_of_batch_0(-1), "batch 0 outliers [-1] are not distinct integers in [0, 8)"),
    (_outliers_of_batch_0(99), "batch 0 outliers [99] are not"),
    (_outliers_of_batch_0(True), "batch 0 outliers [True] are not"),
    (_outliers_of_batch_0("a"), "batch 0 outliers ['a'] are not"),
    (_outliers_of_batch_0(1.5), "batch 0 outliers [1.5] are not"),
    (_outliers_of_batch_0(1, 1), "batch 0 outliers [1, 1] are not distinct"),
    (_junk_array, "unexpected arrays ['junk']"),
    (_drop_outliers_of_batch_2, "unexpected arrays ['mem.2.est', 'mem.2.mask', 'mem.2.sim']"),
    (lambda meta, arrays: b"{}", "corrupt checkpoint"),
    (lambda meta, arrays: b'{"bit_generator": "PCG64", "state": {"state": -1, "inc": 1}}', "corrupt checkpoint"),
], ids=["missing-array", "text-opt-step", "outliers-past-n-memories", "key-01", "key-space-1",
        "key-plus-1", "key-minus-0", "w_c-row-short",
        "null-opt-step", "null-n-memories", "null-outliers", "nan-w_c", "sim-4x16", "mask-one-short",
        "outlier-negative", "outlier-past-batch", "outlier-true", "outlier-text", "outlier-float",
        "outlier-twice", "junk-array", "unread-memory", "empty-rng-state", "negative-rng-state"])
@pytest.mark.parametrize("command", ["eval", "detect"])
def test_malformed_checkpoint_structure_exit_4(tmp_path, capsys, command, edit, says):
    cfg_path, data, run = full_pipeline(tmp_path)
    ckpt = tmp_path / "run" / "checkpoint.bin"
    _rewrite_checkpoint(ckpt, edit)
    code = cli.main([command, "--config", cfg_path, "--ckpt", str(ckpt), "--data", data,
                     "--out", str(tmp_path / "out")])
    assert code == 4
    err = capsys.readouterr().err
    assert "format error" in err and says in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["train", "eval", "detect"])
def test_empty_dataset_exit_2(tmp_path, capsys, command):
    # a valid gallery and checkpoint, but no records: nothing to train, evaluate or detect
    cfg_path, data, run = full_pipeline(tmp_path)
    (tmp_path / "data" / "dataset.jsonl").write_text("")
    ckpt = [] if command == "train" else ["--ckpt", f"{run}/checkpoint.bin"]
    assert cli.main([command, "--config", cfg_path, "--data", data, "--out", str(tmp_path / "out"), *ckpt]) == 2
    err = capsys.readouterr().err
    assert "empty" in err and "Traceback" not in err
    if command == "eval":
        return
    # two clean records split one and one: the train split's one record makes no batch of 2
    cfg_path = write_config(tmp_path, {"gen": {"n_triplets": 2, "sigma": 0.0}, "split": {"test_fraction": 0.5}})
    tiny = str(tmp_path / "tiny")
    assert cli.main(["gen", "--config", cfg_path, "--out", tiny]) == 0
    out = tmp_path / "tiny_out"
    assert cli.main([command, "--config", cfg_path, "--data", tiny, "--out", str(out), *ckpt]) == 2
    err = capsys.readouterr().err
    assert "empty" in err and "no batch of 2" in err and "Traceback" not in err
    assert not out.exists()


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


@pytest.mark.parametrize("values", ["0.1234561,0.1234562", "0.5,0.5"])
def test_sweep_shared_run_directory_exit_2(tmp_path, capsys, values):
    # both values would be named sigma_0.123456 (or sigma_0.5), and the
    # second run would overwrite the first
    cfg_path = write_config(tmp_path)
    out = tmp_path / "sweep"
    code = cli.main(["sweep", "--config", cfg_path, "--out", str(out), "--axis", "sigma", "--values", values])
    assert code == 2
    err = capsys.readouterr().err
    assert "sigma_0." in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("values", ["inf", "0.5,nan", "-inf"])
def test_sweep_non_finite_value_exit_2(tmp_path, capsys, values):
    cfg_path = write_config(tmp_path)
    out = tmp_path / "sweep"
    code = cli.main(["sweep", "--config", cfg_path, "--out", str(out), "--axis", "kappa", f"--values={values}"])
    assert code == 2
    err = capsys.readouterr().err
    assert "finite" in err and "Traceback" not in err
    assert not out.exists()


def test_sweep_bad_values_exit_2(tmp_path, capsys):
    out = tmp_path / "sweep"
    code = cli.main(["sweep", "--config", write_config(tmp_path), "--out", str(out), "--axis", "sigma",
                     "--values", "0.1,half"])
    assert code == 2
    err = capsys.readouterr().err
    assert "bad --values" in err and "Traceback" not in err
    assert not out.exists()


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


def test_config_wrong_type_exit_2(tmp_path, capsys):
    cfg_path = write_config(tmp_path, {"train": {"epochs": "ten"}})
    code = cli.main(["gen", "--config", cfg_path, "--out", str(tmp_path / "out")])
    assert code == 2
    assert "train.epochs" in capsys.readouterr().err
    # an int stands for a float, not the other way round
    assert cli.load_config(write_config(tmp_path, {"train": {"learning_rate": 1}}))
    with pytest.raises(ConfigError):
        cli.load_config(write_config(tmp_path, {"train": {"batch_size": 8.0}}))


def _corrupt_first_record(data, **fields):
    path = data / "dataset.jsonl"
    lines = path.read_text().splitlines()
    lines[0] = json.dumps({**json.loads(lines[0]), **fields})
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("file, edit", [
    ("dataset.jsonl", lambda obj: [1, 2]),
    ("dataset.jsonl", lambda obj: {**obj, "id": None}),
    ("dataset.jsonl", lambda obj: {**obj, "ref": {"a": 1}}),
    ("gallery.jsonl", lambda obj: [1]),
    ("gallery.jsonl", lambda obj: {**obj, "id": None}),
    # valid JSON, but not a valid value for its field
    ("dataset.jsonl", lambda obj: {**obj, "target_id": 2.7}),
    ("dataset.jsonl", lambda obj: {**obj, "target_id": True}),
    ("dataset.jsonl", lambda obj: {**obj, "id": "3"}),
    ("dataset.jsonl", lambda obj: {**obj, "ref": ["2"] + obj["ref"][1:]}),
    ("dataset.jsonl", lambda obj: {**obj, "mod": [False] + obj["mod"][1:]}),
    ("dataset.jsonl", lambda obj: {**obj, "ref": [obj["ref"]]}),
    ("gallery.jsonl", lambda obj: {**obj, "id": 1.5}),
    ("gallery.jsonl", lambda obj: {**obj, "vec": [10**400] + obj["vec"][1:]}),  # no float64 holds it
    ("dataset.jsonl", lambda obj: {**obj, "noise_label": "dirty"}),
], ids=["dataset-list", "dataset-null-id", "dataset-ref-object", "gallery-list", "gallery-null-id",
        "dataset-float-target", "dataset-bool-target", "dataset-string-id", "dataset-string-entry",
        "dataset-bool-entry", "dataset-nested-ref", "gallery-float-id", "gallery-huge-entry",
        "dataset-unknown-label"])
@pytest.mark.parametrize("command", ["train", "eval", "detect"])
def test_data_wrong_json_type_exit_4(tmp_path, capsys, command, file, edit):
    # valid JSON of the wrong type is a malformed file, not a traceback
    cfg_path, data, run = full_pipeline(tmp_path)
    path = tmp_path / "data" / file
    lines = path.read_text().splitlines()
    lines[0] = json.dumps(edit(json.loads(lines[0])))
    path.write_text("\n".join(lines) + "\n")
    argv = [command, "--config", cfg_path, "--data", data, "--out", str(tmp_path / "out")]
    if command != "train":
        argv += ["--ckpt", f"{run}/checkpoint.bin"]
    assert cli.main(argv) == 4
    err = capsys.readouterr().err
    assert f"format error: bad {file.split('.')[0]} file" in err and "Traceback" not in err


def _swap_first_two(lines):
    return [lines[1], lines[0], *lines[2:]]


def _id_3_as_2(lines):
    return [*lines[:3], json.dumps({**json.loads(lines[3]), "id": 2}), *lines[4:]]


@pytest.mark.parametrize("edit, says", [
    (_swap_first_two, "the entry at position 0 has id 1"),
    (_id_3_as_2, "the entry at position 3 has id 2"),
], ids=["swapped-lines", "duplicate-id"])
@pytest.mark.parametrize("command", ["train", "eval", "detect"])
def test_gallery_ids_out_of_order_exit_4(tmp_path, capsys, command, edit, says):
    # a target_id is a gallery position: a reordered gallery would train and
    # evaluate on the wrong entries with exit 0
    cfg_path, data, run = full_pipeline(tmp_path)
    path = tmp_path / "data" / "gallery.jsonl"
    path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
    out = tmp_path / "out"
    argv = [command, "--config", cfg_path, "--data", data, "--out", str(out)]
    if command != "train":
        argv += ["--ckpt", f"{run}/checkpoint.bin"]
    assert cli.main(argv) == 4
    err = capsys.readouterr().err
    assert says in err and "gallery ids must be 0..59 in file order" in err and "Traceback" not in err
    assert not out.exists()


def test_train_target_outside_gallery_exit_4(tmp_path, capsys):
    cfg_path = write_config(tmp_path)
    data = tmp_path / "data"
    assert cli.main(["gen", "--config", cfg_path, "--out", str(data)]) == 0
    _corrupt_first_record(data, target_id=SMALL["gen"]["n_gallery"])
    code = cli.main(["train", "--config", cfg_path, "--data", str(data), "--out", str(tmp_path / "run")])
    assert code == 4
    assert "target_id" in capsys.readouterr().err


def test_train_ref_wrong_length_exit_4(tmp_path, capsys):
    cfg_path = write_config(tmp_path)
    data = tmp_path / "data"
    assert cli.main(["gen", "--config", cfg_path, "--out", str(data)]) == 0
    _corrupt_first_record(data, ref=[0.5] * (SMALL["gen"]["d_in"] - 1))
    code = cli.main(["train", "--config", cfg_path, "--data", str(data), "--out", str(tmp_path / "run")])
    assert code == 4
    assert "differ in length" in capsys.readouterr().err


def test_train_empty_vectors_exit_4(tmp_path, capsys):
    # with every vector empty the lengths agree, but an encoder of input width 0 cannot be built
    cfg_path = write_config(tmp_path)
    data = tmp_path / "data"
    assert cli.main(["gen", "--config", cfg_path, "--out", str(data)]) == 0
    for name, keys in (("dataset.jsonl", ("ref", "mod")), ("gallery.jsonl", ("vec",))):
        lines = [json.loads(line) for line in (data / name).read_text().splitlines()]
        (data / name).write_text("".join(json.dumps({**obj, **dict.fromkeys(keys, [])}) + "\n" for obj in lines))
    code = cli.main(["train", "--config", cfg_path, "--data", str(data), "--out", str(tmp_path / "run")])
    assert code == 4
    err = capsys.readouterr().err
    assert "vectors are empty" in err and "Traceback" not in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command", ["eval", "detect"])
def test_checkpoint_width_mismatch_exit_4(tmp_path, capsys, command):
    cfg_path, _, run = full_pipeline(tmp_path)  # trained on d_in 10
    wide = tmp_path / "wide"
    wide.mkdir()
    wide_cfg = write_config(wide, {"gen": {"d_in": 12}})
    assert cli.main(["gen", "--config", wide_cfg, "--out", str(wide / "data")]) == 0
    code = cli.main([command, "--config", cfg_path, "--ckpt", f"{run}/checkpoint.bin",
                     "--data", str(wide / "data"), "--out", str(tmp_path / "out")])
    assert code == 4
    err = capsys.readouterr().err
    assert "width 10" in err and "length 12" in err


@pytest.mark.parametrize("key, value, says", [
    ("q_tokens", 3, "checkpoint q_tokens 2 != config train.q_tokens 3"),
    ("dim", 5, "checkpoint dim 6 != config train.dim 5"),
    ("kappa", 5.0, "another train config"),
], ids=["q_tokens-3", "dim-5", "kappa-5.0"])
@pytest.mark.parametrize("command", ["eval", "detect"])
def test_checkpoint_config_mismatch_exit_4(tmp_path, capsys, command, key, value, says):
    _, data, run = full_pipeline(tmp_path)  # trained with q_tokens 2, dim 6 and the default kappa
    other = tmp_path / "other"
    other.mkdir()
    other_cfg = write_config(other, {"train": {key: value}})
    code = cli.main([command, "--config", other_cfg, "--ckpt", f"{run}/checkpoint.bin",
                     "--data", data, "--out", str(tmp_path / "out")])
    assert code == 4
    err = capsys.readouterr().err
    assert says in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def _write_nan(path, key):
    lines = path.read_text().splitlines()
    obj = json.loads(lines[2])
    obj[key][0] = float("nan")
    lines[2] = json.dumps(obj)  # json writes the literal NaN
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("file, key", [("dataset.jsonl", "ref"), ("dataset.jsonl", "mod"),
                                       ("gallery.jsonl", "vec")])
def test_non_finite_data_exit_5(tmp_path, capsys, file, key):
    cfg_path = write_config(tmp_path, {"train": {"ablations": ["no_mke"]}})
    data = tmp_path / "data"
    assert cli.main(["gen", "--config", cfg_path, "--out", str(data)]) == 0
    _write_nan(data / file, key)
    code = cli.main(["train", "--config", cfg_path, "--data", str(data), "--out", str(tmp_path / "run")])
    assert code == 5
    assert "not finite" in capsys.readouterr().err
    assert not (tmp_path / "run" / "checkpoint.bin").exists()


FUZZ_FILES = {"dataset.jsonl": "data", "gallery.jsonl": "data", "checkpoint.bin": "run", "config.json": "."}
JSON_TOKENS = (b"NaN", b"Infinity", b"-Infinity", b"1e400", b"-1", b"0", b"0.5", b"true", b"null",
               b"[]", b"{}", b'"x"')
NUMBER = re.compile(rb"-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")


@pytest.fixture(scope="module")
def small_files(small_run):
    """The bytes of the `SMALL` pipeline's inputs: its config, data and checkpoint."""
    root = Path(small_run[0]).parent
    return {name: (root / where / name).read_bytes() for name, where in FUZZ_FILES.items()}


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
