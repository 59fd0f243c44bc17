import csv
import json
import struct
from dataclasses import replace

import numpy as np
import pytest

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


def test_gen_invalid_sigma_exit_2(tmp_path, capsys):
    cfg_path = write_config(tmp_path, {"gen": {"sigma": 1.5}})
    assert cli.main(["gen", "--config", cfg_path, "--out", str(tmp_path / "out")]) == 2
    assert "sigma" in capsys.readouterr().err


@pytest.mark.parametrize("key, value, says", [
    ("q_tokens", 0, "q_tokens must be >= 1"),
    ("q_tokens", -1, "q_tokens must be >= 1"),
    ("dim", 0, "dim must be >= 1"),
    ("dbscan_eps", float("nan"), "dbscan_eps must be finite"),
    ("kappa", float("nan"), "kappa must be finite"),
    ("learning_rate", float("inf"), "learning_rate must be finite"),
    ("weight_decay", -1.0, "weight_decay must be >= 0"),
    ("kappa", -1.0, "kappa must be >= 0"),
    ("gamma", -0.5, "gamma must be >= 0"),
    ("dbscan_min_pts", -3, "dbscan_min_pts must be >= 0"),
], ids=["q_tokens-0", "q_tokens--1", "dim-0", "dbscan_eps-nan", "kappa-nan", "learning_rate-inf",
        "weight_decay--1.0", "kappa--1.0", "gamma--0.5", "dbscan_min_pts--3"])
def test_train_bad_number_exit_2(tmp_path, capsys, key, value, says):
    # json writes and reads NaN and Infinity; a NaN or a negative weight would
    # otherwise train on silently or stop as a numeric error
    data = str(tmp_path / "data")
    assert cli.main(["gen", "--config", write_config(tmp_path), "--out", data]) == 0
    cfg_path = write_config(tmp_path, {"train": {key: value}})
    code = cli.main(["train", "--config", cfg_path, "--data", data, "--out", str(tmp_path / "run")])
    assert code == 2
    err = capsys.readouterr().err
    assert says in err and "Traceback" not in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("section, key, value, says", [
    ("train", "dbscan_eps", float("nan"), "dbscan_eps must be finite"),
    ("train", "q_tokens", 0, "q_tokens must be >= 1"),
    ("split", "test_fraction", float("nan"), "split.test_fraction must be finite"),
    ("gen", "unmentioned_noise_std", float("inf"), "gen.unmentioned_noise_std must be finite"),
], ids=["train.dbscan_eps-nan", "train.q_tokens-0", "split.test_fraction-nan",
        "gen.unmentioned_noise_std-inf"])
@pytest.mark.parametrize("command", ["gen", "eval"])
def test_bad_config_exit_2_for_every_command(tmp_path, capsys, command, section, key, value, says):
    # gen and eval read no train section and gen no split section, yet each
    # refuses the whole config before it writes a resolved_config.json
    _, data, run = full_pipeline(tmp_path)
    cfg_path = write_config(tmp_path, {section: {key: value}})
    out = tmp_path / "out"
    argv = [command, "--config", cfg_path, "--out", str(out)]
    if command == "eval":
        argv += ["--data", data, "--ckpt", f"{run}/checkpoint.bin"]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert says in err and "Traceback" not in err
    assert not (out / "resolved_config.json").exists()


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
def test_eval_bad_ks_exit_2(tmp_path, capsys, config_ks, flag_ks):
    # eval.ks or --ks must list at least one K, each an int >= 1; a float or a bool is not one
    cfg_path, data, run = full_pipeline(tmp_path, {"eval": {"ks": config_ks}})
    argv = ["eval", "--config", cfg_path, "--ckpt", f"{run}/checkpoint.bin", "--data", data,
            "--out", str(tmp_path / "e")]
    assert cli.main(argv + (["--ks", flag_ks] if flag_ks else [])) == 2
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("size, code", [(0, 2), (60, 0), (61, 2)])
def test_eval_subset_size_bounds(tmp_path, capsys, size, code):
    # a subset holds the target plus size - 1 distinct distractors from the
    # 60-entry gallery; a size outside 1..60 is a config error, not a hang
    cfg_path, data, run = full_pipeline(tmp_path, {"eval": {"subset_size": size}})
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
        f_c, _, _, q = train_mod._encode_batch(params.w_c, params.b_c, x_c, *shape)
        f_t, _, _, t = train_mod._encode_batch(params.w_t, params.b_t, tgts[idx], *shape)
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
    ({}, {}, [8], 0),  # SMALL: five batches of 8
    # a 16-record tail, at the reference shapes, where BLAS can round it apart from taller products
    ({"n_triplets": 80, "n_gallery": 90, "d_in": 16}, {"batch_size": 32, "q_tokens": 4, "dim": 16}, [16, 32], 0),
    ({"n_triplets": 41}, {}, [8], 1),  # the 1-record sliver is dropped
], ids=["small", "tail16", "sliver1"])
def test_detect_masks_equals_per_batch_loop(gen, train, sizes, dropped):
    params, records, gallery, tcfg = trained(gen, train)
    batches = train_mod.fixed_partition(len(records), tcfg.batch_size, tcfg.seed)
    assert sorted({len(b) for b in batches}) == sizes
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


def _rewrite_checkpoint(path, edit):
    """Rewrite a checkpoint file in place after `edit(meta, arrays)`; arrays are raw bytes."""
    blob = path.read_bytes()
    off = 8

    def take():
        nonlocal off
        (n,) = struct.unpack("<Q", blob[off : off + 8])
        off += 8 + n
        return blob[off - n : off]

    meta, rng_state = json.loads(take()), take()
    arrays = {key: take() for key in sorted(meta["shapes"])}
    edit(meta, arrays)
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


@pytest.mark.parametrize("edit, says", [
    (_drop_w_c, "missing array 'w_c'"),
    (_text_opt_step, "opt_step 'many' is not an integer"),
    (_outliers_past_n_memories, "outliers for batch"),
    (_w_c_one_row_short, "w_c has shape"),
    (lambda meta, arrays: meta.update(opt_step=None), "opt_step None is not an integer"),
    (lambda meta, arrays: meta.update(n_memories=None), "n_memories None is not an integer"),
    (lambda meta, arrays: meta.update(outliers=None), "outliers None is not a batch id map"),
], ids=["missing-array", "text-opt-step", "outliers-past-n-memories", "w_c-row-short",
        "null-opt-step", "null-n-memories", "null-outliers"])
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
    argv = [command, "--config", cfg_path, "--data", data, "--out", str(tmp_path / "out")]
    if command != "train":
        argv += ["--ckpt", f"{run}/checkpoint.bin"]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert "empty" in err and "Traceback" not in err


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


def test_sweep_unknown_axis_exit_2(tmp_path):
    cfg_path = write_config(tmp_path)
    with pytest.raises(SystemExit):  # argparse rejects bad --axis choices
        cli.main(["sweep", "--config", cfg_path, "--out", str(tmp_path / "s"),
                  "--axis", "bogus", "--values", "1"])


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
], ids=["dataset-list", "dataset-null-id", "dataset-ref-object", "gallery-list", "gallery-null-id"])
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
