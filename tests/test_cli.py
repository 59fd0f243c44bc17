import csv
import json

import pytest

from habit import cli
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
    rows = list(csv.DictReader(open(tmp_path / "eval" / "report.csv")))
    recalls = {r["k"]: float(r["value"]) for r in rows if r["metric"] == "recall"}
    assert set(recalls) == {"1", "5", "10"}
    assert recalls["1"] <= recalls["5"] <= recalls["10"]
    # K = gallery size forces recall 1
    code = cli.main(
        ["eval", "--config", cfg_path, "--ckpt", f"{run}/checkpoint.bin", "--data", data,
         "--out", out, "--ks", "60"]
    )
    assert code == 0
    rows = list(csv.DictReader(open(tmp_path / "eval" / "report.csv")))
    assert float([r for r in rows if r["k"] == "60"][0]["value"]) == 1.0


def test_eval_bad_ks_exit_2(tmp_path):
    cfg_path, data, run = full_pipeline(tmp_path)
    code = cli.main(
        ["eval", "--config", cfg_path, "--ckpt", f"{run}/checkpoint.bin", "--data", data,
         "--out", str(tmp_path / "e"), "--ks", "1,two"]
    )
    assert code == 2


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


def test_detect_corrupt_checkpoint_exit_4(tmp_path):
    cfg_path, data, run = full_pipeline(tmp_path)
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"garbage")
    code = cli.main(
        ["detect", "--config", cfg_path, "--ckpt", str(bad), "--data", data, "--out", str(tmp_path / "d")]
    )
    assert code == 4


def test_sweep_sigma(tmp_path):
    cfg_path = write_config(tmp_path, {"train": {"epochs": 2}})
    out = str(tmp_path / "sweep")
    code = cli.main(
        ["sweep", "--config", cfg_path, "--out", out, "--axis", "sigma", "--values", "0.0,0.5"]
    )
    assert code == 0
    rows = list(csv.DictReader(open(tmp_path / "sweep" / "sweep_summary.csv")))
    assert len(rows) == 2
    assert [r["value"] for r in rows] == ["0.0", "0.5"]
    assert all(r["status"] == "ok" for r in rows)
    assert all(r["r_at_10"] != "" and r["detection_f1"] != "" for r in rows)


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


@pytest.mark.parametrize("key, value", [("q_tokens", 3), ("dim", 5)])
@pytest.mark.parametrize("command", ["eval", "detect"])
def test_checkpoint_config_mismatch_exit_4(tmp_path, capsys, command, key, value):
    _, data, run = full_pipeline(tmp_path)  # trained with q_tokens 2, dim 6
    other = tmp_path / "other"
    other.mkdir()
    other_cfg = write_config(other, {"train": {key: value}})
    code = cli.main([command, "--config", other_cfg, "--ckpt", f"{run}/checkpoint.bin",
                     "--data", data, "--out", str(tmp_path / "out")])
    assert code == 4
    err = capsys.readouterr().err
    assert f"checkpoint {key} {SMALL['train'][key]}" in err and f"train.{key} {value}" in err
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
