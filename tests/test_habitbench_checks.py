"""The benchmark's output checks pass on the library's outputs.

`habitbench/run.py` counts an operation as failed when `habitbench/checks.py`
finds its outputs wrong. Running the same checks here on a small config makes
such a library change fail the fast test loop first. The checks file is
loaded read-only, as `tests/test_habitbench_names.py` loads the harness.
"""

import importlib.util
from pathlib import Path

import numpy as np
from test_cli import SMALL

from habit import cli, evaluation, synth, train

CHECKS_PY = Path(__file__).resolve().parent.parent / "habitbench" / "checks.py"


def load_checks():
    spec = importlib.util.spec_from_file_location("habitbench_checks", CHECKS_PY)
    checks = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(checks)
    return checks


def test_detect_and_recall_pass_the_benchmark_checks():
    checks = load_checks()
    records, gallery = synth.generate(synth.GenConfig(**SMALL["gen"]))
    train_records, test_records = synth.split(records, SMALL["split"]["test_fraction"], SMALL["split"]["seed"])
    tcfg = train.TrainConfig(**SMALL["train"])
    params = train.train(train_records, gallery, tcfg)[0].params

    cleanliness, mask, covered = cli.detect_masks(params, train_records, gallery, tcfg)
    batches = train.fixed_partition(len(train_records), tcfg.batch_size, tcfg.seed)
    assert covered.sum() == sum(len(b) for b in batches)
    assert checks.check_detect(cleanliness, mask, batches, tcfg.dbscan_eps, tcfg.min_pts()) == []

    refs = np.stack([r.ref_vec for r in test_records])
    mods = np.stack([r.mod_vec for r in test_records])
    gal = np.stack([g.vec for g in gallery])
    true_ids = [r.target_id for r in test_records]
    ks = SMALL["eval"]["ks"]
    report = evaluation.recall_at_k(evaluation.rank_gallery(params, refs, mods, gal), true_ids, ks)
    scores = evaluation.pooled_queries(params, refs, mods) @ evaluation.pooled_targets(params, gal).T
    assert checks.check_recall(report, checks.rank_of_targets(scores, true_ids), ks) == []
