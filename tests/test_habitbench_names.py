"""The benchmark harness looks up library names at run time; they must all resolve.

`habitbench/run.py` wraps module attributes to time and trace them, so a
renamed or deleted name only shows when a benchmark run stops with an
AttributeError. This test loads the harness and installs every wrapper.
"""

import importlib.util
from pathlib import Path

import numpy as np

import habit
import habit.cli  # noqa: F401  (cli and kernels are not in habit.__all__)
import habit.kernels  # noqa: F401

RUN_PY = Path(__file__).resolve().parent.parent / "habitbench" / "run.py"


def load_run():
    spec = importlib.util.spec_from_file_location("habitbench_run", RUN_PY)
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    return run


def test_traced_names_resolve():
    run = load_run()
    tracer = run.Tracer()
    run.install_spans(tracer, habit)
    params = habit.train.init_params(4, 2, 3, seed=0)
    rng = np.random.default_rng(0)
    refs, mods, gal = rng.standard_normal((3, 4)), rng.standard_normal((3, 4)), rng.standard_normal((5, 4))
    with tracer.active(0):
        # the harness's count callbacks read the results of the wrapped calls
        ranked = habit.evaluation.rank_gallery(params, refs, mods, gal)
    assert ranked.shape == (3, 5)
    assert tracer.summary([0])["calls"]["evaluation.rank_gallery"] == 1
    assert tracer.count("evaluation.scored_pairs", [0]) == 15
    # the wrappers are gone again after the traced block
    assert habit.train.loss_and_grad.__module__ == "habit.train"


# every span of a training step that the harness reports per layer
STEP_SPANS = (
    "train.loss_and_grad", "train.adamw_step", "train._encode_batch", "train._backprop_encoder",
    "train._grad_rank", "train._grad_kl", "train._grad_soft", "mke.estimate_batch",
    "kernels.mutual_knowledge_core", "dpl.dbscan_1d", "dpl.chrono_mask",
)


def test_traced_step_calls_every_training_span():
    # a refactor that stops calling one of these names by its module
    # attribute would silently read 0 in that per-layer metric
    run = load_run()
    tracer = run.Tracer()
    run.install_spans(tracer, habit)
    train = habit.train
    cfg = train.TrainConfig(batch_size=4, q_tokens=2, dim=3)
    params = train.init_params(5, 2, 3, seed=0)
    opt = train.AdamWState(m={k: np.zeros_like(a) for k, a in params.arrays().items()},
                           v={k: np.zeros_like(a) for k, a in params.arrays().items()})
    refs, mods, tgts = np.random.default_rng(1).standard_normal((3, 4, 5))
    rng = np.random.default_rng(2)
    # a first pass fills the batch memory, so the traced step has a KL term
    _, _, est, mask, sim, out = train.loss_and_grad(params, refs, mods, tgts, habit.dpl.BatchMemory(), cfg, rng)
    memory = habit.dpl.BatchMemory(sim, est, out, mask)
    with tracer.active(0):
        _, grads, *_ = train.loss_and_grad(params, refs, mods, tgts, memory, cfg, rng)
        train.adamw_step(params, grads, opt, cfg.learning_rate, cfg.weight_decay)
    calls = tracer.summary([0])["calls"]
    assert {name: calls[name] for name in STEP_SPANS if calls[name] < 1} == {}
    assert tracer.count("dpl.dbscan_1d.points", [0]) == 4


def test_timed_names_resolve():
    run = load_run()
    where = {
        "STEP_CALLS": (habit.train,),
        "GEN_CALLS": (habit.synth,),
        "LOAD_CALLS": (habit.synth, habit.train),
        "EVAL_CALLS": (habit.evaluation,),
    }
    for calls, modules in where.items():
        for name in getattr(run, calls):
            assert any(hasattr(m, name) for m in modules), f"{calls}: {name}"
    assert callable(habit.features.normalize_rows)
    assert isinstance(habit.kernels.USE_NUMBA, bool)
