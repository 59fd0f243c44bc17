"""Benchmark of the habit library: two closed-loop workloads.

Run from the repository root:

    python3 habitbench/run.py --workload train_ref --seed 1 --seconds 30 --trace 0

One client in one process runs operations back to back, each waiting for
the previous one, until --seconds have passed. Inputs are generated from
--seed. Every operation's output is checked; an operation whose check fails
counts as failed. The last line of standard output is one JSON object:
with --trace 0 its metrics are the end-to-end ones, with --trace 1 the
per-layer ones of a traced run. The lines before it print every metric by
name and unit, the machine facts and any check failures.

Workloads (see README.md for why each was chosen):

  train_ref       training steps (`train.train`) on the frozen reference config
  eval_gallery    R@K and subset R@K over a 20 000-entry gallery, then detection;
                  its timed set-up is the CLI's data round trip: generate,
                  write and read the data, save and load the checkpoint
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
from tracer import Tracer  # noqa: E402

# The frozen reference config of the acceptance suite: generator defaults at
# sigma 0.5, split 0.2, B=32, Q=4, D=16, lr 3e-3, tau_mk 0.01.
REF_TRAIN = dict(batch_size=32, learning_rate=3e-3, tau_mk=0.01, q_tokens=4, dim=16)
SIGMA = 0.5
TEST_FRACTION = 0.2
# eval_gallery: 4000 triplets, 20 000 gallery entries.
BIG_GEN = dict(n_triplets=4000, n_gallery=20_000, sigma=SIGMA)
TRAIN_EPOCHS = 10  # epochs of one train_ref episode; every episode starts afresh
EVAL_EPOCHS = 5  # epochs the eval_gallery checkpoint is trained for in set-up
KS = (1, 5, 10, 50)
SUBSET_SIZE = 6
DETECT_ORACLE_BATCHES = 8  # batches per later operation checked against plain DBSCAN
# Set-up runs at least SETUP_REPEATS times and until SETUP_SECONDS have passed.
SETUP_REPEATS = 5
SETUP_SECONDS = 2.0
# op_ms and setup_s take each library call at its median time over the
# run's operations (or set-ups), and scale the sum to the reference host
# speed with the workload's host gauge (HOST_GAUGES, below). See README.md.
STEP_CALLS = ("loss_and_grad", "adamw_step")  # one training step
GEN_CALLS = ("generate", "write_dataset", "write_gallery")  # `habit gen`
LOAD_CALLS = ("read_dataset", "read_gallery", "load_checkpoint")  # what eval and detect load
EVAL_CALLS = ("rank_gallery", "recall_at_k", "build_subsets", "recall_subset")
SETUP_OP = -2  # operation id of the spans of a traced set-up
LOSS_KEYS = ("loss_total", "loss_rank", "loss_kl", "loss_soft")

# Per-layer metrics. Span metrics are per training step on train_ref and per
# operation elsewhere: "ms" is a span's total time, "self_ms" its time minus
# its traced children, "calls" its call count.
SPAN_METRICS = {
    "mke.estimate_batch.self_ms": ("mke.estimate_batch", "self"),
    "kernels.mutual_knowledge_core.ms": ("kernels.mutual_knowledge_core", "total"),
    "kernels.mutual_knowledge_core.calls": ("kernels.mutual_knowledge_core", "calls"),
    "dpl.dbscan_1d.ms": ("dpl.dbscan_1d", "total"),
    "dpl.soft_margin_loss.ms": ("dpl.soft_margin_loss", "total"),
    "train._grad_soft.ms": ("train._grad_soft", "total"),
    "dpl.robust_contrastive_loss.ms": ("dpl.robust_contrastive_loss", "total"),
    "train._grad_rank.ms": ("train._grad_rank", "total"),
    "dpl.kl_consistency.ms": ("dpl.kl_consistency", "total"),
    "train._grad_kl.ms": ("train._grad_kl", "total"),
    "dpl.chrono_mask.ms": ("dpl.chrono_mask", "total"),
    "train._encode_batch.ms": ("train._encode_batch", "total"),
    "train._backprop_encoder.ms": ("train._backprop_encoder", "total"),
    "train.adamw_step.ms": ("train.adamw_step", "total"),
    "train.loss_and_grad.self_ms": ("train.loss_and_grad", "self"),
    "evaluation.pooled_queries.ms": ("evaluation.pooled_queries", "total"),
    "evaluation.pooled_targets.ms": ("evaluation.pooled_targets", "total"),
    "evaluation.rank_gallery.self_ms": ("evaluation.rank_gallery", "self"),
    "evaluation.recall_at_k.ms": ("evaluation.recall_at_k", "total"),
    "evaluation.build_subsets.ms": ("evaluation.build_subsets", "total"),
    "evaluation.recall_subset.ms": ("evaluation.recall_subset", "total"),
    "cli.detect_masks.self_ms": ("cli.detect_masks", "self"),
    "synth.generate.ms": ("synth.generate", "total"),
    "synth.write_dataset.ms": ("synth.write_dataset", "total"),
    "synth.write_gallery.ms": ("synth.write_gallery", "total"),
    "synth.read_dataset.ms": ("synth.read_dataset", "total"),
    "synth.read_gallery.ms": ("synth.read_gallery", "total"),
    "train.save_checkpoint.ms": ("train.save_checkpoint", "total"),
    "train.load_checkpoint.ms": ("train.load_checkpoint", "total"),
}
# Counts recorded at span boundaries, per step or per operation like spans.
COUNT_METRICS = {
    "dpl.dbscan_1d.points": "count",
    "dpl.masked_per_step": "count",
    "evaluation.scored_pairs": "count",
    "evaluation.rank_bytes": "bytes",
    "synth.bytes_written": "bytes",
    "train.checkpoint_bytes": "bytes",
}
# Data and checkpoint I/O run in set-up only, so these are per set-up.
PER_SETUP = {
    "synth.generate.ms", "synth.write_dataset.ms", "synth.write_gallery.ms",
    "synth.read_dataset.ms", "synth.read_gallery.ms", "train.save_checkpoint.ms",
    "train.load_checkpoint.ms", "synth.bytes_written", "train.checkpoint_bytes",
}
LAYERS = ("synth", "features", "mke", "dpl", "kernels", "train", "evaluation", "cli")


def _median(values):
    return float(statistics.median(values))


def install_spans(tracer, habit):
    """Wrap the layer boundaries the benchmark traces."""
    synth, mke, dpl, train, evaluation, cli = (
        habit.synth, habit.mke, habit.dpl, habit.train, habit.evaluation, habit.cli
    )
    for attr in ("generate", "split", "read_dataset", "read_gallery"):
        tracer.wrap(synth, attr)
    for attr in ("write_dataset", "write_gallery"):
        tracer.wrap(synth, attr, count=lambda a, k, r: [("synth.bytes_written", os.path.getsize(a[1]))])
    tracer.wrap(train, "normalize_rows", "features.normalize_rows")
    tracer.wrap(mke, "estimate_batch")
    tracer.wrap(mke, "mutual_knowledge_core", "kernels.mutual_knowledge_core")
    tracer.wrap(dpl, "dbscan_1d", count=lambda a, k, r: [("dpl.dbscan_1d.points", len(a[0]))])
    tracer.wrap(dpl, "chrono_mask", count=lambda a, k, r: [("dpl.masked_per_step", int(np.sum(r == 0.0)))])
    # dynamic_margin is left out: it runs once per row inside the soft-margin
    # spans, and wrapping 64 calls a step would mostly measure the wrapper.
    for attr in ("kl_consistency", "soft_margin_loss", "robust_contrastive_loss", "total_objective"):
        tracer.wrap(dpl, attr)
    for attr in ("train", "loss_and_grad", "_encode_batch", "_backprop_encoder",
                 "_grad_rank", "_grad_kl", "_grad_soft", "adamw_step", "load_checkpoint"):
        tracer.wrap(train, attr)
    tracer.wrap(train, "save_checkpoint", count=lambda a, k, r: [("train.checkpoint_bytes", os.path.getsize(a[1]))])
    # evaluation imported its own binding of the batch encoder
    tracer.wrap(evaluation, "_encode_batch", "train._encode_batch")
    for attr in ("pooled_queries", "pooled_targets", "recall_at_k", "build_subsets", "detection_metrics"):
        tracer.wrap(evaluation, attr)

    def rank_counts(a, k, r):
        pairs = r.shape[0] * r.shape[1]
        # scores (float64), their negation and the int64 argsort result
        return [("evaluation.scored_pairs", pairs), ("evaluation.rank_bytes", 24 * pairs)]

    tracer.wrap(evaluation, "rank_gallery", count=rank_counts)
    tracer.wrap(evaluation, "recall_subset",
                count=lambda a, k, r: [("evaluation.scored_pairs", sum(len(s) for s in a[5]))])
    tracer.wrap(cli, "detect_masks")


class CallClock:
    """Times calls of library functions, per call name and operation.

    `wrap` replaces a module attribute with a timed wrapper, as the tracer
    does; the library looks these names up at call time. Each call's
    seconds are kept under the operation (`op`) it ran in: an operation id,
    or ("setup", i) for the i-th set-up.
    """

    def __init__(self):
        self.op = None
        self.times = {}  # call name -> {op: [seconds of each call, in order]}

    def wrap(self, module, *attrs):
        for attr in attrs:
            fn, by_op = getattr(module, attr), self.times.setdefault(attr, {})

            def timed(*args, _fn=fn, _by_op=by_op, **kwargs):
                t0 = time.perf_counter()
                result = _fn(*args, **kwargs)
                _by_op.setdefault(self.op, []).append(time.perf_counter() - t0)
                return result

            setattr(module, attr, timed)

    def total(self, op, names=None):
        """Seconds that calls `names` (default: all) took in operation `op`."""
        return sum(sum(by_op.get(op, ())) for name, by_op in self.times.items()
                   if names is None or name in names)

    def median_total(self, ops):
        """One operation with each of its calls at its median over `ops`, in s.

        Every operation in `ops` makes the same calls on the same data, so
        the n-th call of a function does the same work in each of them.
        Each such call's time is taken as its median over the operations,
        and the medians are summed over all calls.
        """
        total = 0.0
        for by_op in self.times.values():
            rows = [by_op[op] for op in ops if op in by_op]
            if rows:
                total += float(np.median(np.asarray(rows), axis=0).sum())
        return total


class Run:
    """One benchmark run: its clock, its operations, and what their checks found."""

    def __init__(self, seed, seconds, tracer, workdir, gauge):
        self.seed = seed
        self.seconds = seconds
        self.tracer = tracer
        self.workdir = workdir
        self.clock = CallClock()
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.setups = []  # clock ids of the set-ups
        self.traced_ops = []
        self.op_seconds = {}  # op id -> seconds the operation took
        self.named = {}  # the workload's own figures: name -> (value, unit)
        self.work_per_op = 1  # training steps per operation on train_ref
        self.gauge = gauge  # (host chunk, chunks per operation, reference ms)
        self.host = []  # seconds of each host chunk

    def check(self, errors, ops=1):
        """Count `ops` attempted operations, failed if `errors` is not empty."""
        self.attempted += ops
        if errors:
            self.failed += ops
            self.errors.extend(errors)

    def setup(self, build):
        """Run `build` repeatedly (see SETUP_REPEATS); keep its last result.

        A traced run traces every set-up.
        """
        deadline = time.perf_counter() + SETUP_SECONDS
        while len(self.setups) < SETUP_REPEATS or time.perf_counter() < deadline:
            self.time_host()
            self.clock.op = ("setup", len(self.setups))
            self.setups.append(self.clock.op)
            with self.tracer.active(SETUP_OP) if self.tracer else nullcontext():
                state = build()
        self.clock.op = None
        return state

    def ops(self):
        """Operation ids until the run's time is up (at least two)."""
        deadline = time.perf_counter() + self.seconds
        op = 0
        while op < 2 or time.perf_counter() < deadline:
            self.time_host()
            self.clock.op = op
            yield op
            op += 1
        self.clock.op = None

    def time_host(self):
        """Time the gauge's host chunks, to gauge the host's current speed."""
        chunk, count, _ = self.gauge
        for _ in range(count):
            t0 = time.perf_counter()
            chunk()
            self.host.append(time.perf_counter() - t0)

    def host_ms(self):
        """Median time of the run's host chunks, in ms."""
        return float(np.median(self.host)) * 1e3

    def host_scale(self):
        """Reference over measured host speed: the gauge's reference ms over `host_ms`."""
        return self.gauge[2] / self.host_ms()

    def traced(self, op):
        """In a traced run every odd operation is traced, the rest run bare."""
        if self.tracer is None or op % 2 == 0:
            return nullcontext()
        self.traced_ops.append(op)
        return self.tracer.active(op)

    def bare_ops(self):
        """The operations that ran without tracing."""
        return [op for op in self.op_seconds if op not in self.traced_ops]

    def op_ms(self):
        """One unit of work (a step, or an operation) with its calls at their medians, in ms."""
        return self.clock.median_total(self.bare_ops()) * 1e3 / self.work_per_op

    def setup_s(self):
        """One set-up with its calls at their medians over the set-ups, in s."""
        return self.clock.median_total(self.setups)


# Host chunks: fixed pieces of numpy work that belong to the benchmark and
# run no library code, each like the main work of one workload.
_SMALL = np.random.default_rng(0).standard_normal((32, 16))


@functools.cache
def _rows():
    return np.random.default_rng(0).standard_normal((20, 20_000))


def products_chunk():
    """Small matrix products and elementwise maths, like a training step's calls."""
    for _ in range(30):
        np.exp(-(_SMALL @ _SMALL.T)).sum(axis=1)


def sort_chunk():
    """A stable descending argsort of 20 score rows, like `rank_gallery`'s."""
    np.argsort(-_rows(), axis=1, kind="stable")


def reference_config(habit, seed, epochs):
    return habit.train.TrainConfig(epochs=epochs, seed=seed, **REF_TRAIN)


def train_ref(run, habit):
    synth, train = habit.synth, habit.train
    run.clock.wrap(synth, "generate", "split")

    def build():
        records, gallery = synth.generate(synth.GenConfig(sigma=SIGMA, seed=run.seed))
        train_records, _ = synth.split(records, TEST_FRACTION, run.seed)
        return train_records, gallery

    train_records, gallery = run.setup(build)
    cfg = reference_config(habit, run.seed, TRAIN_EPOCHS)
    run.clock.wrap(train, *STEP_CALLS)
    ckpt_path = run.workdir / "checkpoint.bin"
    first_sha = None
    steps_per_s = {}
    for op in run.ops():
        with run.traced(op):
            t0 = time.perf_counter()
            ckpt, rows = train.train(train_records, gallery, cfg)
            dt = time.perf_counter() - t0
        run.op_seconds[op] = dt
        steps_per_s[op] = len(rows) / dt

        errors = [
            f"train: non-finite {key} at iter {row['iter']}"
            for row in rows for key in LOSS_KEYS if not math.isfinite(row[key])
        ][:3]
        train.save_checkpoint(ckpt, ckpt_path)
        sha = checks.sha256_file(ckpt_path)
        first_sha = first_sha or sha
        if sha != first_sha:
            errors.append(f"train: checkpoint SHA-256 of episode {op} differs from episode 0")
        run.check(errors, ops=len(rows))

    bare = run.bare_ops()
    times = run.clock.times
    step_ms = 1e3 * np.concatenate([np.add(*(times[name][op] for name in STEP_CALLS)) for op in bare])
    run.work_per_op = len(rows)
    run.named["train_steps_per_s"] = (_median([steps_per_s[op] for op in bare]), "1/s")
    run.named["step_ms_p50"] = (float(np.median(step_ms)), "ms")
    run.named["step_ms_p99"] = (float(np.percentile(step_ms, 99)), "ms")
    run.named["steps_timed"] = (len(step_ms), "count")
    run.named["steps_per_episode"] = (len(rows), "count")
    if run.traced_ops:
        traced = _median([steps_per_s[op] for op in run.traced_ops])
        run.named["traced_train_steps_per_s"] = (traced, "1/s")


def eval_gallery(run, habit):
    synth, train, evaluation, cli = habit.synth, habit.train, habit.evaluation, habit.cli
    cfg = reference_config(habit, run.seed, EVAL_EPOCHS)
    ds_path, gal_path = run.workdir / "dataset.jsonl", run.workdir / "gallery.jsonl"
    ckpt_path = run.workdir / "checkpoint.bin"
    gen_cfg = synth.GenConfig(seed=run.seed, **BIG_GEN)

    # The checkpoint is trained once, before the timed set-ups.
    records, gallery = synth.generate(gen_cfg)
    train_records, test_records = synth.split(records, TEST_FRACTION, run.seed)
    ckpt, _ = train.train(train_records, gallery, cfg)
    run.clock.wrap(synth, *GEN_CALLS, "read_dataset", "read_gallery")
    run.clock.wrap(train, "save_checkpoint", "load_checkpoint")
    shas = []

    def build():
        # `habit gen`, then the reads every train, eval and detect run starts
        # with, and the checkpoint `habit train` saves and eval and detect load.
        gen_records, gen_gallery = synth.generate(gen_cfg)
        synth.write_dataset(gen_records, ds_path)
        synth.write_gallery(gen_gallery, gal_path)
        records_back, gallery_back = synth.read_dataset(ds_path), synth.read_gallery(gal_path)
        train.save_checkpoint(ckpt, ckpt_path)
        loaded = train.load_checkpoint(ckpt_path)
        shas.append(tuple(checks.sha256_file(p) for p in (ds_path, gal_path, ckpt_path)))
        run.check(
            checks.check_records(records_back, records)
            + checks.check_gallery(gallery_back, gallery)
            + checks.check_checkpoint(loaded, ckpt)
            + ([] if shas[-1] == shas[0] else ["set-up: file SHA-256 differs from the first set-up"])
        )
        return loaded.params

    params = run.setup(build)
    n_records = len(records) + len(gallery)
    for label, calls in (("gen", GEN_CALLS), ("load", LOAD_CALLS)):
        seconds = _median([run.clock.total(s, calls) for s in run.setups])
        run.named[f"{label}_records_per_s"] = (n_records / seconds, "records/s")

    refs = np.stack([r.ref_vec for r in test_records])
    mods = np.stack([r.mod_vec for r in test_records])
    true_ids = [r.target_id for r in test_records]
    gal = np.stack([g.vec for g in gallery])
    scores = evaluation.pooled_queries(params, refs, mods) @ evaluation.pooled_targets(params, gal).T
    ranks = checks.rank_of_targets(scores, true_ids)
    del scores
    batches = train.fixed_partition(len(train_records), cfg.batch_size, cfg.seed)
    truth = np.array([r.noise_label != "clean" for r in train_records])
    rng = np.random.default_rng(run.seed)
    run.clock.wrap(evaluation, *EVAL_CALLS)
    run.clock.wrap(cli, "detect_masks")

    first = None
    for op in run.ops():
        with run.traced(op):
            t0 = time.perf_counter()
            ranked = evaluation.rank_gallery(params, refs, mods, gal)
            report = evaluation.recall_at_k(ranked, true_ids, KS)
            subsets = evaluation.build_subsets(true_ids, len(gallery), run.seed, SUBSET_SIZE)
            sub = evaluation.recall_subset(params, refs, mods, gal, true_ids, subsets)
            cleanliness, mask, covered = cli.detect_masks(params, train_records, gallery, cfg)
            run.op_seconds[op] = time.perf_counter() - t0
        del ranked

        # every batch of operation 0, a sample of later ones (which must also equal operation 0)
        sampled = range(len(batches)) if op == 0 else rng.choice(
            len(batches), size=min(DETECT_ORACLE_BATCHES, len(batches)), replace=False)
        errors = checks.check_recall(report, ranks, KS) + checks.check_detect(
            cleanliness, mask, [batches[i] for i in sampled], cfg.dbscan_eps, cfg.min_pts()
        )
        if not covered.all():
            errors.append("detect_masks: some train records got no cleanliness estimate")
        outcome = (report.recall_at, sub, mask.tobytes(), cleanliness.tobytes())
        first = first or outcome
        if outcome != first:
            errors.append(f"eval/detect: operation {op} differs from operation 0")
        run.check(errors)

    flagged = mask == 0.0
    tp = int(np.sum(flagged & truth))
    precision = tp / flagged.sum() if flagged.any() else 0.0
    recall = tp / truth.sum() if truth.any() else 0.0
    f1 = 2 * precision * recall / (precision + recall) if tp else 0.0

    n_queries, n_samples = len(test_records), len(train_records)
    bare = run.bare_ops()
    for label, items, work, calls in (("eval", "queries", n_queries, EVAL_CALLS),
                                      ("detect", "samples", n_samples, ("detect_masks",))):
        seconds = sum(run.clock.total(op, calls) for op in bare)
        run.named[f"{label}_{items}_per_s"] = (work * len(bare) / seconds, "1/s")
    run.named["recall_at_10"] = (report.recall_at[10], "fraction")
    run.named["mask_f1"] = (f1, "score")
    run.named["queries"] = (n_queries, "count")
    run.named["gallery_entries"] = (len(gallery), "count")
    run.named["detect_samples"] = (n_samples, "count")
    run.named["checkpoint_epochs"] = (EVAL_EPOCHS, "count")


WORKLOADS = {"train_ref": train_ref, "eval_gallery": eval_gallery}
# Each workload's host gauge: its host chunk, how many are timed before each
# operation and set-up, and the chunk's median time in ms on the reference
# host, which op_ms and setup_s are scaled to.
HOST_GAUGES = {"train_ref": (products_chunk, 60, 0.33), "eval_gallery": (sort_chunk, 1, 50.0)}


def layer_metrics(run):
    """Per-layer metrics: per step or operation, or per set-up (PER_SETUP)."""
    tracer, ops = run.tracer, run.traced_ops
    scopes = {
        False: (ops, tracer.summary(ops), len(ops) * run.work_per_op),
        True: ([SETUP_OP], tracer.summary([SETUP_OP]), len(run.setups)),
    }
    out = {}
    for metric, (span, field) in SPAN_METRICS.items():
        _, summary, per = scopes[metric in PER_SETUP]
        value = summary[field].get(span, 0.0)
        out[metric] = (value / per, "count") if field == "calls" else (value * 1e3 / per, "ms")
    for metric, unit in COUNT_METRICS.items():
        scope_ops, _, per = scopes[metric in PER_SETUP]
        out[metric] = (tracer.count(metric, scope_ops) / per, unit)
    summary = scopes[False][1]
    op_time = sum(run.op_seconds[op] for op in ops)
    for layer in LAYERS:
        busy = sum(t for span, t in summary["self"].items() if span.split(".")[0] == layer)
        out[f"{layer}.share"] = (busy / op_time, "fraction")
    traced = _median([run.op_seconds[op] for op in ops])
    bare = _median([run.op_seconds[op] for op in run.bare_ops()])
    out["trace.overhead_frac"] = (traced / bare - 1.0, "fraction")
    # output quality of the eval_gallery checkpoint; 0 where nothing is evaluated
    out["evaluation.recall_at_10"] = (run.named.get("recall_at_10", (0.0,))[0], "fraction")
    out["cli.detect_masks.mask_f1"] = (run.named.get("mask_f1", (0.0,))[0], "score")
    return out


def git_commit(root):
    """The checked-out commit, read from .git without leaving the checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine_facts(habit):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = "unknown"
    src_files = sorted((ROOT / "src" / "habit").glob("*.py"))
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "USE_NUMBA": habit.kernels.USE_NUMBA,
        "HABIT_BACKEND": os.environ.get("HABIT_BACKEND", "unset"),
        "commit": git_commit(ROOT),
        "src_lines": sum(p.read_bytes().count(b"\n") for p in src_files),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "habit" / "__init__.py").is_file():
        print(f"habitbench: no habit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.environ["HABIT_LOG"] = "quiet"
    sys.path.insert(0, str(ROOT / "src"))
    import habit
    from habit import cli, kernels  # noqa: F401  (cli and kernels are not in habit.__all__)

    out_dir = ROOT / ".habitbench"
    workdir = out_dir / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    tracer = Tracer() if args.trace else None
    run = Run(args.seed, args.seconds, tracer, workdir, HOST_GAUGES[args.workload])
    try:
        tcfg = reference_config(habit, args.seed, 1)
        run.check(checks.check_kernels(
            kernels, habit.features.normalize_rows, args.seed, tcfg.q_tokens, tcfg.dim,
            tcfg.tau_mk, tcfg.dbscan_eps, tcfg.min_pts(),
        ))
        if tracer is not None:
            install_spans(tracer, habit)
        WORKLOADS[args.workload](run, habit)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    e2e = {
        "op_ms": (run.op_ms() * run.host_scale(), "ms"),
        "setup_s": (run.setup_s() * run.host_scale(), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    per_layer = layer_metrics(run) if tracer is not None else {}
    facts = machine_facts(habit)
    named = {
        "op_ms_raw": (run.op_ms(), "ms"),
        "setup_s_raw": (run.setup_s(), "s"),
        "host_chunk_ms": (run.host_ms(), "ms"),
        **run.named,
    }
    named["ops_failed_frac"] = (run.failed / run.attempted, "fraction")

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print("facts " + json.dumps(facts, sort_keys=True))
    for err in run.errors:
        print(f"CHECK FAILED: {err}")
    for title, table in (("end-to-end", e2e), ("workload", named), ("per-layer (traced run)", per_layer)):
        if table:
            print(f"-- {title}")
            for name, (value, unit) in table.items():
                print(f"{name:<40} {value:>16.6g} {unit}")

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "facts": facts, "correct": run.failed == 0, "attempted": run.attempted, "failed": run.failed,
        "errors": run.errors, "setups": len(run.setups),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in {**e2e, **named, **per_layer}.items()},
    }
    results = out_dir / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    if tracer is not None:
        tracer.save(results / f"{stem}-spans.npz")

    shown = per_layer if args.trace else e2e
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in shown.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
