"""Output checks for the habit benchmark.

Each check returns a list of failure messages; an empty list means the
output is correct. The oracles here are written independently of the
library code they check.
"""

from __future__ import annotations

import hashlib

import numpy as np


def sha256_file(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def rank_of_targets(scores, true_ids) -> np.ndarray:
    """0-based rank of each query's true target under a stable descending sort.

    A gallery entry ranks ahead of the target when its score is strictly
    higher, or equal with a lower gallery index (the stable tie rule).
    """
    n_gallery = scores.shape[1]
    true_ids = np.asarray(true_ids)
    target = scores[np.arange(len(true_ids)), true_ids][:, None]
    before = np.arange(n_gallery)[None, :] < true_ids[:, None]
    return np.sum((scores > target) | ((scores == target) & before), axis=1)


def check_recall(report, ranks, ks) -> list[str]:
    out = []
    for k in ks:
        want = float(np.mean(ranks < k))
        got = report.recall_at[int(k)]
        if got != want:
            out.append(f"recall_at_k: R@{k} is {got!r}, rank count gives {want!r}")
    return out


def dbscan_noise(values, eps, min_pts) -> frozenset:
    """Plain DBSCAN over 1-D values: indices that no cluster reaches."""
    n = len(values)
    neigh = [[j for j in range(n) if abs(values[i] - values[j]) <= eps] for i in range(n)]
    core = [len(neigh[i]) >= min_pts for i in range(n)]
    reached = set()
    for i in range(n):
        if core[i] and i not in reached:
            todo = [i]
            while todo:
                cur = todo.pop()
                if cur in reached:
                    continue
                reached.add(cur)
                if core[cur]:
                    todo.extend(j for j in neigh[cur] if j not in reached)
    return frozenset(range(n)) - reached


def check_detect(cleanliness, mask, batches, eps, min_pts) -> list[str]:
    """The detected outliers of each given batch match the DBSCAN oracle."""
    out = []
    for idx in batches:
        want = dbscan_noise(cleanliness[idx], eps, min_pts)
        got = frozenset(int(p) for p in np.flatnonzero(mask[idx] == 0.0))
        if got != want:
            out.append(f"detect_masks: outliers {sorted(got)} != oracle {sorted(want)}")
    return out


def check_records(got, want) -> list[str]:
    """Dataset records read back equal the generated ones bit for bit."""
    if len(got) != len(want):
        return [f"read_dataset: {len(got)} records, wrote {len(want)}"]
    for g, w in zip(got, want):
        if (
            g.id != w.id
            or g.target_id != w.target_id
            or g.noise_label != w.noise_label
            or g.ref_vec.tobytes() != w.ref_vec.tobytes()
            or g.mod_vec.tobytes() != w.mod_vec.tobytes()
        ):
            return [f"read_dataset: record {w.id} differs from the generated one"]
    return []


def check_gallery(got, want) -> list[str]:
    if len(got) != len(want):
        return [f"read_gallery: {len(got)} entries, wrote {len(want)}"]
    for g, w in zip(got, want):
        if g.id != w.id or g.vec.tobytes() != w.vec.tobytes():
            return [f"read_gallery: entry {w.id} differs from the generated one"]
    return []


def check_checkpoint(got, want) -> list[str]:
    """A loaded checkpoint equals the saved one: arrays, state and masks."""
    if (got.epoch, got.config_hash, got.rng_state) != (want.epoch, want.config_hash, want.rng_state):
        return ["load_checkpoint: epoch, config hash or rng state differs"]
    pairs = list(zip(got.params.arrays().values(), want.params.arrays().values()))
    for key in want.opt.m:
        pairs += [(got.opt.m[key], want.opt.m[key]), (got.opt.v[key], want.opt.v[key])]
    for bid, mem in want.memories.items():
        other = got.memories[bid]
        if other.prev_outliers != mem.prev_outliers:
            return [f"load_checkpoint: outliers of batch {bid} differ"]
        pairs += [
            (other.prev_similarity, mem.prev_similarity),
            (other.prev_estimates, mem.prev_estimates),
            (other.prev_mask, mem.prev_mask),
        ]
    if got.opt.step != want.opt.step or any(a.tobytes() != b.tobytes() for a, b in pairs):
        return ["load_checkpoint: arrays differ from the saved checkpoint"]
    return []


def check_kernels(kernels, normalize_rows, seed, q_tokens, dim, tau_mk, eps, min_pts) -> list[str]:
    """The kernel agreement checks of benchmarks/bench_kernels.py.

    The MK kernel in use must match the numpy reference, and the DBSCAN
    kernel in use must flag the same points as the loop kernel. Without
    numba the kernel in use is that reference, so each is also held to a
    second one: the MK loop kernel and `dbscan_noise` above.
    """
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(200):
        fc = normalize_rows(rng.standard_normal((q_tokens, dim)))
        ft = normalize_rows(rng.standard_normal((q_tokens, dim)))
        got = kernels.mutual_knowledge_core(fc, ft, tau_mk)
        for ref in (kernels._mutual_knowledge_numpy, kernels._mutual_knowledge_loops):
            want = ref(fc, ft, tau_mk)
            if abs(got - want) > 1e-10:
                out.append(f"mutual_knowledge_core {got!r} != {ref.__name__} {want!r}")
        if out:
            break
    for _ in range(200):
        vals = np.ascontiguousarray(rng.uniform(0.0, 1.0, size=32))
        got = kernels.dbscan_noise_flags(vals, eps, min_pts)
        if not np.array_equal(got, kernels._dbscan_noise_loops(vals, eps, min_pts)):
            out.append("dbscan_noise_flags disagrees with the loop kernel")
        if frozenset(np.flatnonzero(got).tolist()) != dbscan_noise(vals, eps, min_pts):
            out.append("dbscan_noise_flags disagrees with plain DBSCAN")
        if out:
            break
    return out
