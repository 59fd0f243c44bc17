"""Mutual-knowledge (MK) and 1-D DBSCAN kernels: one numpy path.

`mutual_knowledge_core` takes one (Q, D) pair or an (N, Q, D) stack of
pairs; each pair of a stack gets the bits of its own 2-D call. The loop
kernels are the references that tests and benchmark checks compare
against. `USE_NUMBA` is always False and stays for benchmark records.

The MK kernels reduce the joint in memory order, so ``core(a, b)`` and
``core(b, a)`` can differ in the last ulp; `mke` puts each pair in a
canonical order first and is bitwise symmetric.
"""

from __future__ import annotations

import numpy as np

USE_NUMBA = False


def _mutual_knowledge_loops(fc, ft, tau):
    # softmax over all Qc*Qt token dot products, then MI of that joint
    # against its own marginals, in sequential sums
    qc, d = fc.shape
    qt = ft.shape[0]
    logits = np.empty((qc, qt))
    hi = -1e300
    for i in range(qc):
        for j in range(qt):
            acc = 0.0
            for k in range(d):
                acc += fc[i, k] * ft[j, k]
            v = acc / tau
            logits[i, j] = v
            if v > hi:
                hi = v
    total = 0.0
    for i in range(qc):
        for j in range(qt):
            logits[i, j] = np.exp(logits[i, j] - hi)
            total += logits[i, j]
    p = logits / total
    prow = np.zeros(qc)
    pcol = np.zeros(qt)
    for i in range(qc):
        for j in range(qt):
            prow[i] += p[i, j]
            pcol[j] += p[i, j]
    mk = 0.0
    for i in range(qc):
        for j in range(qt):
            mk += p[i, j] * np.log(p[i, j] / (prow[i] * pcol[j]))
    if mk < 0.0:
        mk = 0.0
    return mk


def _mutual_knowledge_numpy(fc, ft, tau):
    logits = (fc @ np.swapaxes(ft, -1, -2)) / tau
    p = np.exp(logits - logits.max(axis=(-2, -1), keepdims=True))
    p /= p.sum(axis=(-2, -1), keepdims=True)
    prow = p.sum(axis=-1)
    pcol = p.sum(axis=-2)
    mk = np.sum(p * np.log(p / (prow[..., :, None] * pcol[..., None, :])), axis=(-2, -1))
    return np.maximum(mk, 0.0)


mutual_knowledge_core = _mutual_knowledge_numpy


def _dbscan_noise_loops(values, eps, min_pts):
    # Textbook DBSCAN on 1-D points; |x-y| <= eps neighborhoods include the
    # point itself. Returns 1 at noise positions (neither core nor
    # density-reachable from a core).
    n = values.shape[0]
    counts = np.zeros(n, dtype=np.int64)
    for i in range(n):
        c = 0
        for j in range(n):
            if abs(values[i] - values[j]) <= eps:
                c += 1
        counts[i] = c
    core = counts >= min_pts
    labels = np.full(n, -1, dtype=np.int64)
    stack = np.empty(n, dtype=np.int64)
    cluster = 0
    for i in range(n):
        if labels[i] != -1 or not core[i]:
            continue
        labels[i] = cluster
        top = 0
        stack[top] = i
        top += 1
        while top > 0:
            top -= 1
            cur = stack[top]
            for j in range(n):
                if labels[j] == -1 and abs(values[cur] - values[j]) <= eps:
                    labels[j] = cluster
                    if core[j]:
                        stack[top] = j
                        top += 1
        cluster += 1
    noise = np.zeros(n, dtype=np.int64)
    for i in range(n):
        if labels[i] == -1:
            noise[i] = 1
    return noise


def dbscan_noise_flags(values, eps, min_pts):
    """1 at the noise points of `_dbscan_noise_loops`, without its loops.

    A point is noise iff no core point lies within eps of it (a core point
    is its own neighbour). The neighbourhoods use the loop kernel's
    ``|v_i - v_j| <= eps`` comparisons, so ties at exactly eps agree.
    """
    near = np.abs(values[:, None] - values[None, :]) <= eps
    core = near.sum(axis=1) >= min_pts
    return (~(near & core).any(axis=1)).astype(np.int64)
