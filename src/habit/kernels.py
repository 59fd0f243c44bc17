"""Mutual-knowledge (MK) and 1-D DBSCAN kernels: one numpy path.

`mutual_knowledge_core` takes one (Q, D) pair or a (..., Q, D) stack of
pairs; each pair of a stack gets the bits of its own 2-D call. The loop
kernels are the references that tests and benchmark checks compare
against. `USE_NUMBA` is always False and stays for benchmark records.

Both MK kernels are bitwise symmetric: ``core(a, b) == core(b, a)``.
Swapping a pair transposes its joint, so the marginals are left-to-right
sums along one axis and the two all-cell sums (the softmax normaliser and
the MI) add the cells in ascending order, neither of which depends on the
joint's memory order.
"""

from __future__ import annotations

import numpy as np

USE_NUMBA = False


def _sum_ascending(cells):
    # sequential sum of the cells in ascending order: any permutation of
    # the cells, such as a transpose, gives the same bits
    total = 0.0
    for v in np.sort(cells, axis=None):
        total += v
    return total


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
    for i in range(qc):
        for j in range(qt):
            logits[i, j] = np.exp(logits[i, j] - hi)
    p = logits / _sum_ascending(logits)
    prow = np.zeros(qc)
    pcol = np.zeros(qt)
    for i in range(qc):
        for j in range(qt):
            prow[i] += p[i, j]
            pcol[j] += p[i, j]
    terms = np.empty((qc, qt))
    for i in range(qc):
        for j in range(qt):
            terms[i, j] = p[i, j] * np.log(p[i, j] / (prow[i] * pcol[j]))
    return max(_sum_ascending(terms), 0.0)


def _marginals(p):
    # row and column sums of each (Qc, Qt) joint as left-to-right slice
    # adds: the adds, and so the bits, of np.cumsum's last slice along
    # that axis, whatever the memory layout
    prow, pcol = p[..., 0], p[..., 0, :]
    for j in range(1, p.shape[-1]):
        prow = prow + p[..., j]
    for i in range(1, p.shape[-2]):
        pcol = pcol + p[..., i, :]
    return prow, pcol


def _mutual_knowledge_numpy(fc, ft, tau):
    # each step writes over the array the step before made: the bits of the
    # out-of-place expressions, with fc and ft not written
    p = fc @ np.swapaxes(ft, -1, -2)
    p /= tau
    cells = p.shape[:-2] + (-1,)
    p -= p.reshape(cells).max(axis=-1)[..., None, None]
    np.exp(p, out=p)
    p /= np.sort(p.reshape(cells), axis=-1).sum(axis=-1)[..., None, None]
    prow, pcol = _marginals(p)
    terms = np.multiply(prow[..., :, None], pcol[..., None, :])
    np.divide(p, terms, out=terms)
    np.log(terms, out=terms)
    terms *= p
    terms = terms.reshape(cells)
    terms.sort(axis=-1)
    return np.maximum(terms.sum(axis=-1), 0.0)


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
    Each row of an (..., n) stack gets the flags of its own 1-D call.
    """
    near = np.abs(values[..., :, None] - values[..., None, :]) <= eps
    core = near.sum(axis=-1) >= min_pts
    return (~(near & core[..., None, :]).any(axis=-1)).astype(np.int64)
