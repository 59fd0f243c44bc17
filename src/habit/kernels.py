"""Mutual-knowledge (MK) and 1-D DBSCAN kernels: one numpy path.

`mutual_knowledge_core` takes one (Q, D) pair or a (..., Q, D) stack of
pairs; each pair of a stack gets the bits of its own 2-D call. The loop
kernels are the references that tests and benchmark checks compare
against. `USE_NUMBA` is always False and stays for benchmark records.

Both MK kernels are bitwise symmetric: ``core(a, b) == core(b, a)``.
Swapping a pair transposes its joint. The numpy kernel's marginals are
left-to-right sums along one axis and its two all-cell sums (the softmax
normaliser and the MI) add the cells in ascending order, so neither
depends on the joint's memory order. Every sum of the loop kernel is an
exactly rounded `math.fsum`, which no order of its terms can change.
"""

from __future__ import annotations

import math

import numpy as np

USE_NUMBA = False


def _mutual_knowledge_loops(fc, ft, tau):
    # softmax over all Qc*Qt token dot products, then the MI of that joint against its marginals
    fc, ft = fc.tolist(), ft.tolist()
    logits = [[math.fsum(x * y for x, y in zip(c, t)) / tau for t in ft] for c in fc]
    hi = max(map(max, logits))
    e = [[math.exp(v - hi) for v in row] for row in logits]
    total = math.fsum(v for row in e for v in row)
    p = [[v / total for v in row] for row in e]
    prow = [math.fsum(row) for row in p]
    pcol = [math.fsum(col) for col in zip(*p)]
    mi = math.fsum(pij * math.log(pij / (pi * pj)) for row, pi in zip(p, prow) for pij, pj in zip(row, pcol))
    return max(mi, 0.0)


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
    # point itself. Returns 1 at noise positions: points that the clusters,
    # grown from the core points through core points, never reach.
    v = values.tolist()
    near = [[j for j, y in enumerate(v) if abs(x - y) <= eps] for x in v]
    core = [len(nbrs) >= min_pts for nbrs in near]
    reached = set()
    todo = [i for i, is_core in enumerate(core) if is_core]
    while todo:
        i = todo.pop()
        if i not in reached:
            reached.add(i)
            if core[i]:
                todo += near[i]
    return np.array([i not in reached for i in range(len(v))], dtype=np.int64)


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
