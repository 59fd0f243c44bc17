"""Brute-force references for the paper's formulas, which criteria 1-5 and the unit tests
check `habit` against. They import only numpy and the standard library: an oracle that
calls `habit` checks the library against itself (`tests/test_oracles.py`)."""
import numpy as np


def mk_oracle(fc, ft, tau):
    logits = np.array([[fc[i] @ ft[j] / tau for j in range(ft.shape[0])]
                       for i in range(fc.shape[0])])
    p = np.exp(logits - logits.max())
    p = p / p.sum()
    mk = 0.0
    for i in range(p.shape[0]):
        for j in range(p.shape[1]):
            mk += p[i, j] * np.log(p[i, j] / (p[i].sum() * p[:, j].sum()))
    return max(mk, 0.0)


def kl_oracle(now, prev, mask_now, mask_prev, tau):
    rows = [b for b in range(now.shape[0]) if mask_now[b] == 1 and mask_prev[b] == 1]
    if not rows:
        return 0.0
    vals = []
    for b in rows:
        p = np.exp(now[b] / tau - max(now[b] / tau))
        p /= p.sum()
        q = np.exp(prev[b] / tau - max(prev[b] / tau))
        q /= q.sum()
        vals.append(float(np.sum(p * np.log(p / q))))
    return float(np.mean(vals))


def soft_oracle(sim, est, mask, m_base):
    b_sz = sim.shape[0]
    total = 0.0
    for b in range(b_sz):
        margin = m_base * (10.0 ** est[b] - 1.0) / 9.0
        worst = max(sim[b, j] for j in range(b_sz) if j != b)
        total += mask[b] * max(0.0, margin + worst - sim[b, b])
    return total / b_sz


def rank_oracle(sim, mask, tau):
    b_sz = sim.shape[0]
    total = 0.0
    for b in range(b_sz):
        p = np.exp(sim[b] / tau - max(sim[b] / tau))
        p /= p.sum()
        inner = sum(np.log(1.0 - p[j]) for j in range(b_sz) if j != b)
        total += mask[b] * (-inner / (b_sz - 1))
    return total / b_sz


def dbscan_oracle(values, eps, min_pts):
    n = len(values)
    neigh = [{j for j in range(n) if abs(values[i] - values[j]) <= eps} for i in range(n)]
    core = [len(neigh[i]) >= min_pts for i in range(n)]
    assigned = set()
    for i in range(n):
        if i in assigned or not core[i]:
            continue
        frontier = {i}
        while frontier:
            cur = frontier.pop()
            if cur in assigned:
                continue
            assigned.add(cur)
            if core[cur]:
                frontier |= neigh[cur] - assigned
    return frozenset(i for i in range(n) if i not in assigned)
