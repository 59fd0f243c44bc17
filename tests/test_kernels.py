import numpy as np
import pytest

from habit import kernels
from habit.features import normalize_rows


@pytest.mark.parametrize("tau_mk", [0.1, 0.01])
def test_mk_stack_equals_per_pair_calls(tau_mk):
    # estimate_batch relies on this: one stacked call gives each pair the
    # bits of its own 2-D call, so the standard scores exactly 1.0; both
    # kernels give a swapped pair the same bits, also where qc != qt
    rng = np.random.default_rng(2)
    swapped_shapes = 0
    for _ in range(50):
        n, qc, qt = (int(x) for x in rng.integers(1, 9, size=3))
        d = int(rng.integers(2, 17))
        fc = rng.standard_normal((n, qc, d))
        ft = rng.standard_normal((n, qt, d))
        fc /= np.linalg.norm(fc, axis=-1, keepdims=True)
        ft /= np.linalg.norm(ft, axis=-1, keepdims=True)
        stacked = kernels._mutual_knowledge_numpy(fc, ft, tau_mk)
        single = [float(kernels._mutual_knowledge_numpy(fc[i], ft[i], tau_mk)) for i in range(n)]
        assert stacked.tolist() == single
        assert stacked.tolist() == kernels._mutual_knowledge_numpy(ft, fc, tau_mk).tolist()
        for i in range(n):
            loops = kernels._mutual_knowledge_loops(fc[i], ft[i], tau_mk)
            assert loops == kernels._mutual_knowledge_loops(ft[i], fc[i], tau_mk)
        swapped_shapes += qc != qt
    assert swapped_shapes > 0


def test_mk_paths_agree():
    rng = np.random.default_rng(0)
    for _ in range(50):
        q = int(rng.integers(1, 6))
        fc = normalize_rows(rng.standard_normal((q, 8)))
        ft = normalize_rows(rng.standard_normal((q, 8)))
        a = kernels._mutual_knowledge_numpy(fc, ft, 0.1)
        b = kernels._mutual_knowledge_loops(fc, ft, 0.1)
        assert abs(a - b) < 1e-12


def test_dbscan_path_matches_dispatch():
    rng = np.random.default_rng(1)
    for _ in range(50):
        n = int(rng.integers(1, 40))
        v = np.ascontiguousarray(rng.uniform(0, 1, size=n))
        eps = float(rng.uniform(0.01, 0.2))
        min_pts = int(rng.integers(1, 6))
        plain = kernels._dbscan_noise_loops(v, eps, min_pts)
        dispatched = kernels.dbscan_noise_flags(v, eps, min_pts)
        np.testing.assert_array_equal(plain, np.asarray(dispatched))


def test_dbscan_exact_ties_at_eps():
    # values on a grid of multiples of eps, so some |v_i - v_j| == eps exactly
    rng = np.random.default_rng(3)
    ties = 0
    for eps in (0.125, 0.05):
        for _ in range(200):
            n = int(rng.integers(1, 33))
            v = rng.integers(0, 12, size=n) * eps
            min_pts = int(rng.integers(1, 6))
            ties += int(np.sum(np.abs(v[:, None] - v[None, :]) == eps))
            np.testing.assert_array_equal(
                kernels.dbscan_noise_flags(v, eps, min_pts),
                kernels._dbscan_noise_loops(v, eps, min_pts),
            )
    assert ties > 0
