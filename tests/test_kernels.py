import numpy as np
import pytest

from habit import kernels
from habit.features import normalize_rows


@pytest.mark.parametrize("tau_mk", [0.1, 0.01])
def test_mk_stack_equals_per_pair_calls(tau_mk):
    # estimate_batch relies on this: one stacked call gives each pair the
    # bits of its own 2-D call, so the standard scores exactly 1.0; both
    # kernels give a swapped pair the same bits, also where qc != qt, and
    # agree with each other to 1e-12
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
            assert abs(loops - single[i]) < 1e-12
        swapped_shapes += qc != qt
    assert swapped_shapes > 0


def test_mk_kernel_leaves_inputs_unwritten():
    rng = np.random.default_rng(3)
    for shape_c, shape_t in (((4, 16), (4, 16)), ((96, 4, 16), (96, 3, 16))):
        fc, ft = (normalize_rows(rng.standard_normal((np.prod(s[:-1]), s[-1]))).reshape(s)
                  for s in (shape_c, shape_t))
        before = fc.copy(), ft.copy()
        kernels.mutual_knowledge_core(fc, ft, 0.01)
        assert fc.tobytes() == before[0].tobytes() and ft.tobytes() == before[1].tobytes()


def test_marginals_equal_cumsum_last():
    # the kernel's marginals are the adds of cumsum's last slice, bit for bit,
    # also on a transposed stack, where qc != qt, and past numpy's 8-way
    # unrolled sums
    rng = np.random.default_rng(4)
    for qc, qt in ((3, 5), (5, 3), (1, 6), (6, 1), (4, 4), (2, 17), (17, 2)):
        p = np.exp(30.0 * rng.standard_normal((9, qc, qt)))
        for stack in (p, np.swapaxes(np.exp(30.0 * rng.standard_normal((9, qt, qc))), -1, -2)):
            prow, pcol = kernels._marginals(stack)
            assert prow.tobytes() == np.cumsum(stack, axis=-1)[..., -1].tobytes()
            assert pcol.tobytes() == np.cumsum(stack, axis=-2)[..., -1, :].tobytes()


def test_dbscan_exact_ties_at_eps():
    # half the cases put values on a grid of multiples of eps, so some
    # |v_i - v_j| == eps exactly; the other half draw free floats
    rng = np.random.default_rng(3)
    ties = 0
    for eps in (0.125, 0.05):
        for i in range(200):
            n = int(rng.integers(1, 33))
            v = rng.integers(0, 12, size=n) * eps if i % 2 else rng.uniform(0, 1, size=n)
            min_pts = int(rng.integers(1, 6))
            ties += int(np.sum(np.abs(v[:, None] - v[None, :]) == eps))
            np.testing.assert_array_equal(
                kernels.dbscan_noise_flags(v, eps, min_pts),
                kernels._dbscan_noise_loops(v, eps, min_pts),
            )
    assert ties > 0


def test_dbscan_stack_equals_per_row_calls():
    # an (nb, B) stack flags each row as its own 1-D call, also at ties of
    # exactly eps (values on a grid of multiples of eps)
    rng = np.random.default_rng(5)
    ties = 0
    for eps in (0.125, 0.05):
        for _ in range(50):
            nb, b = (int(x) for x in rng.integers(1, 9, size=2))
            v = rng.integers(0, 12, size=(nb, b)) * eps
            min_pts = int(rng.integers(1, 6))
            ties += int(np.sum(np.abs(v[:, :, None] - v[:, None, :]) == eps))
            stacked = kernels.dbscan_noise_flags(v, eps, min_pts)
            assert stacked.shape == (nb, b)
            for row, flags in zip(v, stacked):
                np.testing.assert_array_equal(flags, kernels.dbscan_noise_flags(row, eps, min_pts))
    assert ties > 0
