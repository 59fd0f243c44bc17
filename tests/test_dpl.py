import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from oracles import dbscan_oracle, kl_oracle, rank_oracle

from habit import dpl, mke
from habit.errors import DegenerateBatch, DimensionMismatch, DomainError


def test_dbscan_identical_values_no_outliers():
    assert dpl.dbscan_1d([0.5] * 6, 0.05, 2) == frozenset()


def test_dbscan_single_point_is_outlier():
    assert dpl.dbscan_1d([0.7], 0.05, 2) == frozenset({0})


def test_dbscan_lone_low_estimate_flagged():
    got = dpl.dbscan_1d([0.90, 0.91, 0.92, 0.30], 0.05, 2)
    assert got == frozenset({3})
    assert got == dbscan_oracle([0.90, 0.91, 0.92, 0.30], 0.05, 2)


@st.composite
def _dbscan_cases(draw):
    eps = draw(st.sampled_from([0.125, 0.1, 0.05]) | st.floats(0.001, 0.5))
    # multiples of eps put some |v_i - v_j| exactly at eps
    value = st.floats(0.0, 1.0) | st.integers(0, 12).map(lambda k: k * eps)
    values = draw(st.lists(value, max_size=40))
    return values, eps, draw(st.integers(1, 8))


@settings(max_examples=300, deadline=None)
@given(case=_dbscan_cases())
def test_dbscan_equals_acceptance_oracle_property(case):
    values, eps, min_pts = case
    assert dpl.dbscan_1d(values, eps, min_pts) == dbscan_oracle(values, eps, min_pts)


def test_chrono_mask_intersection():
    mask = dpl.chrono_mask(frozenset({2, 5}), frozenset({5, 7}), 8)
    expected = np.ones(8)
    expected[5] = 0.0
    np.testing.assert_array_equal(mask, expected)


def test_chrono_mask_first_pass_all_ones():
    np.testing.assert_array_equal(dpl.chrono_mask(frozenset({1, 2}), None, 4), np.ones(4))


def test_chrono_mask_membership_and_monotonicity():
    rng = np.random.default_rng(1)
    for _ in range(50):
        cur = frozenset(rng.choice(32, size=rng.integers(0, 10), replace=False).tolist())
        prev = frozenset(rng.choice(32, size=rng.integers(0, 10), replace=False).tolist())
        mask = dpl.chrono_mask(cur, prev, 32)
        for b in range(32):
            assert mask[b] == (0.0 if (b in cur and b in prev) else 1.0)
        # shrinking either set never turns a 1 into a 0
        smaller = frozenset(list(cur)[: len(cur) // 2])
        mask2 = dpl.chrono_mask(smaller, prev, 32)
        assert np.all(mask2 >= mask)


def test_kl_identical_is_zero():
    rng = np.random.default_rng(2)
    s = rng.uniform(-1, 1, size=(4, 4))
    assert dpl.kl_consistency(s, s, np.ones(4), np.ones(4), 0.1) == pytest.approx(0.0, abs=1e-14)


def test_kl_fully_masked_is_zero():
    rng = np.random.default_rng(3)
    s = rng.uniform(-1, 1, size=(4, 4))
    assert dpl.kl_consistency(s, s + 1.0, np.zeros(4), np.ones(4), 0.1) == 0.0


def test_kl_matches_oracle_and_nonnegative():
    rng = np.random.default_rng(4)
    for _ in range(30):
        s1 = rng.uniform(-1, 1, size=(4, 4))
        s2 = rng.uniform(-1, 1, size=(4, 4))
        m1 = rng.integers(0, 2, size=4).astype(float)
        m2 = rng.integers(0, 2, size=4).astype(float)
        got = dpl.kl_consistency(s1, s2, m1, m2, 0.1)
        assert abs(got - kl_oracle(s1, s2, m1, m2, 0.1)) < 1e-10
        assert got >= 0.0


def test_dynamic_margin_endpoints_and_monotonicity():
    assert dpl.dynamic_margin(1.0, 0.2) == pytest.approx(0.2, abs=0)
    assert dpl.dynamic_margin(0.0, 0.2) == 0.0
    assert dpl.dynamic_margin(0.5, 0.2) == pytest.approx(0.2 * (np.sqrt(10) - 1) / 9, abs=1e-12)
    grid = [dpl.dynamic_margin(e, 0.2) for e in np.linspace(0, 1, 101)]
    assert all(b > a for a, b in zip(grid, grid[1:]))
    assert max(grid) <= 0.2


def test_dynamic_margin_domain_error():
    with pytest.raises(DomainError):
        dpl.dynamic_margin(1.2, 0.2)
    with pytest.raises(DomainError):
        dpl.dynamic_margin(-0.1, 0.2)
    with pytest.raises(DomainError, match="1.2"):
        dpl.dynamic_margin(np.array([0.0, 0.5, 1.2, 1.0]), 0.2)
    with pytest.raises(DomainError):
        dpl.dynamic_margin(np.array([0.3, np.nan]), 0.2)


def test_dynamic_margin_array_matches_scalars():
    e = np.linspace(0, 1, 11)
    got = dpl.dynamic_margin(e, 0.2)
    assert got.shape == (11,)
    np.testing.assert_allclose(got, [dpl.dynamic_margin(x, 0.2) for x in e], rtol=1e-15, atol=0)


def test_soft_margin_hinge_inactive():
    s = np.array([[0.9, 0.1], [0.0, 0.9]])
    assert dpl.soft_margin_loss(s, np.ones(2), np.ones(2), 0.2) == 0.0


def test_soft_margin_fully_masked():
    s = np.array([[0.1, 0.9], [0.9, 0.1]])
    assert dpl.soft_margin_loss(s, np.ones(2), np.zeros(2), 0.2) == 0.0


def test_soft_margin_hand_enumeration():
    s = np.array([[0.5, 0.6, 0.1], [0.9, 0.95, 0.2], [0.1, 0.2, 0.9]])
    e = np.array([1.0, 0.5, 0.2])
    m = np.ones(3)
    expected = 0.0
    for b in range(3):
        margin = dpl.dynamic_margin(e[b], 0.2)
        hardest = max(s[b][j] for j in range(3) if j != b)
        expected += max(0.0, margin + hardest - s[b][b])
    expected /= 3
    assert abs(dpl.soft_margin_loss(s, e, m, 0.2) - expected) < 1e-12
    assert expected > 0.0


def test_soft_margin_masked_row_invariance():
    rng = np.random.default_rng(5)
    s = rng.uniform(-1, 1, size=(4, 4))
    e = rng.uniform(0, 1, size=4)
    m = np.array([1.0, 0.0, 1.0, 0.0])
    base = dpl.soft_margin_loss(s, e, m, 0.2)
    s2 = s.copy()
    s2[1] = rng.uniform(-1, 1, size=4)
    s2[3] = rng.uniform(-1, 1, size=4)
    assert dpl.soft_margin_loss(s2, e, m, 0.2) == base


def test_rank_fully_masked():
    rng = np.random.default_rng(6)
    s = rng.uniform(-1, 1, size=(3, 3))
    assert dpl.robust_contrastive_loss(s, np.zeros(3), 0.1) == 0.0


def test_rank_uniform_b2_closed_form():
    s = np.full((2, 2), 0.3)
    got = dpl.robust_contrastive_loss(s, np.ones(2), 0.1)
    assert got == pytest.approx(-np.log(0.5), abs=1e-12)


def test_rank_matches_oracle():
    rng = np.random.default_rng(7)
    for _ in range(30):
        s = rng.uniform(-1, 1, size=(4, 4))
        m = rng.integers(0, 2, size=4).astype(float)
        assert abs(dpl.robust_contrastive_loss(s, m, 0.1) - rank_oracle(s, m, 0.1)) < 1e-10


def test_rank_degenerate_batch():
    with pytest.raises(DegenerateBatch):
        dpl.robust_contrastive_loss(np.array([[1.0]]), np.ones(1), 0.1)


def test_rank_masked_row_invariance():
    rng = np.random.default_rng(8)
    s = rng.uniform(-1, 1, size=(4, 4))
    m = np.array([1.0, 0.0, 1.0, 1.0])
    base = dpl.robust_contrastive_loss(s, m, 0.1)
    s2 = s.copy()
    s2[1] = rng.uniform(-1, 1, size=4)
    assert dpl.robust_contrastive_loss(s2, m, 0.1) == pytest.approx(base, abs=1e-15)


def central_difference(loss, s, h=1e-6):
    g = np.zeros_like(s)
    for idx in np.ndindex(s.shape):
        d = np.zeros_like(s)
        d[idx] = h
        g[idx] = (loss(s + d) - loss(s - d)) / (2 * h)
    return g


def test_rank_and_kl_terms_value_and_gradient():
    # each term's value is criterion 1's loop oracle, and its gradient is the
    # central difference of the public loss, relative to its largest entry
    rng = np.random.default_rng(13)
    for b in (2, 3, 5, 8):
        for _ in range(5):
            s, prev = rng.uniform(-1, 1, size=(2, b, b))
            m_now, m_prev = rng.integers(0, 2, size=(2, b)).astype(float)
            m_now[0] = 0.0  # a masked row
            m_now[-1] = m_prev[-1] = 1.0  # a row kept by both masks

            value, g = dpl._rank_term(dpl._row_softmax(s, 0.1), m_now, 0.1)
            assert abs(value - rank_oracle(s, m_now, 0.1)) < 1e-12
            fd = central_difference(lambda x: dpl.robust_contrastive_loss(x, m_now, 0.1), s)
            assert np.abs(g - fd).max() <= 1e-6 * np.abs(fd).max()

            value, g = dpl._kl_term(dpl._row_softmax(s, 0.1), prev, m_now, m_prev, 0.1)
            assert abs(value - kl_oracle(s, prev, m_now, m_prev, 0.1)) < 1e-12
            fd = central_difference(lambda x: dpl.kl_consistency(x, prev, m_now, m_prev, 0.1), s)
            assert np.abs(g - fd).max() <= 1e-6 * np.abs(fd).max()

            # no row kept by both masks: no loss and no gradient
            value, g = dpl._kl_term(dpl._row_softmax(s, 0.1), prev, m_now, 1.0 - m_now, 0.1)
            assert value == 0.0 and g.shape == s.shape and not g.any()


def test_row_softmax_rows_equal_their_own_softmax():
    # the KL term reads the kept rows of the whole batch's softmax, and
    # training computes that softmax as e / sums from row_softmax_parts
    rng = np.random.default_rng(14)
    for b in (2, 5, 32):
        s = rng.uniform(-1, 1, size=(b, b))
        keep = rng.random(b) > 0.3
        _, e, sums = mke.row_softmax_parts(s, 0.1)
        p = dpl._row_softmax(s, 0.1)
        assert p.tobytes() == (e / sums).tobytes()
        assert p[keep].tobytes() == dpl._row_softmax(s[keep], 0.1).tobytes()


def test_total_objective():
    zero = dpl.total_objective(0, 0, 0, 10.0, 0.5)
    assert zero.total == 0.0
    known = dpl.total_objective(1.0, 0.1, 0.2, 10.0, 0.5)
    assert known.total == pytest.approx(2.1, abs=1e-12)
    rng = np.random.default_rng(9)
    for _ in range(20):
        r, k, s, ka, ga = rng.uniform(0, 2, size=5)
        bd = dpl.total_objective(r, k, s, ka, ga)
        assert abs(bd.total - (r + ka * k + ga * s)) < 1e-12
