import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from oracles import mk_oracle

from habit import features, kernels, mke
from habit.errors import DimensionMismatch


def random_tokens(rng, q=4, d=8):
    return features.normalize_rows(rng.standard_normal((q, d)))


def pooled(token_mats):
    """Mean-pooled unit vector of each (Q, D) token matrix, stacked."""
    v = np.stack([f.mean(axis=0) for f in token_mats])
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def test_mutual_knowledge_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        mke.mutual_knowledge(np.ones((2, 3)), np.ones((2, 4)), 0.1)
    with pytest.raises(DimensionMismatch):
        mke.estimate_batch([np.ones((2, 3))], [np.ones((2, 4))], np.ones((1, 1)), 0.1, 0.1)


def test_mutual_knowledge_uniform_is_zero():
    fc = np.array([[1.0, 0.0], [1.0, 0.0]])
    ft = np.array([[0.0, 1.0], [0.0, 1.0]])
    assert abs(mke.mutual_knowledge(fc, ft, 0.1)) < 1e-12


def test_mutual_knowledge_single_token_zero():
    rng = np.random.default_rng(2)
    assert abs(mke.mutual_knowledge(random_tokens(rng, 1), random_tokens(rng, 1), 0.1)) < 1e-12


def test_mutual_knowledge_matches_brute_force():
    rng = np.random.default_rng(3)
    for _ in range(25):
        fc, ft = random_tokens(rng), random_tokens(rng)
        assert abs(mke.mutual_knowledge(fc, ft, 0.1) - mk_oracle(fc, ft, 0.1)) < 1e-10


def test_mutual_knowledge_nonnegative_property():
    rng = np.random.default_rng(4)
    for _ in range(1000):
        q = int(rng.integers(1, 6))
        fc, ft = random_tokens(rng, q), random_tokens(rng, q)
        assert mke.mutual_knowledge(fc, ft, 0.1) >= -1e-12


def test_select_standard_trivial_cases():
    assert mke.select_standard(np.array([[0.7]]), 0.1) == 0
    assert mke.select_standard(np.eye(4), 0.1) == 0  # symmetric ties -> lowest index


def test_select_standard_matches_loss_loop():
    rng = np.random.default_rng(5)
    sim = rng.uniform(-1, 1, size=(4, 4))
    losses = []
    for b in range(4):
        z = sim[b] / 0.1
        losses.append(-(z[b] - np.log(np.exp(z).sum())))
    assert mke.select_standard(sim, 0.1) == int(np.argmin(losses))


def test_transition_rate():
    assert mke.transition_rate(1.3, 1.3) == 0.0
    assert mke.transition_rate(2.0, 1.0) == 0.5
    assert mke.transition_rate(0.0, 1.0) == pytest.approx(1e8)
    rng = np.random.default_rng(6)
    for _ in range(100):
        x = float(rng.uniform(0, 5))
        assert mke.transition_rate(x, x) == 0.0


def test_cleanliness_standard_is_exactly_one():
    rng = np.random.default_rng(7)
    fc, ft = random_tokens(rng), random_tokens(rng)
    assert mke.cleanliness(fc, ft, fc, ft, 0.1) == 1.0


def test_estimate_batch_single_sample():
    rng = np.random.default_rng(9)
    fc, ft = random_tokens(rng), random_tokens(rng)
    sim = pooled([fc]) @ pooled([ft]).T
    np.testing.assert_allclose(mke.estimate_batch([fc], [ft], sim, 0.1, 0.1), [1.0])


def test_estimate_batch_duplicate_of_standard():
    rng = np.random.default_rng(10)
    composed = [random_tokens(rng) for _ in range(4)]
    targets = [random_tokens(rng) for _ in range(4)]
    sim = pooled(composed) @ pooled(targets).T
    std = mke.select_standard(sim, 0.1)
    dup = (std + 1) % 4
    composed[dup] = composed[std].copy()
    targets[dup] = targets[std].copy()
    est = mke.estimate_batch(composed, targets, sim, 0.1, 0.1, standard_index=std)
    assert abs(est[std] - 1.0) < 1e-9
    assert abs(est[dup] - 1.0) < 1e-9


def test_estimate_batch_composition_and_permutation():
    rng = np.random.default_rng(11)
    composed = [random_tokens(rng) for _ in range(8)]
    targets = [random_tokens(rng) for _ in range(8)]
    sim = pooled(composed) @ pooled(targets).T
    est = mke.estimate_batch(composed, targets, sim, 0.1, 0.1)
    std = mke.select_standard(sim, 0.1)
    for b in range(8):
        direct = mke.cleanliness(composed[b], targets[b], composed[std], targets[std], 0.1)
        assert abs(est[b] - direct) < 1e-12
    # permuting the non-standard samples permutes the outputs identically
    others = [b for b in range(8) if b != std]
    perm = list(range(8))
    rotated = others[1:] + others[:1]
    for src, dst in zip(others, rotated):
        perm[dst] = src
    est2 = mke.estimate_batch(
        [composed[p] for p in perm], [targets[p] for p in perm],
        sim[np.ix_(perm, perm)], 0.1, 0.1,
    )
    np.testing.assert_allclose(est2, est[perm], atol=1e-12)


@pytest.mark.parametrize(
    "kernel", [kernels._mutual_knowledge_numpy, kernels._mutual_knowledge_loops]
)
def test_mutual_knowledge_bitwise_symmetric(monkeypatch, kernel):
    monkeypatch.setattr(mke, "mutual_knowledge_core", kernel)
    rng = np.random.default_rng(12)
    for _ in range(300):
        qc, qt = (int(q) for q in rng.integers(1, 6, size=2))
        d = int(rng.integers(2, 17))
        a, b = random_tokens(rng, qc, d), random_tokens(rng, qt, d)
        for tau_mk in (0.1, 0.01):
            assert mke.mutual_knowledge(a, b, tau_mk) == mke.mutual_knowledge(b, a, tau_mk)


def test_estimate_batch_standard_is_exactly_one():
    rng = np.random.default_rng(13)
    composed = [random_tokens(rng, 4, 16) for _ in range(32)]
    targets = [random_tokens(rng, 4, 16) for _ in range(32)]
    sim = rng.uniform(-1, 1, size=(32, 32))
    est = mke.estimate_batch(composed, targets, sim, 0.1, 0.01)
    assert est[mke.select_standard(sim, 0.1)] == 1.0


# nonzero entries keep every token row away from zero norm; hypothesis still
# draws repeated rows and samples, where MK must be bitwise symmetric
_entries = st.floats(0.01, 1.0) | st.floats(-1.0, -0.01)


@st.composite
def _batches(draw):
    b, qc, qt, d = (draw(st.integers(lo, hi)) for lo, hi in ((1, 12), (1, 5), (1, 5), (2, 16)))
    composed = draw(arrays(np.float64, (b, qc, d), elements=_entries))
    targets = draw(arrays(np.float64, (b, qt, d), elements=_entries))
    sim = draw(arrays(np.float64, (b, b), elements=st.floats(-1.0, 1.0)))
    standard = draw(st.none() | st.integers(0, b - 1))
    unit = lambda m: m / np.linalg.norm(m, axis=-1, keepdims=True)
    return unit(composed), unit(targets), sim, standard


@settings(max_examples=150, deadline=None)
@given(batch=_batches(), tau_mk=st.sampled_from([0.1, 0.01]))
def test_estimate_batch_equals_cleanliness_property(batch, tau_mk):
    composed, targets, sim, standard = batch
    est = mke.estimate_batch(composed, targets, sim, 0.1, tau_mk, standard_index=standard)
    s = mke.select_standard(sim, 0.1) if standard is None else standard
    for i in range(len(composed)):
        assert est[i] == mke.cleanliness(composed[i], targets[i], composed[s], targets[s], tau_mk)


def _stack(rng, nb, b, q=4, d=16):
    x = rng.standard_normal((nb, b, q, d))
    return x / np.linalg.norm(x, axis=-1, keepdims=True)


def test_select_standard_stack_equals_per_batch_calls():
    rng = np.random.default_rng(14)
    sim = rng.uniform(-1, 1, size=(7, 12, 12))
    sim[3] = np.eye(12)  # symmetric ties -> lowest index
    got = mke.select_standard(sim, 0.1)
    assert got.tolist() == [mke.select_standard(s, 0.1) for s in sim]


@pytest.mark.parametrize("tau_mk", [0.1, 0.01])
@pytest.mark.parametrize("use_tr", [True, False])
@pytest.mark.parametrize("given_standard", [False, True])
def test_estimate_batch_stack_equals_per_batch_calls(tau_mk, use_tr, given_standard):
    rng = np.random.default_rng(15)
    nb, b = 6, 32
    composed, targets = _stack(rng, nb, b), _stack(rng, nb, b)
    sim = rng.uniform(-1, 1, size=(nb, b, b))
    standard = rng.integers(b, size=nb) if given_standard else None
    got = mke.estimate_batch(composed, targets, sim, 0.1, tau_mk, standard_index=standard,
                             use_transition_rate=use_tr)
    assert got.shape == (nb, b)
    for i in range(nb):
        want = mke.estimate_batch(composed[i], targets[i], sim[i], 0.1, tau_mk,
                                  standard_index=None if standard is None else int(standard[i]),
                                  use_transition_rate=use_tr)
        assert got[i].tobytes() == want.tobytes()
