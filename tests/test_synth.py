import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from habit import synth
from habit.errors import ConfigError, FormatError


def small_cfg(**kw):
    base = dict(
        n_triplets=60, n_gallery=80, d_in=10, n_attrs=6,
        sigma=0.0, partial_fraction=0.5, unmentioned_noise_std=0.1, seed=3,
    )
    base.update(kw)
    return synth.GenConfig(**base)


def test_sigma_zero_all_clean():
    records, _ = synth.generate(small_cfg(sigma=0.0))
    assert all(r.noise_label == "clean" for r in records)


def test_corruption_count_exact():
    records, _ = synth.generate(small_cfg(n_triplets=50, n_gallery=80, sigma=0.5))
    assert sum(r.noise_label != "clean" for r in records) == 25
    for seed in range(5):
        records, _ = synth.generate(small_cfg(sigma=0.37, seed=seed))
        assert sum(r.noise_label != "clean" for r in records) == int(np.floor(0.37 * 60))


def test_generate_deterministic_files(tmp_path):
    for run in ("a", "b"):
        records, gallery = synth.generate(small_cfg(sigma=0.4))
        synth.write_dataset(records, tmp_path / f"d_{run}.jsonl")
        synth.write_gallery(gallery, tmp_path / f"g_{run}.jsonl")
    assert (tmp_path / "d_a.jsonl").read_bytes() == (tmp_path / "d_b.jsonl").read_bytes()
    assert (tmp_path / "g_a.jsonl").read_bytes() == (tmp_path / "g_b.jsonl").read_bytes()


def test_mismatch_target_differs():
    records, _ = synth.generate(small_cfg(sigma=0.6, partial_fraction=0.0))
    noisy = [r for r in records if r.noise_label == "mismatch"]
    assert noisy
    for r in noisy:
        assert r.target_id != r.id  # generation points record i at gallery entry i


def test_partial_delta_nonempty_strict_subset():
    records, _ = synth.generate(small_cfg(sigma=0.6, partial_fraction=1.0))
    partial = [r for r in records if r.noise_label == "partial"]
    assert partial
    # compare against the clean generation of the same seed
    clean_records, _ = synth.generate(small_cfg(sigma=0.0))
    clean_by_id = {r.id: r for r in clean_records}
    for r in partial:
        full_support = set(np.flatnonzero(clean_by_id[r.id].described_delta).tolist())
        sub_support = set(np.flatnonzero(r.described_delta).tolist())
        assert 0 < len(sub_support) < len(full_support)
        assert sub_support < full_support


def test_clean_separability_without_noise():
    cfg = small_cfg(sigma=0.0, unmentioned_noise_std=0.0)
    records, gallery = synth.generate(cfg)
    attr_table = {tuple(g.attributes): g.id for g in gallery}
    for r in records[:20]:
        want = tuple(r.attrs + r.described_delta)
        assert attr_table[want] == r.target_id


def test_generate_precondition_errors():
    with pytest.raises(ConfigError):
        synth.generate(small_cfg(n_gallery=10))  # < n_triplets
    with pytest.raises(ConfigError):
        synth.generate(small_cfg(sigma=1.5))
    with pytest.raises(ConfigError):
        synth.generate(small_cfg(d_in=3))  # < n_attrs
    with pytest.raises(ConfigError, match="partial_fraction=1.5 outside"):
        synth.generate(small_cfg(partial_fraction=1.5))
    with pytest.raises(ConfigError, match="unmentioned_noise_std must be >= 0"):
        synth.generate(small_cfg(unmentioned_noise_std=-0.1))
    with pytest.raises(ConfigError, match="attribute space too small"):
        small_cfg(n_attrs=2).validate()  # 5**2 < 2 * n_gallery


@pytest.mark.parametrize("key", ["sigma", "partial_fraction", "unmentioned_noise_std"])
@pytest.mark.parametrize("value", [np.inf, np.nan])
def test_generate_non_finite_float_errors(key, value):
    # nan passes `nan < 0`, and an infinite noise std would write ±inf vectors
    with pytest.raises(ConfigError, match=f"{key} must be finite"):
        synth.generate(small_cfg(**{key: value}))


def test_split_half_over_clean():
    records, _ = synth.generate(small_cfg(n_triplets=10, n_gallery=30, sigma=0.0))
    train, test = synth.split(records, 0.5, seed=1)
    assert len(train) == 5 and len(test) == 5
    assert {r.id for r in train} | {r.id for r in test} == {r.id for r in records}
    assert not ({r.id for r in train} & {r.id for r in test})
    with pytest.raises(ConfigError, match="fraction=1.0 outside"):
        synth.split(records, 1.0, seed=1)


def test_split_all_noisy_warns_empty_test():
    records, _ = synth.generate(small_cfg(sigma=1.0))
    with pytest.warns(UserWarning):
        train, test = synth.split(records, 0.5, seed=1)
    assert test == []
    assert len(train) == len(records)


def test_split_deterministic():
    records, _ = synth.generate(small_cfg(sigma=0.3))
    a = synth.split(records, 0.3, seed=9)
    b = synth.split(records, 0.3, seed=9)
    assert [r.id for r in a[0]] == [r.id for r in b[0]]
    assert [r.id for r in a[1]] == [r.id for r in b[1]]


def test_jsonl_round_trip(tmp_path):
    records, gallery = synth.generate(small_cfg(sigma=0.5))
    synth.write_dataset(records, tmp_path / "d.jsonl")
    synth.write_gallery(gallery, tmp_path / "g.jsonl")
    back = synth.read_dataset(tmp_path / "d.jsonl")
    gback = synth.read_gallery(tmp_path / "g.jsonl")
    assert len(back) == len(records)
    for a, b in zip(records, back):
        assert a.id == b.id and a.target_id == b.target_id and a.noise_label == b.noise_label
        np.testing.assert_array_equal(a.ref_vec, b.ref_vec)
        np.testing.assert_array_equal(a.mod_vec, b.mod_vec)
    for a, b in zip(gallery, gback):
        assert a.id == b.id
        np.testing.assert_array_equal(a.vec, b.vec)


def test_all_integral_vectors_read_back_as_float64(tmp_path):
    # %.17g writes 1.0 as "1", so these lines hold JSON integers only
    vecs = [np.array([1.0, 0.0, -2.0]), np.array([-0.0, 3.0, 0.0])]
    records = [synth.TripletRecord(id=0, ref_vec=vecs[0], mod_vec=vecs[1], target_id=1, noise_label="clean")]
    gallery = [synth.GalleryEntry(id=i, vec=v) for i, v in enumerate(vecs)]
    synth.write_dataset(records, tmp_path / "d.jsonl")
    synth.write_gallery(gallery, tmp_path / "g.jsonl")
    assert "." not in (tmp_path / "g.jsonl").read_text()
    back, gback = synth.read_dataset(tmp_path / "d.jsonl")[0], synth.read_gallery(tmp_path / "g.jsonl")
    for vec, got in zip(vecs * 2, [back.ref_vec, back.mod_vec] + [g.vec for g in gback]):
        assert got.dtype == np.float64 and got.tobytes() == vec.tobytes()


def test_read_dataset_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"id": 1, "ref": [1, 2]\n')
    with pytest.raises(FormatError):
        synth.read_dataset(bad)


# SHA-256 of (dataset.jsonl, gallery.jsonl) as the one-vector-at-a-time
# generator wrote them. The draw order and every float's 17 digits are part of
# the file format; a numpy or BLAS change that rounds the stacked products
# differently fails here.
PINNED = [
    (dict(sigma=0.5, seed=0),
     "977bc293d2c7f1528bed319b331db66f82b06169bd1cfcf366e0b9b520040de7",
     "6d777098e6baeb5514e97c74a7e2088010c297cfccb50cd9a2a199be1ab176f4"),
    # 12 of the 25 points of a 2-attribute space: most draws repeat one
    (dict(n_triplets=10, n_gallery=12, d_in=4, n_attrs=2, sigma=0.5, seed=1),
     "cb8367ccca6130453d706a83e5734853a0005c27f799304768fa0d96d21f2dfa",
     "4d1900b1b1cb3118a5ec220c5e697728424e3c66cd7240b5ef7a459c50e1099b"),
    (dict(n_triplets=60, n_gallery=80, d_in=10, n_attrs=6, sigma=0.4, unmentioned_noise_std=0.0, seed=3),
     "92913be6e3a598291dd9d5ccdcbaaff75bfb9595eb65278e18081e24b0395d04",
     "b6972695cabf46237e62eca1c1206edfa60abc97c055e8acf44940b6cf41365f"),
]


@pytest.mark.parametrize("kw, dataset_sha, gallery_sha", PINNED, ids=["default", "dense", "no_noise"])
def test_generated_files_pinned(tmp_path, kw, dataset_sha, gallery_sha):
    records, gallery = synth.generate(synth.GenConfig(**kw))
    synth.write_dataset(records, tmp_path / "d.jsonl")
    synth.write_gallery(gallery, tmp_path / "g.jsonl")
    assert hashlib.sha256((tmp_path / "d.jsonl").read_bytes()).hexdigest() == dataset_sha
    assert hashlib.sha256((tmp_path / "g.jsonl").read_bytes()).hexdigest() == gallery_sha


def distinct_one_at_a_time(rng, n, n_attrs):
    seen, out = set(), []
    while len(out) < n:
        a = rng.integers(0, synth.ATTR_LEVELS, size=n_attrs)
        key = tuple(int(x) for x in a)
        if key not in seen:
            seen.add(key)
            out.append(a.astype(np.float64))
    return out


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_attrs=st.integers(2, 8), data=st.data())
def test_distinct_vectors_match_one_at_a_time(seed, n_attrs, data):
    # n reaches half the attribute space for up to 4 attributes; the cap keeps
    # the reference loop fast where the space is larger
    n = data.draw(st.integers(1, min(synth.ATTR_LEVELS**n_attrs // 2, 400)), label="n")
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = synth._distinct_attribute_vectors(rng, n, n_attrs)
    want = distinct_one_at_a_time(ref_rng, n, n_attrs)
    assert got.dtype == np.float64 and got.shape == (n, n_attrs)
    np.testing.assert_array_equal(got, np.array(want))
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_writers_of_nothing_write_empty_files(tmp_path):
    synth.write_dataset([], tmp_path / "d.jsonl")
    synth.write_gallery([], tmp_path / "g.jsonl")
    assert (tmp_path / "d.jsonl").read_bytes() == b""
    assert (tmp_path / "g.jsonl").read_bytes() == b""


@pytest.mark.parametrize("vec", [
    [-0.0, 5e-324, 1e308, np.inf, -np.inf, np.nan],
    [0.1, -2.5, 1 / 3],
    [np.nan],
    [],
], ids=["edges", "plain", "one", "empty"])
def test_fmt_matches_per_element_format(vec):
    arr = np.array(vec, dtype=np.float64)
    assert synth._fmt(arr) == "[" + ", ".join(f"{x:.17g}" for x in arr) + "]"
