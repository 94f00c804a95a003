"""Synthetic generators, certainty partitioning, and dataset persistence."""

import re

import numpy as np
import pytest

from cluekit import data, models, store


def test_blobs_ranges_and_split():
    ds = data.gen_blobs(c=4, d=10, n=300, spread=0.2, seed=1)
    assert ds.inputs.shape == (300, 10)
    assert ds.inputs.min() >= 0.0 and ds.inputs.max() <= 1.0
    assert set(np.unique(ds.labels)) == {0, 1, 2, 3}
    assert set(np.unique(ds.train_labels())) == {0, 1, 2, 3}
    n_test = np.sum(ds.split == "test")
    assert abs(n_test / 300 - 0.2) < 0.05


def test_minidigits_ranges_and_balance():
    ds = data.gen_minidigits(n=500, seed=2)
    assert ds.inputs.shape == (500, 64)
    assert ds.inputs.min() >= 0.0 and ds.inputs.max() <= 1.0
    counts = np.bincount(ds.labels, minlength=10)
    assert counts.min() >= 45  # near-balanced classes


def _stroke_walk_glyph(digit, rng):
    """One glyph as the generator drew it before the stroke masks: each
    segment walked cell by cell, shifted, and kept where it lands on the grid."""
    img = np.zeros((8, 8))
    dr = int(rng.integers(-1, 2))
    dc_ = int(rng.integers(-1, 2))
    intensity = 0.7 + 0.3 * rng.random()
    for seg in data._DIGIT_SEGMENTS[digit]:
        r0, c0, r1, c1 = data._SEGMENTS[seg]
        steps = max(abs(r1 - r0), abs(c1 - c0)) + 1
        for t in range(steps):
            r = r0 + (r1 - r0) * t // max(steps - 1, 1) + dr
            c = c0 + (c1 - c0) * t // max(steps - 1, 1) + dc_
            if 0 <= r < 8 and 0 <= c < 8:
                img[r, c] = intensity
    img += 0.08 * rng.standard_normal((8, 8))
    return np.clip(img, 0.0, 1.0).reshape(-1)


@pytest.mark.parametrize("n,seed", [(2000, 11), (203, 0), (57, 4), (1, 8)])
def test_minidigits_equal_the_stroke_walk(n, seed):
    """The glyphs rendered from stroke masks equal the cell-by-cell stroke
    walk bit for bit, with the same draws in the same order, also for an n
    that is not a multiple of 10; ``regenerate`` gives the same bytes again."""
    ds = data.gen_minidigits(n, seed)
    rng = np.random.default_rng([seed, 0])
    labels = np.concatenate([np.full(n // 10 + (digit < n % 10), digit) for digit in range(10)])
    rng.shuffle(labels)
    reference = np.stack([_stroke_walk_glyph(int(y), rng) for y in labels])
    assert ds.inputs.tobytes() == reference.tobytes()
    assert np.array_equal(ds.labels, labels)
    again = data.regenerate(ds.generator)
    assert again.inputs.tobytes() == ds.inputs.tobytes()
    assert np.array_equal(again.labels, ds.labels) and np.array_equal(again.split, ds.split)


def _three_array_minidigits(n, seed):
    """The glyphs as the generator made them with a float gather of the
    stroke masks, a noise array and its 0.08 * noise temporary."""
    rng = np.random.default_rng([seed, 0])
    labels = np.concatenate([np.full(n // 10 + (digit < n % 10), digit) for digit in range(10)])
    rng.shuffle(labels)
    shifts, levels, noise = np.empty((n, 2), dtype=np.int64), np.empty(n), np.empty((n, 64))
    for i in range(n):
        shifts[i] = rng.integers(-1, 2), rng.integers(-1, 2)
        levels[i] = rng.random()
        rng.standard_normal(out=noise[i])
    points = data._stroke_masks().astype(np.float64)[labels, shifts[:, 0] + 1, shifts[:, 1] + 1]
    points *= (0.7 + 0.3 * levels)[:, None]
    points += 0.08 * noise
    return np.clip(points, 0.0, 1.0)


@pytest.mark.parametrize("seed", [0, 3, 11, 23])
@pytest.mark.parametrize("n", [1, 7, 2003])
def test_minidigits_drawn_in_place_equal_the_three_array_formula(n, seed):
    """Noise drawn into the output and levels added where a stroke mask is
    set give the bytes of mask * level + 0.08 * noise."""
    reference = _three_array_minidigits(n, seed)
    assert data.gen_minidigits(n, seed).inputs.tobytes() == reference.tobytes()


def test_minidigits_hold_one_copy_of_the_inputs(traced_peak):
    """The generator's peak stays under 1.5x its inputs' bytes: one float
    array, a boolean mask gather and the per-glyph draws (the float gather,
    noise and 0.08 * noise it held before came to 3.06x)."""
    data.gen_minidigits(20, seed=1)  # numpy's first string ops import modules
    ds, peak = traced_peak(lambda: data.gen_minidigits(2000, seed=0))
    assert peak < 1.5 * ds.inputs.nbytes, peak / ds.inputs.nbytes


STORE_ARRAYS = [np.linspace(0.0, 1.0, 12).reshape(4, 3), np.empty((0, 7)),
                np.arange(5.0), np.arange(6.0).reshape(2, 3).T, np.arange(4).reshape(2, 2)]


def test_a_store_blob_is_its_arrays_float64_bytes_in_order(tmp_path):
    """The blob holds each array's little-endian float64 bytes in order (a
    row-less, a transposed and an int array among them), and loading gives
    the arrays back as writable float64 arrays."""
    store.save_store(tmp_path, {"n": 1}, "blob.bin", STORE_ARRAYS)
    assert (tmp_path / "blob.bin").read_bytes() == b"".join(
        np.ascontiguousarray(a, dtype="<f8").tobytes() for a in STORE_ARRAYS)
    loaded = store.load_store(tmp_path, "blob.bin", lambda m: [a.shape for a in STORE_ARRAYS],
                              lambda m, arrays: arrays)
    for got, saved in zip(loaded, STORE_ARRAYS):
        assert got.dtype == np.float64 and got.flags.writeable and np.array_equal(got, saved)


@pytest.mark.parametrize("edit", [lambda b: b[:-1], lambda b: b + b"\0", lambda b: b + bytes(8)],
                         ids=["short", "odd", "long"])
def test_a_blob_of_another_length_names_both_lengths(tmp_path, edit):
    """A blob shorter or longer than its manifest needs, by part of a float
    or by a whole one, raises the message that names both lengths."""
    store.save_store(tmp_path, {"n": 1}, "blob.bin", STORE_ARRAYS)
    blob = tmp_path / "blob.bin"
    need = blob.stat().st_size
    blob.write_bytes(edit(blob.read_bytes()))
    with pytest.raises(ValueError, match=re.escape(
            f"{blob} holds {blob.stat().st_size} bytes, the manifest needs {need}")):
        store.load_store(tmp_path, "blob.bin", lambda m: [a.shape for a in STORE_ARRAYS],
                         lambda m, arrays: arrays)


def test_a_store_writes_and_reads_its_blob_without_copies(tmp_path, traced_peak):
    """Saving hands each array's buffer to the file, under 0.1x the arrays'
    bytes; loading reads the blob once and views it, under 1.1x (both held
    2x before)."""
    arrays = [data.gen_minidigits(2000, seed=0).inputs, np.ones((3, 5))]
    nbytes = sum(a.nbytes for a in arrays)
    store.save_store(tmp_path / "warm", {"n": 1}, "blob.bin", arrays[1:])
    store.load_store(tmp_path / "warm", "blob.bin", lambda m: [(3, 5)], lambda m, a: a)
    _, saved = traced_peak(lambda: store.save_store(tmp_path, {"n": 1}, "blob.bin", arrays))
    loaded, read = traced_peak(lambda: store.load_store(
        tmp_path, "blob.bin", lambda m: [a.shape for a in arrays], lambda m, a: a))
    assert saved < 0.1 * nbytes, saved / nbytes
    assert read < 1.1 * nbytes, read / nbytes
    assert all(np.array_equal(a, b) for a, b in zip(loaded, arrays))


def test_minidigits_reject_an_empty_set():
    with pytest.raises(ValueError, match="need n >= 1"):
        data.gen_minidigits(0, seed=0)


def test_regeneration_is_bitwise(tmp_path):
    for ds in (data.gen_blobs(c=3, d=6, n=100, spread=0.15, seed=9),
               data.gen_minidigits(n=120, seed=9)):
        again = data.regenerate(ds.generator)
        assert np.array_equal(ds.inputs, again.inputs)
        assert np.array_equal(ds.labels, again.labels)
        assert np.array_equal(ds.split, again.split)


def test_generation_seed_sensitivity():
    a = data.gen_blobs(c=3, d=6, n=100, spread=0.15, seed=0)
    b = data.gen_blobs(c=3, d=6, n=100, spread=0.15, seed=1)
    assert not np.array_equal(a.inputs, b.inputs)


def test_dataset_persistence_roundtrip(tmp_path):
    ds = data.gen_blobs(c=3, d=6, n=80, spread=0.15, seed=4)
    where = tmp_path / "ds"
    data.save_dataset(ds, str(where))
    loaded = data.load_dataset(str(where))
    for a, b in [(ds.inputs, loaded.inputs), (ds.labels, loaded.labels)]:
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    assert np.array_equal(ds.split, loaded.split)
    assert ds.generator == loaded.generator


def test_a_failed_save_leaves_the_saved_dataset_as_it_was(tmp_path):
    """Both files of a store are serialized before either is replaced, so a
    save whose inputs hold a string keeps the old store loadable."""
    ds = data.gen_blobs(c=3, d=6, n=50, spread=0.15, seed=4)
    where = tmp_path / "ds"
    data.save_dataset(ds, str(where))
    bad = data.gen_blobs(c=3, d=6, n=60, spread=0.15, seed=5)
    bad.inputs = bad.inputs.astype(object)
    bad.inputs[0, 0] = "x"
    with pytest.raises(ValueError):
        data.save_dataset(bad, str(where))
    loaded = data.load_dataset(str(where))
    for a, b in [(ds.inputs, loaded.inputs), (ds.labels, loaded.labels)]:
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    assert np.array_equal(ds.split, loaded.split)
    assert ds.generator == loaded.generator
    assert sorted(p.name for p in where.iterdir()) == ["inputs.bin", "manifest.json"]


@pytest.mark.parametrize("test_frac", [float("nan"), 0.0, 1.0, -0.5, 1.5, float("inf")])
def test_generators_reject_test_frac_outside_the_open_unit_interval(test_frac):
    with pytest.raises(ValueError, match="test_frac"):
        data.gen_blobs(c=3, d=6, n=60, spread=0.15, seed=0, test_frac=test_frac)
    with pytest.raises(ValueError, match="test_frac"):
        data.gen_minidigits(n=60, seed=0, test_frac=test_frac)


@pytest.mark.parametrize("spread", [float("nan"), float("inf"), -0.1])
def test_blobs_reject_a_spread_that_is_not_finite_and_non_negative(spread):
    with pytest.raises(ValueError, match="spread"):
        data.gen_blobs(c=3, d=6, n=60, spread=spread, seed=0)


def test_blobs_accept_zero_spread():
    ds = data.gen_blobs(c=3, d=6, n=60, spread=0.0, seed=0)
    assert np.all(np.isfinite(ds.inputs))


def test_export_csv(tmp_path):
    ds = data.gen_blobs(c=3, d=6, n=50, spread=0.15, seed=5)
    path = tmp_path / "ds.csv"
    data.export_csv(ds, str(path))
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 51  # header + one row per point


def test_failed_writes_leave_the_old_files_whole(tmp_path):
    """A write that fails partway leaves the file it would replace as it was,
    and no temp file beside it."""
    ds = data.gen_blobs(c=3, d=6, n=50, spread=0.15, seed=5)
    data.export_csv(ds, tmp_path / "ds.csv")
    data.save_dataset(ds, tmp_path / "dataset")
    before = {p.name: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
    broken = data.Dataset(inputs=ds.inputs.astype(object), labels=ds.labels, split=ds.split,
                          generator=ds.generator)
    broken.inputs[30, 2] = "not a number"  # fails the row loop and the blob alike
    with pytest.raises(ValueError):
        data.export_csv(broken, tmp_path / "ds.csv")
    with pytest.raises(ValueError):
        data.save_dataset(broken, tmp_path / "dataset")

    def rows():  # a table whose second row fails after the first is written
        yield [0, "train", 0.5]
        raise ValueError("not a row")
    with pytest.raises(ValueError, match="not a row"):
        store.write_csv(tmp_path / "ds.csv", ["label", "split", "x0"], rows())
    assert {p.name: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == before


def test_partition_matches_brute_force_recount(blobs, blobs_bundle):
    lo, hi = data.default_taus(blobs_bundle)
    part = data.partition_by_certainty(blobs, blobs_bundle, lo, hi)
    ents = models.predict_entropy(blobs_bundle, blobs.train_inputs())
    assert np.array_equal(part.entropies, ents)
    # the batched entropies are each row's on its own, up to rounding
    rows = [models.predict_entropy(blobs_bundle, x) for x in blobs.train_inputs()]
    np.testing.assert_allclose(ents, rows, rtol=1e-12, atol=0.0)
    assert np.sum(part.flags == "certain") == np.sum(ents <= lo)
    assert np.sum(part.flags == "uncertain") == np.sum(ents > hi)
    for c in range(4):
        mask = (ents <= lo) & (blobs.train_labels() == c)
        assert len(part.certain_of_class(c)) == np.sum(mask)


def test_partition_every_point_gets_one_flag(blobs, blobs_bundle):
    lo, hi = data.default_taus(blobs_bundle)
    part = data.partition_by_certainty(blobs, blobs_bundle, lo, hi)
    assert set(np.unique(part.flags)) <= {"certain", "uncertain", "mid"}
    assert len(part.flags) == len(blobs.train_labels())


def test_partition_tau_extremes(blobs, blobs_bundle):
    part = data.partition_by_certainty(blobs, blobs_bundle, np.inf, np.inf)
    assert np.all(part.flags == "certain")
    part = data.partition_by_certainty(blobs, blobs_bundle, -1.0, np.inf)
    assert np.sum(part.flags == "uncertain") == 0
    assert np.sum(part.flags == "certain") == 0


def test_partition_is_deterministic(blobs, blobs_bundle):
    lo, hi = data.default_taus(blobs_bundle)
    a = data.partition_by_certainty(blobs, blobs_bundle, lo, hi)
    b = data.partition_by_certainty(blobs, blobs_bundle, lo, hi)
    assert np.array_equal(a.flags, b.flags)
    assert np.array_equal(a.entropies, b.entropies)


def test_default_taus_are_training_percentiles(blobs_bundle):
    lo, hi = data.default_taus(blobs_bundle)
    assert 0.0 <= lo <= hi
    pct = blobs_bundle.ensemble_report.entropy_percentiles
    assert lo == pct["20"] and hi == pct["80"]
