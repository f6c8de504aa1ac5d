"""Dataset generation, augmentation, post-processing, and file-format tests."""
import hashlib
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from topogan.data import (
    NOISE_AMPLITUDE,
    Dataset,
    SweepGrid,
    _record_dtype,
    atomic_open,
    augment,
    augment_dataset,
    class_target_fraction,
    gaussian_kernel,
    postprocess,
    read_dataset,
    sweep_generate,
    synth_classes,
    threshold,
    write_dataset,
)
from topogan.exceptions import DimensionError, FormatError, ParameterError
from topogan.fem import MeshSpec


# ---------------------------------------------------------------------------
# post-processing, with an explicit convolution oracle

def convolve_oracle(image, kernel):
    """Direct 5x5 convolution with symmetric (reflect) border handling."""
    h, w = image.shape
    r = kernel.shape[0] // 2
    out = np.zeros_like(image, dtype=np.float64)

    def reflect(idx, n):
        while idx < 0 or idx >= n:
            if idx < 0:
                idx = -idx - 1
            else:
                idx = 2 * n - idx - 1
        return idx

    for y in range(h):
        for x in range(w):
            acc = 0.0
            for dy in range(-r, r + 1):
                for dx in range(-r, r + 1):
                    acc += kernel[dy + r, dx + r] * image[reflect(y + dy, h), reflect(x + dx, w)]
            out[y, x] = acc
    return out


def test_postprocess_constant_images():
    assert np.allclose(postprocess(np.full((8, 8), 0.7)), 1.0)
    assert np.allclose(postprocess(np.full((8, 8), 0.3)), 0.0)


def test_postprocess_impulse_matches_convolution_oracle():
    image = np.zeros((9, 9))
    image[4, 4] = 1.0
    out = postprocess(image)
    kernel = gaussian_kernel()
    assert out[4, 4] == pytest.approx(kernel[2, 2], abs=1e-12)
    oracle = convolve_oracle(threshold(image), kernel)
    assert np.abs(out - oracle).max() < 1e-12


def test_postprocess_matches_oracle_random_images():
    rng = np.random.default_rng(21)
    kernel = gaussian_kernel()
    for _ in range(3):
        image = rng.uniform(0, 1, size=(7, 11))
        out = postprocess(image)
        oracle = convolve_oracle(threshold(image), kernel)
        assert np.abs(out - oracle).max() < 1e-12


def test_postprocess_threshold_semantics():
    image = np.full((6, 6), 0.5)  # exactly 0.5 rounds up
    assert np.allclose(postprocess(image), 1.0)


def test_postprocess_rejects_small_images():
    with pytest.raises(DimensionError):
        postprocess(np.zeros((4, 9)))


def test_threshold_idempotent():
    rng = np.random.default_rng(3)
    image = rng.uniform(0, 1, size=(6, 6))
    once = threshold(image)
    assert np.array_equal(threshold(once), once)


def test_gaussian_kernel_normalized():
    k = gaussian_kernel()
    assert k.shape == (5, 5)
    assert k.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.array_equal(k, k.T)


# ---------------------------------------------------------------------------
# augmentation

def make_image():
    rng = np.random.default_rng(0)
    return rng.uniform(0.2, 0.8, size=(10, 12)).astype(np.float32)


def test_augment_seed_is_checked():
    image = make_image()
    ds = synth_classes(2, 1, 8, seed=0)
    for seed in (1.5, -1, None, True):   # numpy's bare TypeError or ValueError
        with pytest.raises(ParameterError, match="seed"):
            augment(image, seed=seed)
        with pytest.raises(ParameterError, match="seed"):
            augment_dataset(ds, seed=seed)
    with pytest.raises(DimensionError):
        augment(image.ravel(), seed=5)


def test_augment_deterministic():
    image = make_image()
    a = augment(image, seed=7)
    b = augment(image, seed=7)
    assert np.array_equal(a, b)


def test_augment_bounded_changes():
    image = make_image()
    out = augment(image, seed=11)
    diff = np.abs(out - image.astype(np.float64))
    assert (diff > 0).sum() <= 1
    assert diff.max() <= NOISE_AMPLITUDE + 1e-6
    assert out.min() >= 0.0 and out.max() <= 1.0


def test_augment_moves_noise_fraction_of_pixels():
    # round(NOISE_FRACTION * h * w) pixels, at least one; pixels in [0.2, 0.8]
    # all move, as U(-0.5, 0.5) noise is never 0 and clipping never restores them
    rng = np.random.default_rng(1)
    for (h, w), count in (((3, 3), 1), ((10, 12), 1), ((30, 40), 12), ((28, 28), 8)):
        image = rng.uniform(0.2, 0.8, size=(h, w))
        assert (augment(image, seed=3) != image).sum() == count


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**31))
def test_augment_invariants(seed):
    image = make_image()
    out = augment(image, seed)
    assert out.min() >= 0.0 and out.max() <= 1.0
    assert (out != image).sum() <= 1


def test_augment_dataset_doubles():
    ds = synth_classes(2, 3, 8, seed=0)
    out = augment_dataset(ds, seed=1)
    n = len(ds)
    assert len(out) == 2 * n
    assert np.array_equal(out.images[:n], ds.images)
    assert out.cardinality == ds.cardinality
    # each noisy copy keeps its source's condition and meta
    for name in ("conditions", "volfrac", "penal", "rmin", "compliance", "converged"):
        assert np.array_equal(getattr(out, name)[n:], getattr(ds, name)), name
        assert np.array_equal(getattr(out, name)[:n], getattr(ds, name)), name


def test_augment_dataset_output_is_pinned():
    # every byte of the doubled set: the noise recipe (count, amplitude, the
    # per-sample seeds and draw order) cannot drift unseen; 16x16 images take
    # 3 noisy pixels each
    out = augment_dataset(synth_classes(3, 2, 16, seed=4), seed=9)
    assert len(out) == 12
    assert hashlib.sha256(out.records.tobytes()).hexdigest() == \
        "3d314168f9b1d07368f27c20e0db4c29b41c386fc8b45f63a51bbca0244c2f0e"


# ---------------------------------------------------------------------------
# TOPD persistence

def small_dataset():
    rng = np.random.default_rng(17)
    return Dataset(
        images=rng.uniform(0, 1, size=(2, 4, 5)).astype(np.float32),
        conditions=[0.4, 0.6],
        volfrac=[0.4, 0.6],
        penal=[3.0, 3.0],
        rmin=[1.5, 2.0],
        compliance=[12.5, 8.25],
        converged=[1, 0],
    )


def test_topd_roundtrip_bit_exact(tmp_path):
    ds = small_dataset()
    path = tmp_path / "d.topd"
    write_dataset(ds, path)
    back = read_dataset(path)
    assert back.equals(ds)
    assert not back.images.flags.writeable   # views of the file's bytes, not copies
    # a second write of the read dataset is byte-identical
    path2 = tmp_path / "d2.topd"
    write_dataset(back, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_topd_writes_a_strided_view_as_its_contiguous_copy(tmp_path):
    # a strided record view raised a bare BufferError from the write
    ds = synth_classes(3, 4, 8, seed=9)
    view = Dataset.from_records(ds.records[::2], ds.cardinality)
    copy = Dataset.from_records(ds.records[::2].copy(), ds.cardinality)
    write_dataset(view, tmp_path / "view.topd")
    write_dataset(copy, tmp_path / "copy.topd")
    assert (tmp_path / "view.topd").read_bytes() == (tmp_path / "copy.topd").read_bytes()
    assert read_dataset(tmp_path / "view.topd").equals(copy)
    assert sorted(path.name for path in tmp_path.iterdir()) == ["copy.topd", "view.topd"]


def test_from_records_refuses_a_foreign_record_dtype():
    # <f8 conditions were accepted, and write_dataset then wrote a file that
    # read_dataset refused with FormatError
    records = synth_classes(2, 2, 4, seed=1).records
    wide = np.dtype([(name, "<f8" if name == "conditions" else records.dtype[name])
                     for name in records.dtype.names])
    for bad in (records.astype(wide), records[["conditions", "images"]],
                records.reshape(2, 2), np.zeros(4)):
        with pytest.raises(ParameterError, match="TOPD records"):
            Dataset.from_records(bad, 2)
    assert Dataset.from_records(records.astype(_record_dtype(4, 4)), 2).equals(
        Dataset.from_records(records, 2))


def test_atomic_open_leaves_the_old_file_when_the_body_raises(tmp_path):
    # the body's failure left <name>.tmp behind
    path = tmp_path / "a.bin"
    path.write_bytes(b"old")
    with pytest.raises(ValueError, match="body failed"):
        with atomic_open(path) as fh:
            fh.write(b"new, partly")
            raise ValueError("body failed")
    assert path.read_bytes() == b"old"
    assert [entry.name for entry in tmp_path.iterdir()] == ["a.bin"]


def test_topd_roundtrip_class_dataset(tmp_path):
    ds = synth_classes(3, 4, 8, seed=9)
    path = tmp_path / "c.topd"
    write_dataset(ds, path)
    back = read_dataset(path)
    assert back.equals(ds)
    assert back.cardinality == 3
    assert path.read_bytes()[20] == 1          # kind byte: class


def test_write_dataset_refuses_a_cardinality_beyond_u32(tmp_path):
    # TOPD stores the cardinality as a u32: 2**32 - 1 round-trips, and a larger
    # one is refused before any file is made
    path = tmp_path / "big.topd"
    largest = Dataset(np.zeros((2, 4, 4)), [0, 1], cardinality=2**32 - 1)
    write_dataset(largest, path)
    assert read_dataset(path).equals(largest)
    path.unlink()
    for cardinality in (2**32, 2**33):
        with pytest.raises(ParameterError, match=f"cardinality {cardinality}"):
            write_dataset(Dataset(np.zeros((2, 4, 4)), [0, 1], cardinality=cardinality), path)
    assert list(tmp_path.iterdir()) == []


def test_topd_bad_magic(tmp_path):
    path = tmp_path / "bad.topd"
    write_dataset(small_dataset(), path)
    blob = bytearray(path.read_bytes())
    blob[:4] = b"NOPE"
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError, match="bad magic"):
        read_dataset(path)


def test_topd_truncated(tmp_path):
    path = tmp_path / "trunc.topd"
    write_dataset(small_dataset(), path)
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) - 7])
    with pytest.raises(FormatError):
        read_dataset(path)


@settings(max_examples=200, deadline=None)
@given(edits=st.lists(st.tuples(st.integers(0, 10_000), st.integers(0, 255)),
                      min_size=1, max_size=4),
       cut=st.integers(0, 8))
def test_topd_reader_is_total(tmp_path_factory, edits, cut):
    # any byte edit or truncation either fails as FormatError or loads a
    # dataset that writes back to exactly the same bytes
    path = tmp_path_factory.mktemp("fuzz") / "f.topd"
    write_dataset(small_dataset(), path)
    blob = bytearray(path.read_bytes())
    for pos, value in edits:
        blob[pos % len(blob)] = value
    mutated = bytes(blob[:len(blob) - cut])
    path.write_bytes(mutated)
    try:
        back = read_dataset(path)
    except FormatError:
        return
    write_dataset(back, path)
    assert path.read_bytes() == mutated


def test_topd_rejects_out_of_range_records(tmp_path):
    continuous, labelled = tmp_path / "r.topd", tmp_path / "c.topd"
    write_dataset(small_dataset(), continuous)
    write_dataset(synth_classes(3, 2, 4, seed=0), labelled)
    header = struct.calcsize("<4sIIIIBI")
    for path, offset, value in ((continuous, header, 1.5),                   # condition
                                (continuous, header + 8, float("nan")),      # penal
                                (continuous, header + 16, float("inf")),     # compliance
                                (labelled, header, 1.5)):                    # class label
        blob = bytearray(path.read_bytes())
        struct.pack_into("<f", blob, offset, value)
        bad = tmp_path / "bad.topd"
        bad.write_bytes(bytes(blob))
        with pytest.raises(FormatError):
            read_dataset(bad)


def test_topd_continuous_with_a_cardinality_is_format_error(tmp_path):
    # the kind byte and the cardinality disagree: the error names the kind
    # byte's offset, not the records' (25)
    path = tmp_path / "k.topd"
    write_dataset(small_dataset(), path)
    blob = bytearray(path.read_bytes())
    assert blob[20] == 0                       # kind byte: continuous
    struct.pack_into("<I", blob, 21, 5)        # class cardinality
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError, match="cardinality") as err:
        read_dataset(path)
    assert err.value.offset == 20
    # and the reverse: kind byte class, cardinality 0
    write_dataset(small_dataset(), path)
    blob = bytearray(path.read_bytes())
    blob[20] = 1
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError, match="cardinality 0") as err:
        read_dataset(path)
    assert err.value.offset == 20


def test_topd_bad_version(tmp_path):
    path = tmp_path / "ver.topd"
    write_dataset(small_dataset(), path)
    blob = bytearray(path.read_bytes())
    struct.pack_into("<I", blob, 4, 99)
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError, match="version"):
        read_dataset(path)


# ---------------------------------------------------------------------------
# synthetic classes

def test_synth_two_classes_targets():
    ds = synth_classes(2, 20, 16, seed=4)
    means = ds.images.reshape(len(ds), -1).mean(axis=1)
    for i in range(len(ds)):
        target = class_target_fraction(int(ds.conditions[i]), 2)
        assert abs(means[i] - target) <= 0.02
    assert class_target_fraction(0, 2) == pytest.approx(1 / 3)
    assert class_target_fraction(1, 2) == pytest.approx(2 / 3)


def test_synth_deterministic():
    a = synth_classes(3, 5, 12, seed=8)
    b = synth_classes(3, 5, 12, seed=8)
    assert a.equals(b)


def test_synth_ten_classes_strictly_increasing_targets():
    ds = synth_classes(10, 2, 24, seed=5)
    targets = [class_target_fraction(k, 10) for k in range(10)]
    assert all(b > a for a, b in zip(targets, targets[1:]))
    means = ds.images.reshape(len(ds), -1).mean(axis=1)
    for i in range(len(ds)):
        assert abs(means[i] - targets[int(ds.conditions[i])]) <= 0.02


def test_synth_rejects_bad_class_count():
    with pytest.raises(ParameterError):
        synth_classes(1, 5, 8, seed=0)
    with pytest.raises(ParameterError):
        synth_classes(11, 5, 8, seed=0)


def test_synth_sizes_must_be_ints():
    # each raised a bare TypeError from numpy or range
    for args, field in (((2.5, 6, 8), "class_count"), ((2, 6, 8.5), "size"),
                        ((2, 6.0, 8), "per_class"), ((2, True, 8), "per_class"),
                        ((2, 6, None), "size")):
        with pytest.raises(ParameterError, match=field):
            synth_classes(*args, seed=0)
    for seed in (1.5, -1, None, True):   # numpy's bare TypeError or ValueError
        with pytest.raises(ParameterError, match="seed"):
            synth_classes(2, 6, 8, seed=seed)
    assert synth_classes(np.int64(2), np.int32(6), np.int64(8), seed=0).equals(
        synth_classes(2, 6, 8, seed=0))


# ---------------------------------------------------------------------------
# SIMP sweeps

def test_sweep_single_point_volume():
    grid = SweepGrid(volfracs=(0.5,), penals=(3.0,), rmins=(1.5,), mesh=MeshSpec(20, 10))
    ds = sweep_generate(grid)
    assert len(ds) == 1
    assert abs(float(ds.images[0].mean()) - 0.5) <= 1e-3
    assert ds.cardinality == 0
    assert ds.conditions[0] == pytest.approx(0.5)
    assert ds.compliance[0] > 0


def test_sweep_cartesian_order():
    grid = SweepGrid(volfracs=(0.4, 0.6), penals=(2.0, 3.0), rmins=(1.5, 2.0),
                     mesh=MeshSpec(6, 4))
    ds = sweep_generate(grid)
    assert len(ds) == 8
    expected = [
        (0.4, 2.0, 1.5), (0.4, 2.0, 2.0), (0.4, 3.0, 1.5), (0.4, 3.0, 2.0),
        (0.6, 2.0, 1.5), (0.6, 2.0, 2.0), (0.6, 3.0, 1.5), (0.6, 3.0, 2.0),
    ]
    got = [(round(float(v), 6), round(float(p), 6), round(float(r), 6))
           for v, p, r in zip(ds.volfrac, ds.penal, ds.rmin)]
    assert got == expected


def test_sweep_order_reproducible():
    grid = SweepGrid(volfracs=(0.4, 0.5), penals=(3.0,), rmins=(1.5,), mesh=MeshSpec(6, 4))
    a = sweep_generate(grid)
    b = sweep_generate(grid)
    assert a.equals(b)


def test_sweep_grid_validates_bounds():
    mesh = MeshSpec(4, 4)
    with pytest.raises(ParameterError):
        SweepGrid(volfracs=(0.2,), penals=(3.0,), rmins=(1.5,), mesh=mesh)
    with pytest.raises(ParameterError):
        SweepGrid(volfracs=(0.5,), penals=(5.0,), rmins=(1.5,), mesh=mesh)
    with pytest.raises(ParameterError):
        SweepGrid(volfracs=(0.5,), penals=(3.0,), rmins=(), mesh=mesh)
    # a string compared with a bound raised a bare TypeError
    axes = {"volfracs": (0.5,), "penals": (3.0,), "rmins": (1.5,)}
    for name in axes:
        for bad in ("0.5", None, True, 1 + 0j, np.nan):
            with pytest.raises(ParameterError, match=name):
                SweepGrid(**{**axes, name: (bad,)}, mesh=mesh)
    assert len(SweepGrid(volfracs=(np.float32(0.5),), penals=(3,), rmins=(2,), mesh=mesh)) == 1
    # an array axis raised numpy's "truth value is ambiguous" ValueError, a bare
    # float a TypeError, and a string was read one character at a time
    for name in axes:
        for bad in (np.array([0.5, 0.6]), 0.5, "0.5", None, (), []):
            with pytest.raises(ParameterError, match=name):
                SweepGrid(**{**axes, name: bad}, mesh=mesh)
    assert len(SweepGrid(volfracs=[0.4, 0.5], penals=[3.0], rmins=[1.5], mesh=mesh)) == 2
    # a list axis made the frozen grid's generated __hash__ raise TypeError
    listed = SweepGrid(volfracs=[0.4], penals=[3.0], rmins=[1.5], mesh=mesh)
    twin = SweepGrid(volfracs=(0.4,), penals=(3.0,), rmins=(1.5,), mesh=mesh)
    assert hash(listed) == hash(twin) and listed == twin and listed.volfracs == (0.4,)
    # a tuple mesh failed only inside run_simp, with an AttributeError
    for bad in ((8, 4), None):
        with pytest.raises(ParameterError, match="mesh"):
            SweepGrid(**axes, mesh=bad)


def test_full_paper_grid_count_contract():
    # 3024 = 14 * 12 * 18 fits the stated bounds; count contract only
    volfracs = tuple(np.linspace(0.3, 0.8, 14))
    penals = tuple(np.linspace(2.0, 4.0, 12))
    rmins = tuple(np.linspace(1.5, 3.0, 18))
    grid = SweepGrid(volfracs=volfracs, penals=penals, rmins=rmins, mesh=MeshSpec(120, 120))
    assert len(grid) == 3024


# ---------------------------------------------------------------------------
# misc utilities

def test_condition_types_validate():
    image = np.zeros((1, 4, 4))
    for conditions, cardinality in (([1.5], 0), ([3], 3), ([1.5], 3), ([np.nan], 3)):
        with pytest.raises(ParameterError):
            Dataset(image, conditions, cardinality=cardinality)
    assert Dataset(image, [2], cardinality=3).conditions[0] == 2


@pytest.mark.parametrize("field", ["images", "conditions", "volfrac", "penal", "rmin",
                                   "compliance"])
def test_dataset_rejects_nan_record_fields(field):
    ds = small_dataset()
    fields = {name: np.array(getattr(ds, name)) for name in ds.records.dtype.names}
    fields[field].flat[1] = np.nan
    with pytest.raises(ParameterError):
        Dataset(**fields)


def test_dataset_rejects_a_cardinality_that_is_not_an_int():
    # each was cast to int before the check: 2.7 became 2 classes, 0.4 became 0
    image = np.zeros((1, 4, 4))
    for conditions, cardinality in (([1], 2.7), ([1], 2.0), ([0.5], 0.4), ([0], True),
                                    ([0.5], False), ([0.5], -1)):
        with pytest.raises(ParameterError):
            Dataset(image, conditions, cardinality=cardinality)
        with pytest.raises(ParameterError):
            Dataset.from_records(Dataset(image, conditions,
                                         cardinality=max(int(cardinality), 0)).records,
                                 cardinality)


def test_continuous_conditions_have_cardinality_zero():
    # cardinality 0, the default, is the continuous domain; a cardinality of 5
    # makes 0.5 a class label, which is not an integer
    image = np.zeros((1, 4, 4))
    with pytest.raises(ParameterError, match="integers"):
        Dataset(image, [0.5], cardinality=5)
    assert Dataset(image, [0.5]).cardinality == 0


def test_dataset_record_fields_must_be_numbers_and_flags_0_or_1(tmp_path):
    # 0.5 was stored as flag 0 and 2 as flag 2, -1 and 256 raised a bare
    # OverflowError, and a string a bare ValueError
    image = np.zeros((1, 4, 4))
    for flags in ([0.5], [2], [-1], [256], [np.nan]):
        with pytest.raises(ParameterError, match="converged"):
            Dataset(image, [0.5], converged=flags)
    for field in ("images", "conditions", "volfrac", "penal", "rmin", "compliance",
                  "converged"):
        fields = {"images": image, "conditions": [0.5]}
        fields[field] = [[["x"] * 4] * 4] if field == "images" else ["x"]
        with pytest.raises(ParameterError, match=field):
            Dataset(**fields)
    assert list(Dataset(np.zeros((3, 4, 4)), [0.5] * 3, converged=[True, 0, 1.0]).converged) \
        == [1, 0, 1]
    # a file's flag byte other than 0 or 1 is a format error
    path = tmp_path / "f.topd"
    write_dataset(small_dataset(), path)
    blob = bytearray(path.read_bytes())
    flag = struct.calcsize("<4sIIIIBI") + 20   # the first record's converged byte
    assert blob[flag] == 1
    blob[flag] = 2
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError, match="converged"):
        read_dataset(path)
