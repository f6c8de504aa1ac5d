"""Labeled image datasets: SIMP sweeps, augmentation, post-processing, file IO.

Dataset files use the TOPD binary layout (little-endian): magic "TOPD",
u32 version=1, u32 width, u32 height, u32 count, u8 condition kind
(0=continuous, 1=class), u32 class cardinality (0 if continuous); then per
record f32 condition, f32 volfrac, f32 penal, f32 rmin, f32 compliance,
u8 converged flag, and width*height f32 pixels row-major. Unknown meta
fields are written as 0. A `Dataset` is these records in one array:
`read_dataset` returns read-only views of the file's bytes.

A condition domain is its cardinality, from which the kind byte is written
and with which it must agree: 0 for continuous values, k >= 1 for k class
labels. `check_conditions` is the one rule for condition values, which the
dataset, the networks' encoding and sampling all apply: finite; class labels
integral and in [0, cardinality); continuous values in [0, 1]. `mismatched`
is the one rule for when two conditions of a domain differ, which the
objectives' draws in `train` apply. A dataset also holds only numeric, finite
record fields, converged flags of 0 or 1 and pixels in [0, 1].
Class-conditioned data comes from `synth_classes`, whose per-class fill
fractions are known exactly. Augmentation has one recipe: `augment` moves
NOISE_FRACTION of an image's pixels, at least one, by up to NOISE_AMPLITUDE.
"""
from __future__ import annotations

import logging
import os
import struct
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import product
from pathlib import Path

import numpy as np

from .exceptions import DimensionError, FormatError, ParameterError
from .fem import MeshSpec, SimpParams, check_float, check_int, run_simp

log = logging.getLogger(__name__)

TOPD_MAGIC = b"TOPD"
TOPD_VERSION = 1

GAUSS_KERNEL_SIZE = 5
GAUSS_SIGMA = 1.0
NOISE_FRACTION = 0.01
NOISE_AMPLITUDE = 0.5
MISMATCH_MARGIN = 0.05
# float32 rounding, far below any grid spacing: TOPD stores conditions as "<f4",
# where 0.35 - 0.30 is 0.04999998
ROUNDING_ALLOWANCE = 1e-6


def condition_dim(cardinality: int) -> int:
    """Width of an encoded condition: one-hot `cardinality` for class labels, 1
    for continuous values (cardinality 0); a cardinality that is not an int >= 0
    raises ParameterError."""
    check_int("cardinality", cardinality, 0)
    return cardinality or 1


def check_conditions(values: np.ndarray, cardinality: int) -> int:
    """`condition_dim`, after checking a batch of condition values of that domain.

    The one rule for condition values: finite; class labels integral and in
    [0, cardinality); continuous values in [0, 1]. A violation raises
    ParameterError.
    """
    dim = condition_dim(cardinality)
    if not values.size:
        return dim
    if not np.isfinite(values).all():
        raise ParameterError("conditions must be finite")
    if cardinality:
        if values.min() < 0 or values.max() >= cardinality:
            raise ParameterError(f"class index outside 0..{cardinality - 1}")
        if (values != np.trunc(values)).any():
            raise ParameterError("class labels must be integers")
    elif values.min() < 0.0 or values.max() > 1.0:
        raise ParameterError("continuous conditions must lie in [0, 1]")
    return dim


def mismatched(y1, y2, cardinality: int):
    """Whether conditions y1 and y2 (scalars or arrays) of a domain mismatch, elementwise.

    Class labels (cardinality >= 1) mismatch when they differ, continuous values
    (cardinality 0) when they lie at least MISMATCH_MARGIN apart, less ROUNDING_ALLOWANCE.
    """
    return y1 != y2 if cardinality else abs(y1 - y2) >= MISMATCH_MARGIN - ROUNDING_ALLOWANCE


@dataclass(frozen=True)
class SweepGrid:
    """Cartesian SIMP parameter grid; bounds follow the training-data recipe."""

    volfracs: tuple[float, ...]
    penals: tuple[float, ...]
    rmins: tuple[float, ...]
    mesh: MeshSpec

    def __post_init__(self):
        for name, low, high in (("volfracs", 0.3, 0.8), ("penals", 2.0, 4.0),
                                ("rmins", 1.5, 3.0)):
            axis = getattr(self, name)
            # an array, a string or a bare number would be truth-tested or iterated
            if not (isinstance(axis, (tuple, list)) and axis):
                raise ParameterError(f"{name} must be a nonempty tuple or list, got {axis!r}")
            for value in axis:
                check_float(name, value, low, high)
            object.__setattr__(self, name, tuple(axis))   # hashable, equal to its tuple twin
        if not isinstance(self.mesh, MeshSpec):
            raise ParameterError(f"mesh must be a MeshSpec, got {self.mesh!r}")

    def __len__(self) -> int:
        return len(self.volfracs) * len(self.penals) * len(self.rmins)


def _field(name: str) -> property:
    return property(lambda self: self.records[name], doc=f"The {name} field of every record.")


def _numbers(name: str, values) -> np.ndarray:
    values = np.asarray(values)
    if values.dtype.kind not in "biuf":   # bool, int, uint, float
        raise ParameterError(f"{name} must be numbers, got {values.dtype} values")
    return values


def _check_flags(flags: np.ndarray) -> None:
    if not np.isin(flags, (0, 1)).all():
        raise ParameterError("converged flags must be 0 or 1")


class Dataset:
    """Uniform-size image collection with one condition domain across samples.

    A dataset is its TOPD record array (`records`, of `_record_dtype(h, w)`);
    `images`, `conditions` and the meta fields are views of its fields, so a
    file round trip is bit-exact and needs no copy.
    """

    images = _field("images")
    conditions = _field("conditions")
    volfrac = _field("volfrac")
    penal = _field("penal")
    rmin = _field("rmin")
    compliance = _field("compliance")
    converged = _field("converged")

    def __init__(self, images, conditions, cardinality=0,
                 volfrac=None, penal=None, rmin=None, compliance=None, converged=None):
        images = _numbers("images", images)
        if images.ndim != 3:
            raise DimensionError(f"images must be (n, H, W), got shape {images.shape}")
        records = np.zeros(images.shape[0], dtype=_record_dtype(*images.shape[1:]))
        records["images"] = images
        records["converged"] = 1
        for name, values in (("conditions", conditions), ("volfrac", volfrac),
                             ("penal", penal), ("rmin", rmin), ("compliance", compliance),
                             ("converged", converged)):
            if values is None and name != "conditions":
                continue
            values = _numbers(name, values)
            if values.shape != records.shape:
                raise DimensionError(f"{name} must have one entry per image")
            if name == "converged":   # before the u1 cast could wrap or truncate a flag
                _check_flags(values)
            records[name] = values
        self._adopt(records, cardinality)

    @classmethod
    def from_records(cls, records: np.ndarray, cardinality: int = 0) -> "Dataset":
        """The dataset over an existing 1-D TOPD record array, without copying it.

        Records of any other dtype, `<f8` conditions for instance, raise
        ParameterError: `write_dataset` writes the array's bytes as they are.
        """
        images = (records.dtype.fields or {}).get("images")
        if records.ndim != 1 or images is None or len(images[0].shape) != 2 \
                or records.dtype != _record_dtype(*images[0].shape):
            raise ParameterError(f"records must be a 1-D array of TOPD records, got "
                                 f"{records.ndim}-D of dtype {records.dtype}")
        ds = cls.__new__(cls)
        ds._adopt(records, cardinality)
        return ds

    def _adopt(self, records: np.ndarray, cardinality: int) -> None:
        """Take `records` as this dataset's storage and check its contents.

        The conditions must pass `check_conditions`, every field must be
        finite, every converged flag 0 or 1 and every pixel in [0, 1].
        """
        self.records = records
        check_conditions(self.conditions, cardinality)
        self.cardinality = cardinality
        for name in records.dtype.names:
            if not np.isfinite(records[name]).all():
                raise ParameterError(f"{name} must be finite")
        _check_flags(self.converged)
        if self.images.size and (self.images.min() < 0.0 or self.images.max() > 1.0):
            raise ParameterError("pixels must lie in [0, 1]")

    def __len__(self) -> int:
        return self.records.shape[0]

    @property
    def height(self) -> int:
        return self.images.shape[1]

    @property
    def width(self) -> int:
        return self.images.shape[2]

    def equals(self, other: "Dataset") -> bool:
        return (
            self.cardinality == other.cardinality
            and self.records.dtype == other.records.dtype
            and np.array_equal(self.records, other.records)
        )


def sweep_generate(grid: SweepGrid) -> Dataset:
    """Run one cantilever SIMP optimization per grid point (volfrac-major, then
    penal, then rmin).

    Non-converged runs are kept (flagged in meta and logged), so the sample
    count always equals the grid size.
    """
    points = list(product(grid.volfracs, grid.penals, grid.rmins))
    images, compliance, converged = [], [], []
    for v, p, r in points:
        result = run_simp(grid.mesh, SimpParams(volfrac=v, penal=p, rmin=r))
        if not result.converged:
            log.warning(
                "SIMP run volfrac=%s penal=%s rmin=%s did not converge in %d iterations",
                v, p, r, result.iterations,
            )
        images.append(result.density.values)   # oc_update keeps them in [X_MIN, 1]
        compliance.append(result.compliance_history[-1])
        converged.append(result.converged)
    volfrac, penal, rmin = zip(*points)
    return Dataset(images=np.stack(images), conditions=volfrac, volfrac=volfrac, penal=penal,
                   rmin=rmin, compliance=compliance, converged=converged)


def check_image(image) -> np.ndarray:
    """`image` as a float64 array; DimensionError unless it is 2-D and nonempty,
    ParameterError unless every pixel is finite."""
    image = np.asarray(image, dtype=np.float64)
    if image.ndim != 2 or image.size == 0:
        raise DimensionError(f"expected a nonempty 2D image, got shape {image.shape}")
    if not np.isfinite(image).all():
        raise ParameterError("image pixels must be finite")
    return image


def augment(image: np.ndarray, seed: int) -> np.ndarray:
    """A noisy copy of an (h, w) image: NOISE_FRACTION of its pixels (at least
    one), chosen uniformly, move by U(-NOISE_AMPLITUDE, +NOISE_AMPLITUDE) and
    are clipped to [0, 1]."""
    check_int("seed", seed, 0)
    rng = np.random.default_rng(seed)
    image = check_image(np.array(image, dtype=np.float64))   # a copy: noise is added in place
    h, w = image.shape
    count = min(max(1, int(round(NOISE_FRACTION * h * w))), image.size)
    flat_idx = rng.choice(image.size, size=count, replace=False)
    noise = rng.uniform(-NOISE_AMPLITUDE, NOISE_AMPLITUDE, size=count)
    np.add.at(image.ravel(), flat_idx, noise)
    np.clip(image, 0.0, 1.0, out=image)
    return image


def augment_dataset(ds: Dataset, seed: int = 0) -> Dataset:
    """Double the dataset: each sample followed (at the end) by its `augment`
    copy, sample i drawn with seed `seed + i`."""
    check_int("seed", seed, 0)
    noisy = ds.records.copy()
    for i, image in enumerate(ds.images):
        noisy["images"][i] = augment(image, seed=seed + i)
    return Dataset.from_records(np.concatenate([ds.records, noisy]), ds.cardinality)


def gaussian_kernel() -> np.ndarray:
    """The GAUSS_KERNEL_SIZE-square Gaussian of std GAUSS_SIGMA, truncated and
    renormalized to sum 1."""
    r = GAUSS_KERNEL_SIZE // 2
    i, j = np.meshgrid(np.arange(-r, r + 1), np.arange(-r, r + 1), indexing="ij")
    k = np.exp(-(i**2 + j**2) / (2.0 * GAUSS_SIGMA**2))
    return k / k.sum()


def postprocess(image: np.ndarray) -> np.ndarray:
    """Threshold at 0.5 (>= 0.5 becomes 1), then 5x5 Gaussian blur, with the
    border padded by numpy's 'symmetric' mode (scipy's 'reflect': the edge
    pixel is repeated)."""
    image = check_image(image)
    if image.shape[0] < GAUSS_KERNEL_SIZE or image.shape[1] < GAUSS_KERNEL_SIZE:
        raise DimensionError(
            f"image {image.shape} smaller than the {GAUSS_KERNEL_SIZE}x{GAUSS_KERNEL_SIZE} kernel"
        )
    h, w = image.shape
    padded = np.pad(threshold(image), GAUSS_KERNEL_SIZE // 2, mode="symmetric")
    blurred = np.zeros((h, w))
    # the kernel is symmetric, so correlation and convolution agree
    for (i, j), weight in np.ndenumerate(gaussian_kernel()):
        blurred += weight * padded[i:i + h, j:j + w]
    return np.clip(blurred, 0.0, 1.0, out=blurred)


def threshold(image: np.ndarray) -> np.ndarray:
    """Stage 1 of postprocess alone."""
    return np.where(np.asarray(image, dtype=np.float64) >= 0.5, 1.0, 0.0)


# ---------------------------------------------------------------------------
# TOPD binary format

_HEADER = struct.Struct("<4sIIIIBI")


def _record_dtype(height: int, width: int) -> np.dtype:
    """One packed TOPD record: five <f4 meta fields, the u1 converged flag, <f4 pixels."""
    return np.dtype([("conditions", "<f4"), ("volfrac", "<f4"), ("penal", "<f4"),
                     ("rmin", "<f4"), ("compliance", "<f4"), ("converged", "u1"),
                     ("images", "<f4", (height, width))])


@contextmanager
def atomic_open(path):
    """A binary file written to `<name>.tmp` beside `path`, synced, then renamed
    over `path`, so a crash never leaves a partial file under that name. When
    the body raises, the temporary file is removed and `path` is untouched."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:   # the write failed: `path` keeps its old bytes, and no .tmp stays
        tmp.unlink(missing_ok=True)
        raise


def write_dataset(ds: Dataset, path) -> None:
    if ds.cardinality > 2**32 - 1:   # the largest value of the header's u32 field
        raise ParameterError(f"cardinality {ds.cardinality} does not fit TOPD's u32 field")
    with atomic_open(path) as fh:
        fh.write(_HEADER.pack(
            TOPD_MAGIC, TOPD_VERSION, ds.width, ds.height, len(ds),
            1 if ds.cardinality else 0, ds.cardinality,
        ))
        fh.write(np.ascontiguousarray(ds.records).data)   # a strided view is copied


def read_dataset(path) -> Dataset:
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < _HEADER.size:
        raise FormatError("truncated header", offset=len(blob))
    magic, version, width, height, count, kind_byte, cardinality = _HEADER.unpack_from(blob, 0)
    if magic != TOPD_MAGIC:
        raise FormatError(f"bad magic {magic!r}", offset=0)
    if version != TOPD_VERSION:
        raise FormatError(f"unsupported version {version}", offset=4)
    if kind_byte != (1 if cardinality else 0):   # 0: continuous, 1: class
        raise FormatError(f"kind byte {kind_byte} contradicts cardinality {cardinality}", offset=20)
    try:
        record = _record_dtype(height, width)
    except ValueError:  # numpy caps a record at 2**31 - 1 bytes
        raise FormatError(f"{width}x{height} images exceed the largest record", offset=8) from None
    expected = _HEADER.size + count * record.itemsize
    if len(blob) != expected:
        raise FormatError(
            f"file length {len(blob)} does not match declared {count} records",
            offset=min(len(blob), expected),
        )
    records = np.frombuffer(blob, dtype=record, count=count, offset=_HEADER.size)
    try:
        return Dataset.from_records(records, cardinality)
    except ParameterError as exc:
        raise FormatError(f"invalid record data: {exc}", offset=_HEADER.size) from None


# ---------------------------------------------------------------------------
# synthetic class dataset (band images with known pixel means)

def class_target_fraction(index: int, class_count: int) -> float:
    """Ground-truth fill fraction of class `index`."""
    return (index + 1) / (class_count + 1)


def synth_classes(class_count: int, per_class: int, size: int, seed: int) -> Dataset:
    """Horizontal-band images: class k covers fraction (k+1)/(class_count+1).

    The band position is jittered per sample and pixels carry light noise
    (band ~ U(0.96, 1), background ~ U(0, 0.04)), keeping every sample's
    pixel mean within 0.02 of its class target.
    """
    check_int("class_count", class_count, 2)
    if class_count > 10:
        raise ParameterError(f"class_count must be in 2..10, got {class_count}")
    check_int("per_class", per_class, 1)
    check_int("size", size, 1)
    check_int("seed", seed, 0)
    rng = np.random.default_rng(seed)
    images = np.empty((class_count * per_class, size, size), dtype=np.float32)
    labels = np.empty(class_count * per_class, dtype=np.float32)
    targets = np.empty(class_count * per_class, dtype=np.float32)
    i = 0
    for k in range(class_count):
        t = class_target_fraction(k, class_count)
        band = t * size
        full = int(band)
        frac = band - full
        max_start = size - full - (1 if frac > 0 else 0)
        for _ in range(per_class):
            start = int(rng.integers(0, max_start + 1)) if max_start > 0 else 0
            occupancy = np.zeros(size)
            occupancy[start:start + full] = 1.0
            if frac > 0:
                occupancy[start + full] = frac
            hi = rng.uniform(0.96, 1.0, size=(size, size))
            lo = rng.uniform(0.0, 0.04, size=(size, size))
            o = occupancy[:, None]
            images[i] = o * hi + (1.0 - o) * lo
            labels[i] = k
            targets[i] = t
            i += 1
    return Dataset(images=images, conditions=labels, cardinality=class_count, volfrac=targets)

