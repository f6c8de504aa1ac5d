"""Alternating adversarial training: one D update then one G update per step.

An "iteration" is one pass over the dataset (ceil(n / batch) steps); batch
order is a fresh seeded shuffle per iteration, derived from (seed, iteration)
so that a resumed run replays the identical order. All other randomness
(noise, mismatch draws) comes from one generator whose state rides along in
the checkpoint, making interrupt/resume bit-identical.
`OBJECTIVES` maps each objective to its draw of the (images, conditions) pair
that D scores as mismatched, or to None (cgan). D minimizes `discriminator_loss`

    -E[log D(x, y)] - E[log(1 - D(x, y2))] - E[log(1 - D(G(z, y), y))]

whose middle term, the matching-aware term of GAN-CLS (Reed et al. 2016),
scores that pair and is there exactly when the objective draws one. G
minimizes `generator_loss`, the non-saturating -E[log D(G(z, y), y)] of
Goodfellow et al. 2014. Every log is `autodiff.log_clamped`, floored at
`autodiff.LOG_FLOOR`. crcgan-a's draw pairs the real images with wrong
conditions y2, uniform over the domain of `data.check_conditions`: a class
label in [0, cardinality), or a continuous value in [0, 1]. It redraws until
y2 is `data.mismatched` with y, which always ends: every y has passed
`check_conditions`, so at least half of the labels (given the 2 that
`init_state` requires) or 9/10 of [0, 1] are wrong conditions for it.
crcgan-b's draw pairs y with a partner's image in the batch.

Checkpoint binary (little-endian): magic "CRCG", u32 version=4, u32 header
length, that many bytes of UTF-8 JSON header, the f64 tensor data back to
back, and a u32 CRC32 of every byte before it. The header holds one
description of the run: "config", the TrainConfig fields (the objective by
name), and "data", the shape of the training data {height, width, kind,
cardinality}, whose kind is written from the cardinality and must agree with
it; both networks are built from these two. It also holds the step, the Adam
step counts, the rng state, the trailing diversity window, and the tensor
table [[name, shape], ...] that orders the tensor data. A checkpoint
is written to a temporary file in its directory and renamed into place, so a
crash never leaves a partial file under its name. Neither a save nor a load
holds the whole file: a save writes each tensor from its own buffer, and a
load streams the CRC over the file in 1 MiB chunks, then reads each tensor
straight into the array that keeps it (a generator's weights, or the arrays
of a fresh TrainState) and skips the tensors that no array asks for.

Metrics are one JSON object per line with keys step, iter, d_loss, g_loss,
diversity, mean_score_real, mean_score_fake, mean_score_mismatch (null when
unused), collapse_warning, wall_ms; a resumed run first drops the records past
its checkpoint. `collapse_warning` is true when the step's diversity falls
below COLLAPSE_FACTOR times the median of the COLLAPSE_WINDOW steps before it.

A step's discriminator update returns only floats, so its graphs (three D
passes for crcgan-a/b) and its fake batch are released before the generator
update builds its own: the step's peak holds one update's graphs, not both.
"""
from __future__ import annotations

import json
import logging
import math
import operator
import os
import struct
import time
import zlib
from collections import deque
from collections.abc import Callable
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from .autodiff import AdamState, Tensor, adam_step, frozen, log_clamped, mean
from .data import Dataset, atomic_open, check_conditions, mismatched
from .exceptions import DimensionError, FormatError, ParameterError, TrainingAbort
from .fem import check_float, check_int
from .nets import Discriminator, Generator, generator_shapes

log = logging.getLogger(__name__)

CKPT_MAGIC = b"CRCG"
CKPT_VERSION = 4
_CKPT_PREFIX = struct.Struct("<4sII")   # magic, version, header length
_CKPT_CRC = struct.Struct("<I")
_CKPT_CHUNK = 1 << 20                   # bytes per read of a load's CRC pass
# TrainConfig fields a resumed run may change: they set the budget, not the model
_BUDGET_FIELDS = ("steps", "checkpoint_every")

COLLAPSE_WINDOW = 100    # trailing steps for the diversity median
COLLAPSE_FACTOR = 0.1    # warn when diversity < factor * trailing median


@dataclass(frozen=True)
class TrainConfig:
    objective: str
    steps: int                            # total steps (including resumed ones)
    batch_size: int = 100
    seed: int = 0
    z_dim: int = 64
    gen_channels: tuple[int, int] = (128, 64)
    disc_channels: tuple[int, int] = (32, 64)
    feature_dim: int = 64
    minibatch_discrimination: bool = True
    minibatch_kernels: int = 32
    minibatch_dim: int = 8
    lr: float = 2e-4
    beta1: float = 0.5
    beta2: float = 0.999
    eps: float = 1e-8
    checkpoint_every: int = 0             # 0: final checkpoint only

    def __post_init__(self):
        if not isinstance(self.objective, str) or self.objective not in OBJECTIVES:
            raise ParameterError(f"unknown objective {self.objective!r} "
                                 f"(choose from {', '.join(OBJECTIVES)})")
        # batch_size >= 2: each step measures its fake batch's diversity
        for name, minimum in (("steps", 0), ("batch_size", 2), ("seed", 0), ("z_dim", 1),
                              ("feature_dim", 1), ("checkpoint_every", 0)):
            check_int(name, getattr(self, name), minimum)
        for name in ("gen_channels", "disc_channels"):
            pair = getattr(self, name)
            if not isinstance(pair, tuple) or len(pair) != 2:
                raise ParameterError(f"{name} must be a pair of ints, got {pair!r}")
            for c in pair:
                check_int(name, c, 1)
        if not isinstance(self.minibatch_discrimination, bool):
            raise ParameterError("minibatch_discrimination must be a bool")
        if self.minibatch_discrimination:   # the dims are unused when it is off
            check_int("minibatch_kernels", self.minibatch_kernels, 1)
            check_int("minibatch_dim", self.minibatch_dim, 1)
        for name in ("lr", "eps"):
            check_float(name, getattr(self, name), 0.0, math.inf, low_open=True)
        for name in ("beta1", "beta2"):
            check_float(name, getattr(self, name), 0.0, 1.0, high_open=True)

    def steps_per_iteration(self, dataset_size: int) -> int:
        """ceil(n / batch), a Python int: the steps of one pass over a dataset of n samples."""
        return max(1, -(-dataset_size // operator.index(self.batch_size)))


@dataclass
class TrainState:
    gen: Generator
    disc: Discriminator
    adam_g: AdamState
    adam_d: AdamState
    rng: np.random.Generator
    step: int = 0
    # the trailing collapse window: all the monitor reads and all a checkpoint stores
    diversity_history: deque = field(default_factory=lambda: deque(maxlen=COLLAPSE_WINDOW))

    # the run's config and the shape of its data (height, width, cardinality)
    config = property(lambda self: self.gen.config)
    data = property(lambda self: self.gen.data)


def _data_shape(dataset: Dataset) -> dict:
    """The shape of the training data that a checkpoint stores and the nets are built from."""
    return {"height": dataset.height, "width": dataset.width, "cardinality": dataset.cardinality}


def init_state(config: TrainConfig, dataset: Dataset) -> TrainState:
    """A fresh run; ParameterError on empty data, on data that leaves a mismatch
    objective no wrong condition, or on data the networks cannot be built for."""
    if len(dataset) == 0:
        raise ParameterError("cannot train on an empty dataset")
    if OBJECTIVES[config.objective] and dataset.cardinality == 1:
        raise ParameterError("mismatch objectives need at least 2 classes")
    data = _data_shape(dataset)
    seeds = np.random.SeedSequence(config.seed).spawn(3)
    gen = Generator(config, data, seed=seeds[0])
    disc = Discriminator(config, data, seed=seeds[1])
    return TrainState(
        gen=gen, disc=disc,
        adam_g=AdamState.for_params(list(gen.params().values())),
        adam_d=AdamState.for_params(list(disc.params().values())),
        rng=np.random.default_rng(seeds[2]),
    )


def epoch_order(seed: int, iteration: int, dataset_size: int) -> np.ndarray:
    """Shuffled sample order for one iteration, a pure function of its inputs."""
    return np.random.default_rng([seed, 7919, iteration]).permutation(dataset_size)


def batch_indices(config: TrainConfig, spi: int, step: int, dataset_size: int) -> np.ndarray:
    """Dataset indices for 0-based global step; a short tail, or a dataset smaller
    than one batch, wraps around the epoch's order."""
    iteration, pos = divmod(step, spi)
    order = epoch_order(config.seed, iteration, dataset_size)
    b = config.batch_size
    return order.take(range(pos * b, (pos + 1) * b), mode="wrap")


def diversity_metric(images: np.ndarray) -> float:
    """Mean pairwise L1 distance between images, normalized by pixel count."""
    images = np.asarray(images, dtype=np.float64)
    n = images.shape[0]
    if n < 2:
        raise DimensionError("diversity metric needs at least 2 images")
    flat = images.reshape(n, -1)
    pixels = flat.shape[1]
    # per pixel column: sum_{i<j} |x_i - x_j| = sum_k (2k - n + 1) x_(k)
    coeff = 2.0 * np.arange(n) - (n - 1)
    total = float((np.sort(flat, axis=0) * coeff[:, None]).sum())
    return total / (n * (n - 1) / 2 * pixels)


def _mismatch_conditions(x_real: np.ndarray, conds: np.ndarray, cardinality: int,
                         rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """crcgan-a's mismatched pair: the real images with a wrong condition y2 for
    each of `conds`, drawn with `rng` from the domain."""
    out = np.empty(conds.size)
    for i, c in enumerate(conds):
        while True:
            y2 = int(rng.integers(0, cardinality)) if cardinality else rng.random()
            if mismatched(float(c), y2, cardinality):
                break
        out[i] = y2
    return x_real, out


def _mismatch_partners(x_real: np.ndarray, conds: np.ndarray, cardinality: int,
                       rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """crcgan-b's mismatched pair: for each sample i, the real image of a partner j
    drawn within the batch among those whose condition is `mismatched` with i's,
    with i's condition."""
    partners = np.empty(conds.size, dtype=np.int64)
    for i, c in enumerate(conds):
        candidates = np.flatnonzero(mismatched(conds, c, cardinality))
        if candidates.size == 0:
            raise ParameterError(
                "crcgan-b needs each batch to contain differing conditions")
        partners[i] = candidates[rng.integers(0, candidates.size)]
    return x_real[partners], conds


# objective -> its draw of the mismatched pair, or None. Each entry looks its draw up
# when called, so a wrapper set on the module attribute (bench/layers.py) sees it.
OBJECTIVES = {
    "cgan": None,
    "crcgan-a": lambda *args: _mismatch_conditions(*args),
    "crcgan-b": lambda *args: _mismatch_partners(*args),
}


def _scores(scores, name: str, like: Tensor | None = None) -> Tensor:
    """`scores` as a Tensor: a nonempty batch in [0, 1], as large as `like`."""
    t = scores if isinstance(scores, Tensor) else Tensor(scores)
    if t.data.size == 0:
        raise DimensionError(f"{name}: empty score batch")
    if not (t.data.min() >= 0.0 and t.data.max() <= 1.0):   # NaN fails both
        raise ParameterError(f"{name}: scores must lie in [0, 1]")
    if like is not None and t.data.shape != like.data.shape:
        raise DimensionError("score groups must share the batch size")
    return t


def discriminator_loss(real, fake, mismatched=None) -> Tensor:
    """D's loss from its scores of real, generated and, when given, mismatched inputs."""
    real = _scores(real, "real")
    fake = _scores(fake, "fake", like=real)
    d_loss = -mean(log_clamped(real))
    if mismatched is not None:
        mismatched = _scores(mismatched, "mismatched", like=real)
        d_loss = d_loss - mean(log_clamped(1.0 - mismatched))
    return d_loss - mean(log_clamped(1.0 - fake))


def generator_loss(fake) -> Tensor:
    """G's non-saturating loss from D's scores of its images; the same for every objective."""
    return -mean(log_clamped(_scores(fake, "fake")))


def _abort_unless_finite(step: int, *scores) -> None:
    """TrainingAbort if D has diverged, which shows as a NaN score: sigmoid scores
    otherwise lie in [0, 1], where the losses' log floor keeps every loss finite."""
    if not all(s is None or np.isfinite(s.data).all() for s in scores):
        raise TrainingAbort(f"non-finite discriminator scores at step {step}")


def _descend(loss, params: list, adam: AdamState, cfg: TrainConfig) -> float:
    """Clear the grads of `params`, backpropagate `loss`, and take one Adam step on
    `params` with `cfg`'s hyperparameters; the loss as a float."""
    for p in params:
        p.zero_grad()
    loss.backward()
    adam_step(params, adam, cfg.lr, cfg.beta1, cfg.beta2, cfg.eps)
    return loss.item()


def _discriminator_update(state: TrainState, x_real: np.ndarray,
                          conds: np.ndarray) -> tuple[float, float, float, float | None]:
    """One D update; (d_loss, mean real, fake and mismatch scores) as floats.

    Only floats come back, so the D graphs and the fake batch die on return.
    """
    cfg = state.config
    z = state.rng.standard_normal((cfg.batch_size, cfg.z_dim))
    with frozen(state.gen.params().values()):
        fake = state.gen.forward(z, conds)
    d_real = state.disc.forward(x_real, conds)
    draw, d_mismatch = OBJECTIVES[cfg.objective], None
    if draw is not None:
        d_mismatch = state.disc.forward(*draw(x_real, conds, state.data["cardinality"],
                                              state.rng))
    d_fake = state.disc.forward(fake, conds)
    _abort_unless_finite(state.step + 1, d_real, d_fake, d_mismatch)
    d_loss = _descend(discriminator_loss(d_real, d_fake, d_mismatch),
                      list(state.disc.params().values()), state.adam_d, cfg)
    return (d_loss, float(d_real.data.mean()), float(d_fake.data.mean()),
            None if d_mismatch is None else float(d_mismatch.data.mean()))


def training_step(state: TrainState, images: np.ndarray,
                  conditions: np.ndarray) -> dict:
    """One discriminator update followed by one generator update (fresh noise)."""
    cfg = state.config
    if images.ndim != 3:
        raise DimensionError(f"images must be (batch, H, W), got shape {images.shape}")
    if images.shape[0] != cfg.batch_size:
        raise DimensionError(
            f"batch size {images.shape[0]} != configured {cfg.batch_size}")
    if np.shape(conditions) != (cfg.batch_size,):   # before any draw from state.rng
        raise DimensionError(f"conditions must be ({cfg.batch_size},), got {np.shape(conditions)}")
    t0 = time.monotonic()
    x_real = np.asarray(images, dtype=np.float64)[:, None, :, :]
    conds = np.asarray(conditions, dtype=np.float64)
    d_loss, score_real, score_fake, score_mismatch = _discriminator_update(
        state, x_real, conds)

    # generator update on fresh noise, against the just-updated discriminator
    z2 = state.rng.standard_normal((cfg.batch_size, cfg.z_dim))
    fake2 = state.gen.forward(z2, conds)
    with frozen(state.disc.params().values()):
        d_fake2 = state.disc.forward(fake2, conds)
    _abort_unless_finite(state.step + 1, d_fake2)
    g_loss = _descend(generator_loss(d_fake2), list(state.gen.params().values()),
                      state.adam_g, cfg)

    diversity = diversity_metric(fake2.data[:, 0, :, :])
    collapse_warning = False
    history = state.diversity_history
    if len(history) == COLLAPSE_WINDOW:
        trailing = float(np.median(history))
        if diversity < COLLAPSE_FACTOR * trailing:
            collapse_warning = True
            log.warning("possible mode collapse at step %d: diversity %.3e "
                        "< %.1f%% of trailing median %.3e",
                        state.step + 1, diversity, 100 * COLLAPSE_FACTOR, trailing)
    history.append(diversity)

    state.step += 1
    return {
        "step": state.step,
        "d_loss": d_loss,
        "g_loss": g_loss,
        "diversity": diversity,
        "mean_score_real": score_real,
        "mean_score_fake": score_fake,
        "mean_score_mismatch": score_mismatch,
        "collapse_warning": collapse_warning,
        "wall_ms": (time.monotonic() - t0) * 1000.0,
    }


# ---------------------------------------------------------------------------
# checkpoint serialization

def save_checkpoint(path, header: dict, tensors: dict[str, np.ndarray]) -> None:
    """Write `header`, the tensor table and the tensors as one CRC-checked file.

    Each tensor's own little-endian f64 buffer goes to the CRC and the file in
    turn, so the data is never copied whole. The bytes go to a temporary file
    in the same directory, which is synced and then renamed over `path`.
    """
    table = [[name, list(np.shape(a))] for name, a in tensors.items()]
    # a numpy setting is stored as the JSON int or float it equals
    head = json.dumps({**header, "tensors": table}, default=np.generic.item).encode("utf-8")
    prefix = _CKPT_PREFIX.pack(CKPT_MAGIC, CKPT_VERSION, len(head))
    with atomic_open(path) as fh:
        crc = zlib.crc32(head, zlib.crc32(prefix))
        fh.write(prefix + head)
        for a in tensors.values():
            a = np.asarray(a, dtype="<f8", order="C")   # no copy of a C-ordered f64 array
            crc = zlib.crc32(a, crc)
            fh.write(a)
        fh.write(_CKPT_CRC.pack(crc))


def _read_exact(fh, buf) -> None:
    """Fill the writable buffer `buf` from `fh`; a file that ends first raises FormatError."""
    view = memoryview(buf).cast("B")
    if fh.readinto(view) != view.nbytes:
        raise FormatError("short read: the checkpoint ends early", offset=fh.tell())


def _check_shapes(shapes: dict[str, tuple], table: dict[str, tuple]) -> None:
    """Raise FormatError unless the tensor table has a tensor of each name and shape."""
    for name, shape in shapes.items():
        if table.get(name) != shape:
            raise FormatError(f"checkpoint tensor {name} is missing or misshapen")


def load_checkpoint(path, targets: Callable[[dict, dict[str, tuple]], tuple] | None = None
                    ) -> tuple[dict, object]:
    """(header, result) of a checkpoint; a malformed file raises FormatError.

    The file is never held whole. A first pass streams the CRC through one
    reused buffer of `_CKPT_CHUNK` bytes; only then are the prefix, the header
    and the tensor table read and checked. With no `targets`, every tensor is
    read into a new array, and the result is those arrays by name. Otherwise
    `targets(header, shapes)` is called once the table has passed its checks,
    with `shapes` the table's {name: shape}. It returns (result, arrays), where
    `arrays` names existing C-contiguous float64 arrays, such as the weights of
    the object `result`; those tensors are read straight into them and the
    others are skipped. A target that the table lacks, or holds in another
    shape, raises FormatError.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if size < _CKPT_PREFIX.size + _CKPT_CRC.size:
            raise FormatError("truncated checkpoint header", offset=size)
        end = size - _CKPT_CRC.size
        crc, chunk = 0, memoryview(bytearray(min(_CKPT_CHUNK, end)))
        for start in range(0, end, len(chunk)):
            part = chunk[:min(len(chunk), end - start)]
            _read_exact(fh, part)
            crc = zlib.crc32(part, crc)
        del part, chunk   # the buffer is freed before any target is built
        trailer, prefix = bytearray(_CKPT_CRC.size), bytearray(_CKPT_PREFIX.size)
        _read_exact(fh, trailer)
        fh.seek(0)
        _read_exact(fh, prefix)
        magic, version, head_len = _CKPT_PREFIX.unpack(prefix)
        if magic != CKPT_MAGIC:
            raise FormatError(f"bad magic {magic!r}", offset=0)
        if version != CKPT_VERSION:
            raise FormatError(f"unsupported checkpoint version {version}", offset=4)
        if crc != _CKPT_CRC.unpack(trailer)[0]:
            raise FormatError("CRC32 mismatch: checkpoint is corrupt or truncated", offset=end)
        offset = _CKPT_PREFIX.size + head_len
        if offset > end:
            raise FormatError("header runs past the end of the file", offset=_CKPT_PREFIX.size)
        head = bytearray(head_len)
        _read_exact(fh, head)
        try:
            header = json.loads(head.decode("utf-8"))
        except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON
            raise FormatError(f"unreadable header: {exc}", offset=_CKPT_PREFIX.size) from None
        table = header.pop("tensors", None) if isinstance(header, dict) else None
        if not isinstance(table, list):
            raise FormatError("header has no tensor table", offset=_CKPT_PREFIX.size)
        shapes: dict[str, tuple] = {}
        offsets: dict[str, int] = {}    # a name listed twice keeps its last tensor
        for entry in table:
            name, shape = entry if isinstance(entry, list) and len(entry) == 2 else (None, None)
            if not (isinstance(name, str) and isinstance(shape, list)
                    and all(type(d) is int and d >= 0 for d in shape)):
                raise FormatError("bad tensor table entry", offset=_CKPT_PREFIX.size)
            count = math.prod(shape)
            if offset + 8 * count > end:
                raise FormatError(f"tensor {name} runs past the end of the data", offset=offset)
            try:
                np.broadcast_to(0.0, shape)   # numpy's limits on a shape, with no allocation
            except ValueError as exc:  # more dimensions than numpy supports
                raise FormatError(f"tensor {name}: {exc}", offset=_CKPT_PREFIX.size) from None
            shapes[name], offsets[name] = tuple(shape), offset
            offset += 8 * count
        if offset != end:
            raise FormatError("bytes left after the last tensor", offset=offset)
        if targets is None:
            result = tensors = {name: np.empty(shape, dtype="<f8")
                                for name, shape in shapes.items()}
        else:
            result, tensors = targets(header, shapes)
            _check_shapes({name: array.shape for name, array in tensors.items()}, shapes)
        for name, array in tensors.items():
            fh.seek(offsets[name])
            _read_exact(fh, array)
    return header, result


def _state_tensors(state: TrainState) -> dict[str, np.ndarray]:
    """The arrays a checkpoint stores, by name: both networks and their Adam moments."""
    tensors: dict[str, np.ndarray] = {}
    for name, p in state.gen.params().items():
        tensors[f"g.{name}"] = p.data
    for name, p in state.disc.params().items():
        tensors[f"d.{name}"] = p.data
    for (prefix, net, adam) in (("g", state.gen, state.adam_g),
                                ("d", state.disc, state.adam_d)):
        for (name, _), m, v in zip(net.params().items(), adam.m, adam.v):
            tensors[f"adam.{prefix}.m.{name}"] = m
            tensors[f"adam.{prefix}.v.{name}"] = v
    return tensors


def write_state(state: TrainState, path) -> None:
    save_checkpoint(path, {
        "step": state.step,
        "config": asdict(state.config),
        "data": _header_data(state.data),
        "adam_steps": {"g": state.adam_g.step, "d": state.adam_d.step},
        "rng": state.rng.bit_generator.state,
        "diversity_window": list(state.diversity_history),
    }, _state_tensors(state))


def _header_data(data: dict) -> dict:
    """A data shape as a header stores it, with the kind written from the cardinality."""
    return {"height": data["height"], "width": data["width"],
            "kind": "class" if data["cardinality"] else "continuous",
            "cardinality": data["cardinality"]}


def _stored_run(header: dict) -> tuple[TrainConfig, dict, dict[str, tuple]]:
    """The config and data shape a checkpoint header stores, and its generator's shapes.

    Both networks must be buildable from them, and the stored data must be what
    `_header_data` writes, or the header raises FormatError.
    """
    try:
        config = TrainConfig(**{k: tuple(v) if isinstance(v, list) else v
                                for k, v in header["config"].items()})
        stored = header["data"]
        data = {name: stored[name] for name in ("height", "width", "cardinality")}
        gen_shapes = generator_shapes(config, data)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"checkpoint header does not describe a run: {exc}") from None
    expected = _header_data(data)
    if stored != expected:   # a kind that disagrees with the cardinality, or none
        raise FormatError(f"checkpoint data {stored} should read {expected}")
    return config, data, gen_shapes


def load_state(path, dataset: Dataset, config: TrainConfig) -> TrainState:
    """Restore a TrainState; `config` may differ from the stored one in its budget only.

    The stored run is checked against `config` and `dataset` before the state
    is built, and every tensor is read straight into the arrays that
    `init_state` made.
    """
    shape = _data_shape(dataset)

    def state_arrays(header: dict, shapes: dict) -> tuple[TrainState, dict]:
        stored, data, _ = _stored_run(header)
        stored = replace(stored, **{f: getattr(config, f) for f in _BUDGET_FIELDS})
        if stored != config:
            raise ParameterError(
                "config does not match checkpoint structure "
                f"(stored {stored}, requested {config})")
        if shape != data:
            raise ParameterError(f"dataset shape {shape} does not match the checkpoint's {data}")
        state = init_state(config, dataset)
        return state, _state_tensors(state)

    header, state = load_checkpoint(path, state_arrays)
    try:
        counts = (header["step"], header["adam_steps"]["g"], header["adam_steps"]["d"])
        if not all(type(n) is int and n >= 0 for n in counts):   # a bool is no count
            raise FormatError(f"checkpoint step counts {counts} must be ints >= 0")
        state.step, state.adam_g.step, state.adam_d.step = counts
        state.rng.bit_generator.state = header["rng"]
        state.diversity_history.extend(float(d) for d in header["diversity_window"])
    except (KeyError, OverflowError, TypeError, ValueError) as exc:
        raise FormatError(f"checkpoint header lacks training state: {exc}") from None
    return state


def _truncate_metrics(path: Path, step: int) -> None:
    """Drop the records after `step`, left by a run that went on past its checkpoint."""
    if not path.exists():
        return
    with open(path, "rb+") as fh:
        keep = 0
        for line in fh:
            try:
                if json.loads(line)["step"] > step:
                    break
            except ValueError:  # a record cut short by the crash
                break
            keep += len(line)
        fh.truncate(keep)


# ---------------------------------------------------------------------------
# training driver

@dataclass
class TrainOutcome:
    checkpoint_path: Path
    metrics_path: Path
    state: TrainState


def train(config: TrainConfig, dataset: Dataset, out_dir,
          resume_from=None) -> TrainOutcome:
    """Run the training budget; write metrics JSONL and checkpoints under out_dir."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    metrics_path = out_dir / "metrics.jsonl"
    final_path = out_dir / "final.ckpt"

    if resume_from is not None:
        state = load_state(resume_from, dataset, config)
        _truncate_metrics(metrics_path, state.step)
        mode = "a"
    else:
        state = init_state(config, dataset)
        mode = "w"
    spi = config.steps_per_iteration(len(dataset))

    with open(metrics_path, mode, encoding="utf-8") as metrics_fh:
        while state.step < config.steps:
            idx = batch_indices(config, spi, state.step, len(dataset))
            try:
                record = training_step(
                    state, dataset.images[idx], dataset.conditions[idx])
            except TrainingAbort as exc:
                snapshot = out_dir / f"diverged_step{state.step}.ckpt"
                write_state(state, snapshot)
                raise TrainingAbort(str(exc), snapshot_path=snapshot) from exc
            record["iter"] = (record["step"] - 1) // spi
            metrics_fh.write(json.dumps(record) + "\n")
            if config.checkpoint_every and state.step % config.checkpoint_every == 0:
                metrics_fh.flush()  # the records up to a checkpoint outlive a crash
                write_state(state, out_dir / f"step{state.step:08d}.ckpt")
    write_state(state, final_path)
    return TrainOutcome(checkpoint_path=final_path, metrics_path=metrics_path,
                        state=state)


def read_metrics(path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


# ---------------------------------------------------------------------------
# sampling from a checkpoint

def generator_from_checkpoint(path) -> Generator:
    """The trained generator stored in a checkpoint; its `config` is the run's.

    The g.* tensors are read straight into the generator's weights; the other
    tensors are only CRC-checked.
    """
    def weights(header: dict, shapes: dict) -> tuple[Generator, dict]:
        config, data, gen_shapes = _stored_run(header)
        # before any weight is drawn: the header alone sets the generator's size
        _check_shapes({f"g.{name}": shape for name, shape in gen_shapes.items()}, shapes)
        gen = Generator(config, data, seed=0)
        return gen, {f"g.{name}": p.data for name, p in gen.params().items()}

    return load_checkpoint(path, weights)[1]


def sample(gen: Generator, condition, count: int, seed: int) -> np.ndarray:
    """Generate `count` images at a fixed condition; deterministic given seed.

    A condition that is not a finite number or fails `data.check_conditions`,
    a count that is not an int >= 0, or a seed that is not an int >= 0, raises
    ParameterError; each is checked even for count 0.
    """
    data = gen.data
    check_float("condition", condition, -math.inf, math.inf)
    condition = float(condition)
    check_conditions(np.array([condition]), data["cardinality"])
    check_int("count", count, 0)
    check_int("seed", seed, 0)
    if count == 0:
        return np.empty((0, data["height"], data["width"]))
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((count, gen.config.z_dim))
    conds = np.full(count, condition, dtype=np.float64)
    with frozen(gen.params().values()):
        return gen.forward(z, conds).data[:, 0, :, :]
