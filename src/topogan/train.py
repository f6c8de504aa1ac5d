"""Alternating adversarial training: one D update then one G update per step.

An "iteration" is one pass over the dataset (ceil(n / batch) steps); batch
order is a fresh seeded shuffle per iteration, derived from (seed, iteration)
so that a resumed run replays the identical order. All other randomness
(noise, mismatch draws) comes from one generator whose state rides along in
the checkpoint, making interrupt/resume bit-identical.

Checkpoint binary (little-endian): magic "CRCG", u32 version=2, u32 header
length, that many bytes of UTF-8 JSON header, the f64 tensor data back to
back, and a u32 CRC32 of every byte before it. The header holds the step,
the TrainConfig fields (the objective by name), both network specs (the
condition kind by name), the Adam step counts, the rng state, the trailing
diversity window, and the tensor table [[name, shape], ...] that orders the
tensor data. A checkpoint is written to a temporary file in its directory and
renamed into place, so a crash never leaves a partial file under its name.
Metrics are one JSON object per line with keys step, iter, d_loss, g_loss,
diversity, mean_score_real, mean_score_fake, mean_score_mismatch (null when
unused), wall_ms; a resumed run first drops the records past its checkpoint.
"""
from __future__ import annotations

import json
import logging
import math
import os
import struct
import time
import zlib
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from .autodiff import AdamState, adam_step, frozen
from .data import KIND_CLASS, KIND_CONTINUOUS, Dataset
from .exceptions import (
    ConsistencyError,
    ContractError,
    DomainError,
    FormatError,
    ParameterError,
    TrainingAbort,
)
from .nets import Discriminator, DiscriminatorSpec, Generator, GeneratorSpec
from .objectives import (
    ConditionSampler,
    ScoreBatch,
    losses,
    needs_mismatch,
    sample_mismatched_condition,
)

log = logging.getLogger(__name__)

CKPT_MAGIC = b"CRCG"
CKPT_VERSION = 2
_CKPT_PREFIX = struct.Struct("<4sII")   # magic, version, header length
_CKPT_CRC = struct.Struct("<I")
# TrainConfig fields a resumed run may change: they set the budget, not the model
_BUDGET_FIELDS = ("steps", "iterations", "steps_per_iteration", "checkpoint_every",
                  "metrics_every")

COLLAPSE_WINDOW = 100    # trailing steps for the diversity median
COLLAPSE_FACTOR = 0.1    # warn when diversity < factor * trailing median


@dataclass(frozen=True)
class TrainConfig:
    objective: str
    batch_size: int = 100
    steps: int | None = None              # total steps (including resumed ones)
    iterations: int | None = None         # alternative budget: dataset passes
    steps_per_iteration: int | None = None  # default ceil(dataset / batch)
    seed: int = 0
    z_dim: int = 64
    gen_channels: tuple[int, int] = (128, 64)
    disc_channels: tuple[int, int] = (32, 64)
    feature_dim: int = 64
    minibatch_discrimination: bool = True
    minibatch_kernels: int = 32
    minibatch_dim: int = 8
    non_saturating: bool = True
    lr: float = 2e-4
    beta1: float = 0.5
    beta2: float = 0.999
    eps: float = 1e-8
    mismatch_margin: float = 0.05
    checkpoint_every: int = 0             # 0: final checkpoint only
    metrics_every: int = 1

    def __post_init__(self):
        needs_mismatch(self.objective)
        if self.batch_size < 1:
            raise ParameterError("batch_size must be >= 1")
        if self.minibatch_discrimination and self.batch_size < 2:
            raise ParameterError("minibatch discrimination needs batch_size >= 2")
        if (self.steps is None) == (self.iterations is None):
            raise ParameterError("set exactly one of steps or iterations")
        budget = self.steps if self.steps is not None else self.iterations
        if budget < 0:
            raise ParameterError("budget must be >= 0")
        if self.lr <= 0:
            raise ParameterError("lr must be positive")

    def resolve_steps(self, dataset_size: int) -> tuple[int, int]:
        """(total steps, steps per iteration) for a concrete dataset."""
        spi = self.steps_per_iteration
        if spi is None:
            spi = max(1, -(-dataset_size // self.batch_size))
        total = self.steps if self.steps is not None else self.iterations * spi
        return total, spi


@dataclass
class TrainState:
    config: TrainConfig
    gen: Generator
    disc: Discriminator
    adam_g: AdamState
    adam_d: AdamState
    rng: np.random.Generator
    sampler: ConditionSampler
    step: int = 0
    diversity_history: list = None

    def __post_init__(self):
        if self.diversity_history is None:
            self.diversity_history = []


def _sampler_for(dataset: Dataset, config: TrainConfig) -> ConditionSampler:
    if dataset.kind == KIND_CLASS:
        return ConditionSampler(kind=KIND_CLASS, cardinality=dataset.cardinality,
                                seed=config.seed)
    lo = float(dataset.conditions.min())
    hi = float(dataset.conditions.max())
    if hi - lo < config.mismatch_margin:
        hi = lo + max(2 * config.mismatch_margin, 1e-3)
    return ConditionSampler(kind=KIND_CONTINUOUS, low=lo, high=min(hi, 1.0),
                            margin=config.mismatch_margin, seed=config.seed)


def init_state(config: TrainConfig, dataset: Dataset) -> TrainState:
    h, w = dataset.height, dataset.width
    gen_spec = GeneratorSpec(
        out_h=h, out_w=w, z_dim=config.z_dim, condition_kind=dataset.kind,
        condition_cardinality=dataset.cardinality, channels=config.gen_channels)
    disc_spec = DiscriminatorSpec(
        in_h=h, in_w=w, condition_kind=dataset.kind,
        condition_cardinality=dataset.cardinality, channels=config.disc_channels,
        feature_dim=config.feature_dim, minibatch=config.minibatch_discrimination,
        minibatch_kernels=config.minibatch_kernels, minibatch_dim=config.minibatch_dim)
    seeds = np.random.SeedSequence(config.seed).spawn(3)
    gen = Generator(gen_spec, seed=seeds[0])
    disc = Discriminator(disc_spec, seed=seeds[1])
    gp, dp = list(gen.params().values()), list(disc.params().values())
    return TrainState(
        config=config, gen=gen, disc=disc,
        adam_g=AdamState.for_params(gp, config.lr, config.beta1, config.beta2, config.eps),
        adam_d=AdamState.for_params(dp, config.lr, config.beta1, config.beta2, config.eps),
        rng=np.random.default_rng(seeds[2]),
        sampler=_sampler_for(dataset, config),
    )


def epoch_order(seed: int, iteration: int, dataset_size: int) -> np.ndarray:
    """Shuffled sample order for one iteration, a pure function of its inputs."""
    return np.random.default_rng([seed, 7919, iteration]).permutation(dataset_size)


def batch_indices(config: TrainConfig, spi: int, step: int, dataset_size: int) -> np.ndarray:
    """Dataset indices for 0-based global step; short tails wrap within the epoch."""
    iteration, pos = divmod(step, spi)
    order = epoch_order(config.seed, iteration, dataset_size)
    idx = order[pos * config.batch_size:(pos + 1) * config.batch_size]
    if idx.size < config.batch_size:
        idx = np.concatenate([idx, order[:config.batch_size - idx.size]])
    return idx


def diversity_metric(images: np.ndarray) -> float:
    """Mean pairwise L1 distance between images, normalized by pixel count."""
    images = np.asarray(images, dtype=np.float64)
    n = images.shape[0]
    if n < 2:
        raise ContractError("diversity metric needs at least 2 images")
    flat = images.reshape(n, -1)
    pixels = flat.shape[1]
    # per pixel column: sum_{i<j} |x_i - x_j| = sum_k (2k - n + 1) x_(k)
    coeff = 2.0 * np.arange(n) - (n - 1)
    total = float((np.sort(flat, axis=0) * coeff[:, None]).sum())
    return total / (n * (n - 1) / 2 * pixels)


def _mismatch_conditions(conds: np.ndarray, sampler: ConditionSampler,
                         rng: np.random.Generator) -> np.ndarray:
    return np.array([
        float(sample_mismatched_condition(float(c), sampler, rng=rng)) for c in conds
    ])


def _mismatch_partners(conds: np.ndarray, sampler: ConditionSampler,
                       rng: np.random.Generator) -> np.ndarray:
    """Index j per sample i with a differing condition, drawn within the batch."""
    out = np.empty(conds.size, dtype=np.int64)
    for i, c in enumerate(conds):
        if sampler.kind == KIND_CLASS:
            candidates = np.flatnonzero(conds.astype(int) != int(c))
        else:
            candidates = np.flatnonzero(np.abs(conds - c) >= sampler.margin)
        if candidates.size == 0:
            raise ContractError(
                "crcgan-b needs each batch to contain differing conditions")
        out[i] = candidates[rng.integers(0, candidates.size)]
    return out


def training_step(state: TrainState, images: np.ndarray,
                  conditions: np.ndarray) -> dict:
    """One discriminator update followed by one generator update (fresh noise)."""
    cfg = state.config
    if images.shape[0] != cfg.batch_size:
        raise ContractError(
            f"batch size {images.shape[0]} != configured {cfg.batch_size}")
    t0 = time.monotonic()
    b = cfg.batch_size
    x_real = np.asarray(images, dtype=np.float64)[:, None, :, :]
    conds = np.asarray(conditions, dtype=np.float64)

    gen_params = state.gen.params()
    disc_params = state.disc.params()

    # discriminator update
    z = state.rng.standard_normal((b, cfg.z_dim))
    with frozen(gen_params.values()):
        fake = state.gen.forward(z, conds)
    d_real = state.disc.forward(x_real, conds)
    d_mismatch = None
    if needs_mismatch(cfg.objective):
        if cfg.objective == "crcgan-a":
            y2 = _mismatch_conditions(conds, state.sampler, state.rng)
            d_mismatch = state.disc.forward(x_real, y2)
        else:  # crcgan-b: second real samples whose condition differs from y
            partners = _mismatch_partners(conds, state.sampler, state.rng)
            d_mismatch = state.disc.forward(x_real[partners], conds)
    d_fake = state.disc.forward(fake, conds)
    scores = ScoreBatch(d_real_matched=d_real, d_fake=d_fake,
                        d_real_mismatched=d_mismatch)
    d_loss, _ = losses(cfg.objective, scores, non_saturating=cfg.non_saturating)
    if not np.isfinite(d_loss.item()):
        raise TrainingAbort(f"non-finite discriminator loss at step {state.step + 1}")
    for p in disc_params.values():
        p.zero_grad()
    d_loss.backward()
    adam_step(list(disc_params.values()),
              [p.grad for p in disc_params.values()], state.adam_d)

    # generator update on fresh noise, against the just-updated discriminator
    z2 = state.rng.standard_normal((b, cfg.z_dim))
    fake2 = state.gen.forward(z2, conds)
    with frozen(disc_params.values()):
        d_fake2 = state.disc.forward(fake2, conds)
    g_scores = ScoreBatch(
        d_real_matched=d_real.detach(), d_fake=d_fake2,
        d_real_mismatched=None if d_mismatch is None else d_mismatch.detach())
    _, g_loss = losses(cfg.objective, g_scores, non_saturating=cfg.non_saturating)
    if not np.isfinite(g_loss.item()):
        raise TrainingAbort(f"non-finite generator loss at step {state.step + 1}")
    for p in gen_params.values():
        p.zero_grad()
    g_loss.backward()
    adam_step(list(gen_params.values()),
              [p.grad for p in gen_params.values()], state.adam_g)

    diversity = diversity_metric(fake2.data[:, 0, :, :])
    collapse_warning = False
    history = state.diversity_history
    if len(history) >= COLLAPSE_WINDOW:
        trailing = float(np.median(history[-COLLAPSE_WINDOW:]))
        if diversity < COLLAPSE_FACTOR * trailing:
            collapse_warning = True
            log.warning("possible mode collapse at step %d: diversity %.3e "
                        "< %.1f%% of trailing median %.3e",
                        state.step + 1, diversity, 100 * COLLAPSE_FACTOR, trailing)
    history.append(diversity)

    state.step += 1
    return {
        "step": state.step,
        "d_loss": d_loss.item(),
        "g_loss": g_loss.item(),
        "diversity": diversity,
        "mean_score_real": float(d_real.data.mean()),
        "mean_score_fake": float(d_fake.data.mean()),
        "mean_score_mismatch": None if d_mismatch is None
        else float(d_mismatch.data.mean()),
        "collapse_warning": collapse_warning,
        "wall_ms": (time.monotonic() - t0) * 1000.0,
    }


# ---------------------------------------------------------------------------
# checkpoint serialization

def save_checkpoint(path, header: dict, tensors: dict[str, np.ndarray]) -> None:
    """Write `header`, the tensor table and the tensors as one CRC-checked file.

    The bytes go to a temporary file in the same directory, which is synced
    and then renamed over `path`.
    """
    path = Path(path)
    arrays = {name: np.asarray(a, dtype="<f8") for name, a in tensors.items()}
    table = [[name, list(a.shape)] for name, a in arrays.items()]
    head = json.dumps({**header, "tensors": table}).encode("utf-8")
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as fh:
        crc = 0
        for chunk in (_CKPT_PREFIX.pack(CKPT_MAGIC, CKPT_VERSION, len(head)), head,
                      *(a.tobytes() for a in arrays.values())):
            crc = zlib.crc32(chunk, crc)
            fh.write(chunk)
        fh.write(_CKPT_CRC.pack(crc))
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


def load_checkpoint(path) -> tuple[dict, dict[str, np.ndarray]]:
    """(header, tensors) of a checkpoint; a malformed file raises FormatError.

    The tensors are read-only views of the file's bytes.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < _CKPT_PREFIX.size + _CKPT_CRC.size:
        raise FormatError("truncated checkpoint header", offset=len(blob))
    magic, version, head_len = _CKPT_PREFIX.unpack_from(blob)
    if magic != CKPT_MAGIC:
        raise FormatError(f"bad magic {magic!r}", offset=0)
    if version != CKPT_VERSION:
        raise FormatError(f"unsupported checkpoint version {version}", offset=4)
    end = len(blob) - _CKPT_CRC.size
    if zlib.crc32(memoryview(blob)[:end]) != _CKPT_CRC.unpack_from(blob, end)[0]:
        raise FormatError("CRC32 mismatch: checkpoint is corrupt or truncated", offset=end)
    offset = _CKPT_PREFIX.size + head_len
    if offset > end:
        raise FormatError("header runs past the end of the file", offset=_CKPT_PREFIX.size)
    try:
        header = json.loads(blob[_CKPT_PREFIX.size:offset].decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON
        raise FormatError(f"unreadable header: {exc}", offset=_CKPT_PREFIX.size) from None
    table = header.pop("tensors", None) if isinstance(header, dict) else None
    if not isinstance(table, list):
        raise FormatError("header has no tensor table", offset=_CKPT_PREFIX.size)
    tensors: dict[str, np.ndarray] = {}
    for entry in table:
        name, shape = entry if isinstance(entry, list) and len(entry) == 2 else (None, None)
        if not (isinstance(name, str) and isinstance(shape, list)
                and all(type(d) is int and d >= 0 for d in shape)):
            raise FormatError("bad tensor table entry", offset=_CKPT_PREFIX.size)
        count = math.prod(shape)
        if offset + 8 * count > end:
            raise FormatError(f"tensor {name} runs past the end of the data", offset=offset)
        try:
            tensors[name] = np.frombuffer(blob, dtype="<f8", count=count,
                                          offset=offset).reshape(shape)
        except ValueError as exc:  # more dimensions than numpy supports
            raise FormatError(f"tensor {name}: {exc}", offset=_CKPT_PREFIX.size) from None
        offset += 8 * count
    if offset != end:
        raise FormatError("bytes left after the last tensor", offset=offset)
    return header, tensors


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
        "generator": asdict(state.gen.spec),
        "discriminator": asdict(state.disc.spec),
        "adam_steps": {"g": state.adam_g.step, "d": state.adam_d.step},
        "rng": state.rng.bit_generator.state,
        # trailing window only: it is all the collapse monitor ever looks at
        "diversity_window": state.diversity_history[-COLLAPSE_WINDOW:],
    }, _state_tensors(state))


def _specs(header: dict) -> tuple[TrainConfig, GeneratorSpec, DiscriminatorSpec]:
    """The training config and network specs a checkpoint header stores."""
    def build(cls, key):
        return cls(**{k: tuple(v) if isinstance(v, list) else v
                      for k, v in header[key].items()})

    try:
        return (build(TrainConfig, "config"), build(GeneratorSpec, "generator"),
                build(DiscriminatorSpec, "discriminator"))
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"checkpoint header does not describe a run: {exc}") from None


def _fill(targets: dict[str, np.ndarray], tensors: dict[str, np.ndarray]) -> None:
    """Copy each checkpoint tensor into the target array of the same name."""
    for name, target in targets.items():
        source = tensors.get(name)
        if source is None or source.shape != target.shape:
            raise FormatError(f"checkpoint tensor {name} is missing or misshapen")
        target[...] = source


def load_state(path, dataset: Dataset, config: TrainConfig) -> TrainState:
    """Restore a TrainState; `config` may differ from the stored one in its budget only."""
    header, tensors = load_checkpoint(path)
    stored, gen_spec, disc_spec = _specs(header)
    stored = replace(stored, **{f: getattr(config, f) for f in _BUDGET_FIELDS})
    if stored != config:
        raise ConsistencyError(
            "config does not match checkpoint structure "
            f"(stored {stored}, requested {config})")
    state = init_state(config, dataset)
    if (state.gen.spec, state.disc.spec) != (gen_spec, disc_spec):
        raise ConsistencyError("dataset does not fit the checkpoint's networks")
    _fill(_state_tensors(state), tensors)
    try:
        state.adam_g.step = int(header["adam_steps"]["g"])
        state.adam_d.step = int(header["adam_steps"]["d"])
        state.step = int(header["step"])
        state.rng.bit_generator.state = header["rng"]
        state.diversity_history = [float(d) for d in header["diversity_window"]]
    except (KeyError, TypeError, ValueError) as exc:
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

    if dataset.kind == KIND_CLASS and needs_mismatch(config.objective) \
            and dataset.cardinality < 2:
        raise DomainError("mismatch objectives need at least 2 classes")

    if resume_from is not None:
        state = load_state(resume_from, dataset, config)
        _truncate_metrics(metrics_path, state.step)
        mode = "a"
    else:
        state = init_state(config, dataset)
        mode = "w"
    total_steps, spi = config.resolve_steps(len(dataset))

    with open(metrics_path, mode, encoding="utf-8") as metrics_fh:
        while state.step < total_steps:
            idx = batch_indices(config, spi, state.step, len(dataset))
            try:
                record = training_step(
                    state, dataset.images[idx], dataset.conditions[idx])
            except TrainingAbort as exc:
                snapshot = out_dir / f"diverged_step{state.step}.ckpt"
                write_state(state, snapshot)
                raise TrainingAbort(str(exc), snapshot_path=snapshot) from exc
            record["iter"] = (record["step"] - 1) // spi
            if state.step % config.metrics_every == 0 or state.step == total_steps:
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

def generator_from_checkpoint(path) -> tuple[Generator, TrainConfig]:
    """The trained generator stored in a checkpoint, and the config it was trained with."""
    header, tensors = load_checkpoint(path)
    config, gen_spec, _ = _specs(header)
    gen = Generator(gen_spec, seed=0)
    _fill({f"g.{name}": p.data for name, p in gen.params().items()}, tensors)
    return gen, config


def sample(gen: Generator, condition, count: int, seed: int) -> np.ndarray:
    """Generate `count` images at a fixed condition; deterministic given seed."""
    spec = gen.spec
    if spec.condition_kind == KIND_CLASS:
        condition = int(condition)
        if not (0 <= condition < spec.condition_cardinality):
            raise DomainError(
                f"class {condition} outside cardinality {spec.condition_cardinality}")
    else:
        condition = float(condition)
        if not (0.0 <= condition <= 1.0):
            raise DomainError(f"continuous condition {condition} outside [0, 1]")
    if count == 0:
        return np.empty((0, spec.out_h, spec.out_w))
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((count, spec.z_dim))
    conds = np.full(count, condition, dtype=np.float64)
    with frozen(gen.params().values()):
        return gen.forward(z, conds).data[:, 0, :, :]
