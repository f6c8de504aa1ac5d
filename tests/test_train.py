"""Training loop determinism, checkpoint persistence, and metric contracts."""
import contextlib
import io
import json
import os
import struct
import tracemalloc
import weakref
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from topogan import train as train_module
from topogan.data import Dataset, synth_classes, write_dataset
from topogan.exceptions import DimensionError, FormatError, ParameterError, TrainingAbort
from topogan.nets import Discriminator, Generator
from topogan.train import (
    CKPT_VERSION,
    TrainConfig,
    batch_indices,
    diversity_metric,
    epoch_order,
    generator_from_checkpoint,
    init_state,
    load_checkpoint,
    load_state,
    read_metrics,
    sample,
    save_checkpoint,
    train,
    training_step,
    write_state,
)


def desk_config(**over):
    base = dict(
        objective="cgan", batch_size=10, steps=3, seed=5, z_dim=6,
        gen_channels=(6, 4), disc_channels=(4, 6), feature_dim=8,
        minibatch_kernels=4, minibatch_dim=3,
    )
    base.update(over)
    return TrainConfig(**base)


@pytest.fixture(scope="module")
def tiny_dataset():
    return synth_classes(2, 15, 8, seed=3)


# ---------------------------------------------------------------------------
# diversity metric, against a brute-force oracle

def diversity_oracle(images):
    n = images.shape[0]
    total = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            total += np.abs(images[i] - images[j]).mean()
    return total / (n * (n - 1) / 2)


def test_diversity_identical_images():
    images = np.ones((4, 5, 5)) * 0.3
    assert diversity_metric(images) == 0.0


def test_diversity_opposite_pair():
    images = np.stack([np.zeros((6, 6)), np.ones((6, 6))])
    assert diversity_metric(images) == pytest.approx(1.0)


def test_diversity_matches_bruteforce_oracle():
    rng = np.random.default_rng(0)
    images = rng.uniform(0, 1, size=(4, 7, 5))
    assert diversity_metric(images) == pytest.approx(diversity_oracle(images), abs=1e-12)


def test_diversity_needs_two_images():
    with pytest.raises(DimensionError):
        diversity_metric(np.zeros((1, 4, 4)))


# ---------------------------------------------------------------------------
# config validation and epoch ordering

def test_config_validation():
    with pytest.raises(TypeError):   # steps is a required field
        TrainConfig(objective="cgan")
    with pytest.raises(ParameterError):
        TrainConfig(objective="cgan", steps=-1)
    # every step measures its fake batch's diversity, which takes 2 images
    for minibatch_discrimination in (True, False):
        with pytest.raises(ParameterError):
            TrainConfig(objective="cgan", steps=10, batch_size=1,
                        minibatch_discrimination=minibatch_discrimination)


def test_config_counts_must_be_ints():
    # TrainConfig checks each field: True as a count, a float seed (numpy's bare
    # TypeError in `train`) and the network fields (refused only by nets) passed it
    for field, bad in (("steps", float("nan")), ("steps", 1.5), ("steps", 2.0),
                       ("batch_size", 4.5), ("batch_size", float("inf")),
                       ("checkpoint_every", float("nan")), ("checkpoint_every", 1.0),
                       ("steps", True), ("batch_size", True), ("checkpoint_every", False),
                       ("seed", 1.5), ("seed", -1), ("seed", None), ("z_dim", 0),
                       ("z_dim", 4.0), ("z_dim", True), ("feature_dim", 8.5),
                       ("gen_channels", (4, 2.0)), ("gen_channels", (4,)),
                       ("gen_channels", 4), ("disc_channels", (True, 4)),
                       ("minibatch_kernels", 1.5), ("minibatch_dim", 0),
                       ("minibatch_discrimination", 1)):
        with pytest.raises(ParameterError, match=field):
            TrainConfig(objective="crcgan-a", **{"steps": 3, field: bad})
    TrainConfig(objective="crcgan-a", steps=np.int64(3), batch_size=np.int32(4),
                checkpoint_every=np.int64(1))
    assert desk_config(seed=np.int64(5), z_dim=np.int32(6), feature_dim=np.int64(8),
                       gen_channels=(np.int64(6), 4)) == desk_config()


def test_numpy_int_settings_train_checkpoint_and_resume_as_python_ints(tiny_dataset,
                                                                        tmp_path):
    # np.int64 counts raised a bare TypeError at the first checkpoint write (with
    # checkpoint_every=0, only after the whole budget), and nets refused an np.int64 z_dim
    def run(cast, name, **over):
        config = desk_config(objective="crcgan-a", steps=cast(4), batch_size=cast(10),
                             checkpoint_every=cast(2), z_dim=cast(6))
        return train(config, tiny_dataset, tmp_path / name, **over)

    py = run(int, "py")
    numpy_run = run(np.int64, "np")
    for name in ("step00000002.ckpt", "step00000004.ckpt", "final.ckpt"):
        assert (tmp_path / "np" / name).read_bytes() == (tmp_path / "py" / name).read_bytes()
    assert strip_wall(read_metrics(numpy_run.metrics_path)) == \
        strip_wall(read_metrics(py.metrics_path))
    (tmp_path / "np" / "final.ckpt").unlink()
    resumed = run(np.int64, "np", resume_from=tmp_path / "np" / "step00000002.ckpt")
    assert resumed.checkpoint_path.read_bytes() == py.checkpoint_path.read_bytes()
    assert strip_wall(read_metrics(resumed.metrics_path)) == \
        strip_wall(read_metrics(py.metrics_path))


def test_config_rejects_adam_hyperparameters_outside_their_domain():
    # eps=inf was accepted, and a 3-step run then left every weight unchanged
    for over in (dict(beta1=1.5), dict(beta1=1.0), dict(beta1=-0.1), dict(beta2=-1.0),
                 dict(beta2=1.0), dict(beta2=float("nan")), dict(eps=0.0),
                 dict(eps=-1e-8), dict(lr=float("nan")), dict(eps=float("inf")),
                 dict(lr=float("inf"))):
        with pytest.raises(ParameterError):
            TrainConfig(objective="cgan", steps=3, **over)
    # a string raised a bare TypeError, and a bool passed as 1.0 or 0.0
    for name in ("lr", "beta1", "beta2", "eps"):
        for bad in ("0.5", None, True, False, 1 + 0j):
            with pytest.raises(ParameterError, match=name):
                TrainConfig(objective="cgan", steps=3, **{name: bad})
    with pytest.raises(ParameterError, match=r"lr must be a finite number in \(0, inf\), got '0.1'"):
        TrainConfig(objective="cgan", steps=3, lr="0.1")
    TrainConfig(objective="cgan", steps=3, beta1=0.0, beta2=0.0, eps=1e-300)
    TrainConfig(objective="cgan", steps=3, lr=np.float32(2e-4), beta1=np.float64(0.5), eps=1)


def test_numpy_float_settings_train_checkpoint_and_resume(tiny_dataset, tmp_path):
    # the header's writer converted only numpy ints, so a numpy-float setting
    # passed every check and failed at the first checkpoint write
    config = desk_config(objective="crcgan-a", steps=4, checkpoint_every=2,
                         lr=np.float32(2e-4), beta1=np.float32(0.5))
    whole = train(config, tiny_dataset, tmp_path / "run")
    header, _ = load_checkpoint(tmp_path / "run" / "step00000002.ckpt")
    assert header["config"]["lr"] == float(np.float32(2e-4))
    final = whole.checkpoint_path.read_bytes()
    whole.checkpoint_path.unlink()
    resumed = train(config, tiny_dataset, tmp_path / "run",
                    resume_from=tmp_path / "run" / "step00000002.ckpt")
    assert resumed.checkpoint_path.read_bytes() == final


def test_config_rejects_negative_checkpoint_cadence(tiny_dataset, tmp_path):
    with pytest.raises(ParameterError):
        desk_config(checkpoint_every=-1)
    train(desk_config(steps=3, checkpoint_every=0), tiny_dataset, tmp_path / "run")
    assert sorted(p.name for p in (tmp_path / "run").glob("*.ckpt")) == ["final.ckpt"]


def test_steps_per_iteration_rounds_up():
    cfg = TrainConfig(objective="cgan", steps=1000, batch_size=100)
    assert cfg.steps_per_iteration(50_000) == 500
    assert cfg.steps_per_iteration(50_001) == 501
    assert cfg.steps_per_iteration(1) == 1


def test_epoch_order_deterministic_and_distinct():
    a = epoch_order(3, 0, 40)
    b = epoch_order(3, 0, 40)
    c = epoch_order(3, 1, 40)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert sorted(a.tolist()) == list(range(40))


def test_batch_indices_wrap_short_tail():
    cfg = desk_config(batch_size=8, steps=10)
    idx = batch_indices(cfg, spi=4, step=3, dataset_size=30)  # 30 = 3*8 + 6
    assert idx.size == 8
    order = epoch_order(cfg.seed, 0, 30)
    assert np.array_equal(idx, np.concatenate([order[24:], order[:2]]))


def test_dataset_smaller_than_one_batch_trains(tmp_path):
    # 4 samples, batch 10: each batch wraps around the epoch's order
    ds = synth_classes(2, 2, 8, seed=3)
    cfg = desk_config(steps=2)
    idx = batch_indices(cfg, cfg.steps_per_iteration(len(ds)), 0, len(ds))
    assert np.array_equal(idx, np.resize(epoch_order(cfg.seed, 0, len(ds)), 10))
    records = read_metrics(train(cfg, ds, tmp_path).metrics_path)
    assert [r["step"] for r in records] == [1, 2]


@pytest.mark.parametrize("objective", ["cgan", "crcgan-a"])
def test_empty_dataset_is_parameter_error(objective):
    ds = Dataset(np.zeros((0, 8, 8)), [], cardinality=2)
    with pytest.raises(ParameterError, match="empty"):
        init_state(desk_config(objective=objective), ds)


# ---------------------------------------------------------------------------
# single step behavior

def test_training_step_deterministic(tiny_dataset):
    records = []
    for _ in range(2):
        cfg = desk_config(steps=1)
        state = init_state(cfg, tiny_dataset)
        rec = training_step(state, tiny_dataset.images[:10], tiny_dataset.conditions[:10])
        records.append((rec, state))
    r0, r1 = records[0][0], records[1][0]
    for key in ("d_loss", "g_loss", "diversity", "mean_score_real", "mean_score_fake"):
        assert r0[key] == r1[key]
    g0 = records[0][1].gen.params()["dense.w"].data
    g1 = records[1][1].gen.params()["dense.w"].data
    assert np.array_equal(g0, g1)


def test_freezing_changes_no_number(tiny_dataset, monkeypatch):
    # the frozen forwards skip parameter gradients that are never read, so a
    # step that builds every gradient must give the same records and weights
    def run():
        state = init_state(desk_config(objective="crcgan-a"), tiny_dataset)
        records = []
        for step in range(3):
            idx = batch_indices(state.config, 3, step, len(tiny_dataset))
            rec = training_step(state, tiny_dataset.images[idx], tiny_dataset.conditions[idx])
            rec.pop("wall_ms")
            records.append(rec)
        params = {f"{net}.{name}": p.data.copy()
                  for net in ("gen", "disc")
                  for name, p in getattr(state, net).params().items()}
        return records, params

    frozen_records, frozen_params = run()

    @contextlib.contextmanager
    def no_op(params):
        yield

    monkeypatch.setattr(train_module, "frozen", no_op)
    records, params = run()
    assert records == frozen_records
    assert params.keys() == frozen_params.keys()
    assert all(np.array_equal(params[k], frozen_params[k]) for k in params)


@pytest.mark.parametrize("objective", ["cgan", "crcgan-a", "crcgan-b"])
def test_discriminator_update_is_released_before_the_generator_update(tiny_dataset,
                                                                      monkeypatch,
                                                                      objective):
    # by the time G's second forward of a step starts (the G update), no D
    # score and no fake batch of the D update may still be alive. Tensors take
    # no weak references, so each ref is to the output's array, which its
    # tensor keeps alive.
    made: list[weakref.ref] = []
    gen_calls = []
    disc_forward, gen_forward = Discriminator.forward, Generator.forward

    def tracked_disc(self, x, condition_values):
        out = disc_forward(self, x, condition_values)
        made.append(weakref.ref(out.data))
        return out

    def checked_gen(self, z, condition_values):
        gen_calls.append(len(made))
        if len(gen_calls) == 2:
            alive = [i for i, ref in enumerate(made) if ref() is not None]
            assert not alive, f"outputs {alive} of {len(made)} still alive"
        out = gen_forward(self, z, condition_values)
        made.append(weakref.ref(out.data))
        return out

    monkeypatch.setattr(Discriminator, "forward", tracked_disc)
    monkeypatch.setattr(Generator, "forward", checked_gen)
    state = init_state(desk_config(objective=objective, steps=1), tiny_dataset)
    idx = batch_indices(state.config, 3, 0, len(tiny_dataset))
    training_step(state, tiny_dataset.images[idx], tiny_dataset.conditions[idx])
    # D scores real, (mismatched,) fake in its update; G's fake once in its own
    assert gen_calls == [0, 3 if objective == "cgan" else 4]


@pytest.mark.parametrize("objective", ["cgan", "crcgan-a", "crcgan-b"])
def test_training_step_peak_memory(objective):
    # one step at batch 16 on 16x16 data with the default widths; tracemalloc
    # sees numpy's buffers. Peak of what the step allocates: 7.6 MB for each
    # objective. It was 9.6 MB while each graph node held its tensor, so a
    # graph kept every op result alive, pre-activations included; 13.7 MB
    # (cgan) and 15.2 MB (crcgan-a and -b) while the D update's graphs lived
    # through the G update and each bias add kept a second copy of its
    # layer's activation.
    ds = synth_classes(4, 8, 16, seed=0)
    state = init_state(TrainConfig(objective=objective, steps=1, batch_size=16), ds)
    tracemalloc.start()
    try:
        training_step(state, ds.images[:16], ds.conditions[:16])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8e6, f"peak {peak / 1e6:.1f} MB"


def test_training_step_requires_full_batch(tiny_dataset):
    cfg = desk_config(steps=1)
    state = init_state(cfg, tiny_dataset)
    with pytest.raises(DimensionError):
        training_step(state, tiny_dataset.images[:7], tiny_dataset.conditions[:7])


@pytest.mark.parametrize("pick", [np.s_[:10, 0], np.s_[:10, None]], ids=["2d", "4d"])
def test_training_step_requires_a_batch_of_2d_images(tiny_dataset, pick):
    state = init_state(desk_config(steps=1), tiny_dataset)
    with pytest.raises(DimensionError, match=r"\(batch, H, W\)"):
        training_step(state, tiny_dataset.images[pick], tiny_dataset.conditions[:10])
    assert state.step == 0


@pytest.mark.parametrize("pick", [np.s_[:10, None], np.s_[:9]], ids=["2d", "short"])
@pytest.mark.parametrize("objective", ["cgan", "crcgan-a", "crcgan-b"])
def test_training_step_requires_one_condition_per_image(tiny_dataset, objective, pick):
    # refused before the step draws its noise: the run's rng stream is untouched
    state = init_state(desk_config(objective=objective, steps=1), tiny_dataset)
    rng_state = state.rng.bit_generator.state
    with pytest.raises(DimensionError, match=r"conditions must be \(10,\)"):
        training_step(state, tiny_dataset.images[:10], tiny_dataset.conditions[pick])
    assert state.step == 0
    assert state.rng.bit_generator.state == rng_state


def test_metrics_mismatch_group_presence(tiny_dataset):
    for objective, present in (("crcgan-a", True), ("cgan", False)):
        cfg = desk_config(objective=objective, steps=1)
        state = init_state(cfg, tiny_dataset)
        rec = training_step(state, tiny_dataset.images[:10], tiny_dataset.conditions[:10])
        assert (rec["mean_score_mismatch"] is not None) == present


def test_cgan_trains_on_continuous_data_at_one_condition(tiny_dataset):
    # cgan draws no wrong condition; crcgan-a draws its own from [0, 1], so
    # neither needs the data to hold a second condition
    ds = Dataset(tiny_dataset.images, np.ones(len(tiny_dataset)))
    for objective in ("cgan", "crcgan-a"):
        state = init_state(desk_config(objective=objective, steps=1), ds)
        rec = training_step(state, ds.images[:10], ds.conditions[:10])
        assert rec["step"] == 1 and np.isfinite(rec["d_loss"]) and np.isfinite(rec["g_loss"])
        assert (rec["mean_score_mismatch"] is None) == (objective == "cgan")


@pytest.mark.parametrize("conditions", [[0.30, 0.35, 0.40], [0.96, 0.97, 0.98, 1.0]])
def test_crcgan_a_trains_on_narrow_continuous_sweeps(tiny_dataset, conditions):
    # the data's own range holds no wrong condition for 0.35, nor for 0.98 once
    # capped at 1 (all-1.0 data: test_cgan_trains_on_continuous_data_at_one_condition):
    # the draw must come from the whole domain [0, 1]
    ds = Dataset(tiny_dataset.images, np.resize(conditions, len(tiny_dataset)))
    state = init_state(desk_config(objective="crcgan-a", steps=1), ds)
    rec = training_step(state, ds.images[:10], ds.conditions[:10])
    assert rec["step"] == 1 and np.isfinite(rec["d_loss"]) and np.isfinite(rec["g_loss"])
    assert np.isfinite(rec["mean_score_mismatch"])


@pytest.mark.parametrize("objective", ["crcgan-a", "crcgan-b"])
def test_mismatch_objectives_on_one_class_fail_in_init_state(objective):
    # no wrong condition exists: the run fails before its first step
    ds = Dataset(np.zeros((4, 8, 8)), [0, 0, 0, 0], cardinality=1)
    with pytest.raises(ParameterError, match="at least 2 classes"):
        init_state(desk_config(objective=objective, steps=1), ds)


# The last record of a 3-step run of each objective on class and continuous
# data, and of crcgan-a on a 0.30/0.35/0.40 volfrac sweep, at the benchmark's
# loss tolerance (LOSS_RTOL in bench/workloads.py): a change to any
# objective's draws or losses shows here.
LOSS_RTOL = 1e-9
STREAM_PINS = [
    ("cgan", "class", 1.4317102222592208, 0.5048441036370254, None),
    ("cgan", "continuous", 1.4503115529090536, 0.9749434454997736, None),
    ("crcgan-a", "class", 2.3614726201692333, 0.5048668952602144, 0.6053533782665765),
    ("crcgan-a", "continuous", 1.9176587135288035, 1.0027190802138297, 0.36857231309643745),
    ("crcgan-a", "volfracs", 1.9176588976489486, 1.0027181921688766, 0.36857242402318824),
    ("crcgan-b", "class", 2.3614737294903625, 0.5048662734939348, 0.6053537324446978),
    ("crcgan-b", "continuous", 1.917658709220475, 1.0027182645820916, 0.36857254273128054),
]


@pytest.mark.parametrize("objective, kind, d_loss, g_loss, score_mismatch", STREAM_PINS)
def test_training_stream_is_pinned(tiny_dataset, tmp_path, objective, kind, d_loss, g_loss,
                                   score_mismatch):
    conditions = {"continuous": np.linspace(0.2, 0.8, len(tiny_dataset)),
                  "volfracs": np.resize([0.30, 0.35, 0.40], len(tiny_dataset))}
    ds = tiny_dataset if kind == "class" else Dataset(tiny_dataset.images, conditions[kind])
    last = read_metrics(train(desk_config(objective=objective), ds, tmp_path).metrics_path)[-1]
    assert last["step"] == 3
    assert last["d_loss"] == pytest.approx(d_loss, rel=LOSS_RTOL, abs=0)
    assert last["g_loss"] == pytest.approx(g_loss, rel=LOSS_RTOL, abs=0)
    if score_mismatch is None:
        assert last["mean_score_mismatch"] is None
    else:
        assert last["mean_score_mismatch"] == pytest.approx(score_mismatch, rel=LOSS_RTOL, abs=0)


def test_training_step_updates_both_networks(tiny_dataset):
    cfg = desk_config(steps=1)
    state = init_state(cfg, tiny_dataset)
    g_before = state.gen.params()["dense.w"].data.copy()
    d_before = state.disc.params()["conv1.w"].data.copy()
    training_step(state, tiny_dataset.images[:10], tiny_dataset.conditions[:10])
    assert not np.array_equal(g_before, state.gen.params()["dense.w"].data)
    assert not np.array_equal(d_before, state.disc.params()["conv1.w"].data)
    assert state.adam_g.step == 1 and state.adam_d.step == 1


def test_d_loss_improves_on_separable_toy(tiny_dataset):
    cfg = desk_config(objective="cgan", steps=50, batch_size=10, seed=1)
    state = init_state(cfg, tiny_dataset)
    first = None
    for k in range(50):
        idx = batch_indices(cfg, spi=3, step=k, dataset_size=len(tiny_dataset))
        rec = training_step(state, tiny_dataset.images[idx], tiny_dataset.conditions[idx])
        if first is None:
            first = rec["d_loss"]
    assert rec["d_loss"] < first


# ---------------------------------------------------------------------------
# checkpoint round trip

def test_checkpoint_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(1)
    tensors = {
        "a": rng.normal(size=(3, 4)),
        "b.scalar": np.float64(7.25),
        "c": rng.normal(size=(2, 1, 5)),
    }
    header = {"step": 42, "rng": {"state": 2**100 + 1}, "window": [0.1, 1e-300]}
    path = tmp_path / "t.ckpt"
    save_checkpoint(path, header, tensors)
    back_header, back = load_checkpoint(path)
    assert back_header == header
    assert set(back) == set(tensors)
    for k in tensors:
        assert np.array_equal(back[k], np.asarray(tensors[k]))
        assert back[k].shape == np.shape(tensors[k])
    # writing the loaded dict again is byte-identical
    path2 = tmp_path / "t2.ckpt"
    save_checkpoint(path2, back_header, back)
    assert path.read_bytes() == path2.read_bytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["t.ckpt", "t2.ckpt"]


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(FormatError, match="magic"):
        load_checkpoint(path)


def test_checkpoint_truncated(tmp_path):
    path = tmp_path / "t.ckpt"
    save_checkpoint(path, {"step": 1}, {"x": np.ones((4, 4))})
    blob = path.read_bytes()
    path.write_bytes(blob[:-20])
    with pytest.raises(FormatError):
        load_checkpoint(path)


def seal(blob: bytes) -> bytes:
    """`blob` with its CRC32 trailer recomputed, as a crafted file would have it."""
    return blob[:-4] + struct.pack("<I", zlib.crc32(blob[:-4]))


def load_checkpoint_bytes(blob: bytes, tmp_path):
    """(header, tensors) of a checkpoint held in memory."""
    path = tmp_path / "bytes.ckpt"
    path.write_bytes(blob)
    return load_checkpoint(path)


@pytest.fixture(scope="module")
def state_checkpoint(tiny_dataset, tmp_path_factory):
    state = init_state(desk_config(objective="crcgan-a", steps=2), tiny_dataset)
    training_step(state, tiny_dataset.images[:10], tiny_dataset.conditions[:10])
    path = tmp_path_factory.mktemp("ckpt") / "s.ckpt"
    write_state(state, path)
    return path.read_bytes()


@settings(max_examples=200, deadline=None)
@given(edits=st.lists(st.tuples(st.integers(0, 2047), st.integers(0, 255)),
                      min_size=1, max_size=4),
       cut=st.integers(0, 8), resealed=st.booleans())
def test_checkpoint_reader_is_total(state_checkpoint, tmp_path_factory, edits, cut,
                                    resealed):
    # byte edits and truncation fail as FormatError or load exactly what was
    # written; re-sealed with a valid CRC they still raise nothing but FormatError
    blob = bytearray(state_checkpoint)
    for pos, value in edits:
        blob[pos] = value
    mutated = bytes(blob[:len(blob) - cut])
    if resealed and len(mutated) >= 16:
        mutated = seal(mutated)
    path = tmp_path_factory.mktemp("fuzz") / "f.ckpt"
    path.write_bytes(mutated)
    try:
        header, tensors = load_checkpoint(path)
    except FormatError:
        return
    assert mutated == seal(mutated), "a checkpoint with a wrong CRC32 loaded"
    if not resealed or mutated == state_checkpoint:
        path.write_bytes(state_checkpoint)
        header0, tensors0 = load_checkpoint(path)
        assert header == header0
        assert tensors.keys() == tensors0.keys()
        assert all(tensors[k].tobytes() == tensors0[k].tobytes() for k in tensors)


@settings(max_examples=200, deadline=None)
@given(edits=st.lists(st.tuples(st.integers(0, 2047), st.integers(0, 255)),
                      min_size=1, max_size=4),
       cut=st.integers(0, 8), resealed=st.booleans())
def test_in_place_loaders_are_total(state_checkpoint, tiny_dataset, tmp_path_factory,
                                    edits, cut, resealed):
    # the edits of the test above, fed to the readers that fill a generator and
    # a TrainState in place: each loads or raises FormatError, and a resealed
    # header may also name another run than the one load_state is asked for
    blob = bytearray(state_checkpoint)
    for pos, value in edits:
        blob[pos] = value
    mutated = bytes(blob[:len(blob) - cut])
    if resealed and len(mutated) >= 16:
        mutated = seal(mutated)
    path = tmp_path_factory.mktemp("fuzz") / "f.ckpt"
    path.write_bytes(mutated)
    for load, errors in (
            (lambda: generator_from_checkpoint(path), FormatError),
            (lambda: load_state(path, tiny_dataset, desk_config(objective="crcgan-a", steps=2)),
             (FormatError, ParameterError) if resealed else FormatError)):
        try:
            load()
        except errors:
            continue
        assert mutated == seal(mutated), "a checkpoint with a wrong CRC32 loaded"


def test_checkpoint_short_read_is_format_error(state_checkpoint):
    # a file that ends before the size its CRC pass and tensor table were
    # checked against (cut while being read) fails at the read itself
    fh = io.BytesIO(state_checkpoint[:100])
    with pytest.raises(FormatError, match="short read"):
        train_module._read_exact(fh, np.empty(13))


@pytest.mark.parametrize("header", [
    b"\xff\xfe{", b"{not json", b"[1, 2]", b'{"step": 1}', b'{"tensors": [["x", [-1]]]}',
    b'{"tensors": [["x", [2, 2]]]}', b'{"tensors": [[3, []]]}', b"[" * 100_000,
    # more dimensions than numpy supports: [1] * 65 also runs past the (empty)
    # data, so [1] * 64 + [0], with no data, is what reaches numpy's limit
    json.dumps({"tensors": [["x", [1] * 65]]}).encode(),
    json.dumps({"tensors": [["x", [1] * 64 + [0]]]}).encode(),
])
def test_checkpoint_malformed_header_is_format_error(tmp_path, header):
    prefix = struct.pack("<4sII", b"CRCG", CKPT_VERSION, len(header))
    path = tmp_path / "h.ckpt"
    path.write_bytes(seal(prefix + header + b"\0\0\0\0"))
    with pytest.raises(FormatError):
        load_checkpoint(path)


def test_checkpoint_header_without_a_run_is_format_error(tmp_path, tiny_dataset,
                                                         state_checkpoint):
    path = tmp_path / "h.ckpt"
    save_checkpoint(path, {"step": 1, "config": {"objective": "wgan"}}, {})
    with pytest.raises(FormatError):
        generator_from_checkpoint(path)
    # version 2 files stored the network specs beside the config, and version 3
    # configs had the fields non_saturating, iterations and mismatch_margin
    for version in (2, 3):
        old = bytearray(state_checkpoint)
        struct.pack_into("<I", old, 4, version)
        path.write_bytes(seal(bytes(old)))
        with pytest.raises(FormatError, match="version"):
            load_checkpoint(path)
    # a missing or malformed data block
    cfg = desk_config(objective="crcgan-a", steps=2)
    header, tensors = load_checkpoint_bytes(state_checkpoint, tmp_path)
    good = header["data"]
    for data in (None, [8, 8, "class", 2], {k: v for k, v in good.items() if k != "width"},
                 {**good, "height": "8"}, {**good, "height": 6}, {**good, "height": -4},
                 {**good, "width": 0}, {**good, "kind": "colour"},
                 # the kind disagrees with the cardinality, or is missing
                 {**good, "kind": "continuous"}, {k: v for k, v in good.items() if k != "kind"},
                 {**good, "cardinality": -1},
                 # 8.0 == 8 in Python: only a type check tells these from ints
                 {**good, "height": 8.0}, {**good, "cardinality": 2.0},
                 {**good, "cardinality": True}):
        broken = {k: v for k, v in header.items() if k != "data"}
        if data is not None:
            broken["data"] = data
        save_checkpoint(path, broken, tensors)
        with pytest.raises(FormatError):
            generator_from_checkpoint(path)
        with pytest.raises(FormatError):
            load_state(path, tiny_dataset, cfg)


def test_checkpoint_naming_a_removed_objective_is_format_error(tmp_path, tiny_dataset,
                                                              state_checkpoint):
    header, tensors = load_checkpoint_bytes(state_checkpoint, tmp_path)
    path = tmp_path / "gan.ckpt"
    save_checkpoint(path, {**header, "config": {**header["config"], "objective": "gan"}},
                    tensors)
    with pytest.raises(FormatError):
        generator_from_checkpoint(path)
    with pytest.raises(FormatError):
        load_state(path, tiny_dataset, desk_config(objective="crcgan-a", steps=2))


def test_checkpoint_with_an_unbuildable_network_is_format_error(tmp_path, tiny_dataset,
                                                                state_checkpoint):
    # feature_dim shapes D only: the generator's reader refuses it through TrainConfig
    header, tensors = load_checkpoint_bytes(state_checkpoint, tmp_path)
    path = tmp_path / "net.ckpt"
    for field_value in ({"feature_dim": 0}, {"z_dim": 0}, {"feature_dim": 8.5},
                        {"z_dim": 6.0}):
        save_checkpoint(path, {**header, "config": {**header["config"], **field_value}},
                        tensors)
        with pytest.raises(FormatError):
            generator_from_checkpoint(path)
        with pytest.raises(FormatError):
            load_state(path, tiny_dataset, desk_config(objective="crcgan-a", steps=2))


def test_checkpoint_declaring_a_huge_image_fails_before_allocating(tmp_path,
                                                                  state_checkpoint):
    # the header says 1024x1024 but the tensors are those of an 8x8 run: the
    # table is checked against the specs before a generator of that size is built
    header, tensors = load_checkpoint_bytes(state_checkpoint, tmp_path)
    path = tmp_path / "huge.ckpt"
    save_checkpoint(path, {**header, "data": {**header["data"], "height": 1024,
                                              "width": 1024}}, tensors)
    assert path.stat().st_size < 64_000
    tracemalloc.start()
    try:
        with pytest.raises(FormatError):
            generator_from_checkpoint(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20, f"peak {peak / 2**20:.1f} MiB"


def test_load_state_header_numbers_out_of_range_are_format_error(tmp_path, tiny_dataset,
                                                                 state_checkpoint):
    # each raised a bare OverflowError: int(inf), a 200-bit rng state, float(10**400)
    header, tensors = load_checkpoint_bytes(state_checkpoint, tmp_path)
    path = tmp_path / "n.ckpt"
    rng = header["rng"]
    for field_value in ({"step": float("inf")},
                        {"rng": {**rng, "state": {**rng["state"], "state": 2**200}}},
                        {"diversity_window": [10**400]}):
        save_checkpoint(path, {**header, **field_value}, tensors)
        with pytest.raises(FormatError):
            load_state(path, tiny_dataset, desk_config(objective="crcgan-a", steps=2))


def test_load_state_rejects_bad_step_counts(tmp_path, tiny_dataset, state_checkpoint):
    # a count must be an int >= 0: an Adam step of -1 makes the next update divide by zero
    header, tensors = load_checkpoint_bytes(state_checkpoint, tmp_path)
    path = tmp_path / "n.ckpt"
    config = desk_config(objective="crcgan-a", steps=2)
    save_checkpoint(path, header, tensors)
    assert load_state(path, tiny_dataset, config).step == 1
    for field_value in ({"step": -3}, {"step": 2.7}, {"step": True},
                        {"adam_steps": {**header["adam_steps"], "g": -1}}):
        save_checkpoint(path, {**header, **field_value}, tensors)
        with pytest.raises(FormatError, match="step count"):
            load_state(path, tiny_dataset, config)


@pytest.fixture(scope="module")
def pipeline_state(tmp_path_factory):
    """The pipeline workload's networks (crcgan-b, default widths, 32x32
    continuous data), initialised, and their checkpoint."""
    ds = Dataset(np.full((2, 32, 32), 0.5), [0.4, 0.6])
    config = TrainConfig(objective="crcgan-b", steps=1, batch_size=16)
    state = init_state(config, ds)
    path = tmp_path_factory.mktemp("pipeline") / "p.ckpt"
    write_state(state, path)
    return ds, state, path


def traced_peak(fn) -> int:
    """Peak bytes that numpy and Python allocate while `fn` runs, kept or not."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_generator_load_peak_memory(pipeline_state):
    # measured: 5.41 MB to load a 5.38 MB generator from a 23.7 MB file (1.0x).
    # Reading the whole file first peaked at 29.1 MB (5.4x).
    _, state, path = pipeline_state
    gen_bytes = sum(p.data.nbytes for p in state.gen.params().values())
    peak = traced_peak(lambda: generator_from_checkpoint(path))
    assert peak <= 1.5 * gen_bytes, f"peak {peak / gen_bytes:.2f}x the generator"


def test_load_state_peak_memory(pipeline_state):
    # measured: 23.69 MB for 23.65 MB of state tensors (1.0x). Reading the
    # whole file and then copying it into the state peaked at 47.3 MB (2.0x).
    ds, state, path = pipeline_state
    state_bytes = sum(a.nbytes for a in train_module._state_tensors(state).values())
    peak = traced_peak(lambda: load_state(path, ds, state.config))
    assert peak <= 1.5 * state_bytes, f"peak {peak / state_bytes:.2f}x the state"


def test_write_state_peak_memory(pipeline_state, tmp_path):
    # measured: 0.03 MB. A byte copy of every tensor, made before the first
    # write, peaked at 23.7 MB, the size of the file.
    _, state, _ = pipeline_state
    peak = traced_peak(lambda: write_state(state, tmp_path / "w.ckpt"))
    assert peak <= 2 * 2**20, f"peak {peak / 2**20:.2f} MiB"


def test_checkpoint_write_is_atomic(tmp_path, monkeypatch):
    path = tmp_path / "a.ckpt"
    save_checkpoint(path, {"step": 1}, {"x": np.ones(3)})
    before = path.read_bytes()

    def fail(fd):
        raise OSError("disk full")

    monkeypatch.setattr(os, "fsync", fail)
    with pytest.raises(OSError):
        save_checkpoint(path, {"step": 2}, {"x": np.zeros(3)})
    assert path.read_bytes() == before
    assert [entry.name for entry in tmp_path.iterdir()] == ["a.ckpt"]   # no a.ckpt.tmp


def test_dataset_write_is_atomic(tmp_path, monkeypatch, tiny_dataset):
    path = tmp_path / "a.topd"
    write_dataset(tiny_dataset, path)
    before = path.read_bytes()

    def fail(fd):
        raise OSError("disk full")

    monkeypatch.setattr(os, "fsync", fail)
    with pytest.raises(OSError):
        write_dataset(synth_classes(2, 3, 8, seed=4), path)
    assert path.read_bytes() == before
    assert [entry.name for entry in tmp_path.iterdir()] == ["a.topd"]   # no a.topd.tmp


def test_committed_v4_checkpoint_loads_and_writes_back_byte_identical(tiny_dataset,
                                                                       tmp_path):
    # written by commit a8e5142, which built the nets from spec objects: pins the
    # CRCG v4 layout and header across changes that keep the format
    path = Path(__file__).parent / "data" / "crcgan_a_8x8_v4.ckpt"
    state = load_state(path, tiny_dataset, desk_config(objective="crcgan-a", steps=2))
    assert state.step == 2
    gen = generator_from_checkpoint(path)
    assert gen.config == state.config
    assert all(np.array_equal(p.data, state.gen.params()[name].data)
               for name, p in gen.params().items())
    write_state(state, tmp_path / "again.ckpt")
    assert (tmp_path / "again.ckpt").read_bytes() == path.read_bytes()


def test_load_state_rejects_other_dataset(tiny_dataset, tmp_path):
    cfg = desk_config(steps=1)
    path = tmp_path / "s.ckpt"
    write_state(init_state(cfg, tiny_dataset), path)
    with pytest.raises(ParameterError):
        load_state(path, synth_classes(3, 10, 8, seed=3), cfg)


def test_state_roundtrip_resumes_identically(tiny_dataset, tmp_path):
    cfg = desk_config(steps=2)
    state = init_state(cfg, tiny_dataset)
    training_step(state, tiny_dataset.images[:10], tiny_dataset.conditions[:10])
    path = tmp_path / "s.ckpt"
    write_state(state, path)
    restored = load_state(path, tiny_dataset, cfg)
    assert restored.step == state.step
    for name, p in state.gen.params().items():
        assert np.array_equal(p.data, restored.gen.params()[name].data)
    for name, p in state.disc.params().items():
        assert np.array_equal(p.data, restored.disc.params()[name].data)
    assert np.array_equal(state.adam_g.m[0], restored.adam_g.m[0])
    # both continue identically
    rec_a = training_step(state, tiny_dataset.images[:10], tiny_dataset.conditions[:10])
    rec_b = training_step(restored, tiny_dataset.images[:10], tiny_dataset.conditions[:10])
    assert rec_a["d_loss"] == rec_b["d_loss"]
    assert rec_a["g_loss"] == rec_b["g_loss"]


# ---------------------------------------------------------------------------
# full train() driver

def strip_wall(records):
    return [{k: v for k, v in r.items() if k != "wall_ms"} for r in records]


def test_train_zero_budget_writes_initial_checkpoint(tiny_dataset, tmp_path):
    cfg = desk_config(steps=0)
    outcome = train(cfg, tiny_dataset, tmp_path / "run")
    assert outcome.checkpoint_path.exists()
    assert read_metrics(outcome.metrics_path) == []
    header, _ = load_checkpoint(outcome.checkpoint_path)
    assert header["step"] == 0


def test_train_writes_metrics_and_checkpoint(tiny_dataset, tmp_path):
    cfg = desk_config(steps=4)
    outcome = train(cfg, tiny_dataset, tmp_path / "run")
    records = read_metrics(outcome.metrics_path)
    assert [r["step"] for r in records] == [1, 2, 3, 4]
    required = {"step", "iter", "d_loss", "g_loss", "diversity",
                "mean_score_real", "mean_score_fake", "mean_score_mismatch", "wall_ms"}
    assert required <= set(records[0])
    assert all(np.isfinite(r["d_loss"]) and np.isfinite(r["g_loss"]) for r in records)


def test_train_deterministic_across_runs(tiny_dataset, tmp_path):
    a = train(desk_config(steps=3), tiny_dataset, tmp_path / "a")
    b = train(desk_config(steps=3), tiny_dataset, tmp_path / "b")
    assert strip_wall(read_metrics(a.metrics_path)) == \
        strip_wall(read_metrics(b.metrics_path))
    sa = load_checkpoint(a.checkpoint_path)[1]
    sb = load_checkpoint(b.checkpoint_path)[1]
    for name in sa:
        assert np.array_equal(sa[name], sb[name]), name


def test_interrupt_resume_reproduces_trace(tiny_dataset, tmp_path):
    full = train(desk_config(steps=6), tiny_dataset, tmp_path / "full")
    part = train(desk_config(steps=3), tiny_dataset, tmp_path / "part")
    resumed = train(desk_config(steps=6), tiny_dataset, tmp_path / "part",
                    resume_from=part.checkpoint_path)
    assert strip_wall(read_metrics(full.metrics_path)) == \
        strip_wall(read_metrics(resumed.metrics_path))
    fa = load_checkpoint(full.checkpoint_path)[1]
    fb = load_checkpoint(resumed.checkpoint_path)[1]
    for name in fa:
        assert np.array_equal(fa[name], fb[name]), name


def test_resume_past_the_collapse_window_ends_in_the_same_state(tiny_dataset, tmp_path):
    # the history was a list that grew by one entry per step, while a checkpoint
    # kept its last COLLAPSE_WINDOW entries: a run resumed at step 105 ended
    # with 105 entries, the uninterrupted one with 110
    steps = train_module.COLLAPSE_WINDOW + 10
    cfg = desk_config(objective="crcgan-a", steps=steps)
    full = train(cfg, tiny_dataset, tmp_path / "full")
    part = train(desk_config(objective="crcgan-a", steps=steps - 5), tiny_dataset,
                 tmp_path / "part")
    resumed = train(cfg, tiny_dataset, tmp_path / "part", resume_from=part.checkpoint_path)
    history = list(full.state.diversity_history)
    assert len(history) == train_module.COLLAPSE_WINDOW
    assert list(resumed.state.diversity_history) == history
    assert strip_wall(read_metrics(full.metrics_path)) == \
        strip_wall(read_metrics(resumed.metrics_path))


def test_resume_after_crash_matches_uninterrupted_run(tiny_dataset, tmp_path, monkeypatch):
    cfg = desk_config(steps=4, checkpoint_every=2)
    full = train(cfg, tiny_dataset, tmp_path / "full")

    real_step = train_module.training_step

    def crash_after_step_3(state, images, conditions):
        if state.step == 3:
            raise KeyboardInterrupt
        return real_step(state, images, conditions)

    with monkeypatch.context() as m:
        m.setattr(train_module, "training_step", crash_after_step_3)
        with pytest.raises(KeyboardInterrupt):
            train(cfg, tiny_dataset, tmp_path / "part")
    resumed = train(cfg, tiny_dataset, tmp_path / "part",
                    resume_from=tmp_path / "part" / "step00000002.ckpt")
    records = read_metrics(resumed.metrics_path)
    assert [r["step"] for r in records] == [1, 2, 3, 4]
    assert strip_wall(records) == strip_wall(read_metrics(full.metrics_path))
    fa = load_checkpoint(full.checkpoint_path)[1]
    fb = load_checkpoint(resumed.checkpoint_path)[1]
    for name in fa:
        assert np.array_equal(fa[name], fb[name]), name


def test_resume_from_diverged_discriminator_aborts_with_snapshot(tiny_dataset, tmp_path,
                                                                 state_checkpoint):
    header, tensors = load_checkpoint_bytes(state_checkpoint, tmp_path)
    tensors = {**tensors, "d.head.b": np.array([np.nan])}
    path = tmp_path / "nan.ckpt"
    save_checkpoint(path, header, tensors)
    with pytest.raises(TrainingAbort) as info:
        train(desk_config(objective="crcgan-a", steps=3), tiny_dataset, tmp_path / "run",
              resume_from=path)
    assert info.value.snapshot_path.exists()


def test_train_crcgan_b_runs(tiny_dataset, tmp_path):
    cfg = desk_config(objective="crcgan-b", steps=2)
    outcome = train(cfg, tiny_dataset, tmp_path / "b")
    records = read_metrics(outcome.metrics_path)
    assert len(records) == 2
    assert records[0]["mean_score_mismatch"] is not None


def test_checkpoint_cadence(tiny_dataset, tmp_path):
    cfg = desk_config(steps=4, checkpoint_every=2)
    train(cfg, tiny_dataset, tmp_path / "run")
    assert (tmp_path / "run" / "step00000002.ckpt").exists()
    assert (tmp_path / "run" / "step00000004.ckpt").exists()
    assert (tmp_path / "run" / "final.ckpt").exists()


# ---------------------------------------------------------------------------
# sampling

def test_sample_deterministic_and_bounded(tiny_dataset, tmp_path):
    outcome = train(desk_config(steps=2), tiny_dataset, tmp_path / "run")
    gen = generator_from_checkpoint(outcome.checkpoint_path)
    assert gen.config == desk_config(steps=2)
    a = sample(gen, 0, count=5, seed=11)
    b = sample(gen, 0, count=5, seed=11)
    c = sample(gen, 0, count=5, seed=12)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert a.shape == (5, 8, 8)
    assert a.min() >= 0.0 and a.max() <= 1.0


def test_sample_count_zero(tiny_dataset, tmp_path):
    outcome = train(desk_config(steps=1), tiny_dataset, tmp_path / "run")
    gen = generator_from_checkpoint(outcome.checkpoint_path)
    out = sample(gen, 1, count=0, seed=0)
    assert out.shape == (0, 8, 8)
    for bad in (-1, 2.5, np.float64(2), None):
        with pytest.raises(ParameterError, match="count"):
            sample(gen, 1, count=bad, seed=0)
    assert sample(gen, 1, count=np.int64(2), seed=0).shape == (2, 8, 8)
    # numpy's bare TypeError and ValueError, and only when count > 0
    for bad in (1.5, -1, None, True):
        for count in (2, 0):
            with pytest.raises(ParameterError, match="seed"):
                sample(gen, 1, count=count, seed=bad)
    assert np.array_equal(sample(gen, 1, count=2, seed=np.int64(3)),
                          sample(gen, 1, count=2, seed=3))


def test_sample_condition_domain_error(tiny_dataset, tmp_path):
    outcome = train(desk_config(steps=1), tiny_dataset, tmp_path / "run")
    gen = generator_from_checkpoint(outcome.checkpoint_path)
    for condition in (5, 1.5, float("nan")):
        for count in (2, 0):
            with pytest.raises(ParameterError):
                sample(gen, condition, count=count, seed=0)
    # "1" and True each sampled class 1
    for condition in ("1", None, True, 1 + 0j):
        with pytest.raises(ParameterError, match="condition"):
            sample(gen, condition, count=2, seed=0)
    assert np.array_equal(sample(gen, np.float32(1), count=2, seed=0),
                          sample(gen, 1, count=2, seed=0))
