"""Training loop determinism, checkpoint persistence, and metric contracts."""
import contextlib
import json
import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from topogan import train as train_module
from topogan.data import synth_classes
from topogan.exceptions import ConsistencyError, ContractError, FormatError, ParameterError
from topogan.train import (
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
    with pytest.raises(ContractError):
        diversity_metric(np.zeros((1, 4, 4)))


# ---------------------------------------------------------------------------
# config validation and epoch ordering

def test_config_validation():
    with pytest.raises(ParameterError):
        TrainConfig(objective="cgan", steps=10, iterations=2)
    with pytest.raises(ParameterError):
        TrainConfig(objective="cgan")
    with pytest.raises(ParameterError):
        TrainConfig(objective="cgan", steps=10, batch_size=1,
                    minibatch_discrimination=True)


def test_resolve_steps_iteration_semantics():
    cfg = TrainConfig(objective="cgan", iterations=2, batch_size=100)
    total, spi = cfg.resolve_steps(50_000)
    assert spi == 500 and total == 1000


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


def test_training_step_requires_full_batch(tiny_dataset):
    cfg = desk_config(steps=1)
    state = init_state(cfg, tiny_dataset)
    with pytest.raises(ContractError):
        training_step(state, tiny_dataset.images[:7], tiny_dataset.conditions[:7])


def test_metrics_mismatch_group_presence(tiny_dataset):
    for objective, present in (("crcgan-a", True), ("cgan", False), ("gan", False)):
        cfg = desk_config(objective=objective, steps=1)
        state = init_state(cfg, tiny_dataset)
        rec = training_step(state, tiny_dataset.images[:10], tiny_dataset.conditions[:10])
        assert (rec["mean_score_mismatch"] is not None) == present


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


@pytest.mark.parametrize("header", [
    b"\xff\xfe{", b"{not json", b"[1, 2]", b'{"step": 1}', b'{"tensors": [["x", [-1]]]}',
    b'{"tensors": [["x", [2, 2]]]}', b'{"tensors": [[3, []]]}', b"[" * 100_000,
])
def test_checkpoint_malformed_header_is_format_error(tmp_path, header):
    prefix = struct.pack("<4sII", b"CRCG", 2, len(header))
    path = tmp_path / "h.ckpt"
    path.write_bytes(seal(prefix + header + b"\0\0\0\0"))
    with pytest.raises(FormatError):
        load_checkpoint(path)


def test_checkpoint_header_without_a_run_is_format_error(tmp_path):
    path = tmp_path / "h.ckpt"
    save_checkpoint(path, {"step": 1, "config": {"objective": "wgan"}}, {})
    with pytest.raises(FormatError):
        generator_from_checkpoint(path)


def test_checkpoint_write_is_atomic(tmp_path, monkeypatch):
    path = tmp_path / "a.ckpt"
    save_checkpoint(path, {"step": 1}, {"x": np.ones(3)})
    before = path.read_bytes()

    def fail(fd):
        raise OSError("disk full")

    monkeypatch.setattr(train_module.os, "fsync", fail)
    with pytest.raises(OSError):
        save_checkpoint(path, {"step": 2}, {"x": np.zeros(3)})
    assert path.read_bytes() == before


def test_load_state_rejects_other_dataset(tiny_dataset, tmp_path):
    cfg = desk_config(steps=1)
    path = tmp_path / "s.ckpt"
    write_state(init_state(cfg, tiny_dataset), path)
    with pytest.raises(ConsistencyError):
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
    gen, config = generator_from_checkpoint(outcome.checkpoint_path)
    assert config == desk_config(steps=2)
    a = sample(gen, 0, count=5, seed=11)
    b = sample(gen, 0, count=5, seed=11)
    c = sample(gen, 0, count=5, seed=12)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert a.shape == (5, 8, 8)
    assert a.min() >= 0.0 and a.max() <= 1.0


def test_sample_count_zero(tiny_dataset, tmp_path):
    outcome = train(desk_config(steps=1), tiny_dataset, tmp_path / "run")
    gen, _ = generator_from_checkpoint(outcome.checkpoint_path)
    out = sample(gen, 1, count=0, seed=0)
    assert out.shape == (0, 8, 8)


def test_sample_condition_domain_error(tiny_dataset, tmp_path):
    from topogan.exceptions import DomainError
    outcome = train(desk_config(steps=1), tiny_dataset, tmp_path / "run")
    gen, _ = generator_from_checkpoint(outcome.checkpoint_path)
    with pytest.raises(DomainError):
        sample(gen, 5, count=2, seed=0)
