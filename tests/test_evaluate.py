"""Volume-fraction measurement, FEM re-analysis, and checkpoint-driven evaluation."""
import numpy as np
import pytest

from topogan.data import Dataset, class_target_fraction, postprocess, synth_classes
from topogan.evaluate import conditional_eval, measure_volfrac, reanalyze
from topogan.exceptions import DimensionError, ParameterError
from topogan.fem import (
    BoundaryConditions,
    DensityField,
    MeshSpec,
    assemble_and_solve,
    compliance,
)
from topogan.train import TrainConfig, generator_from_checkpoint, sample, train


def tiny_config(objective):
    return TrainConfig(objective=objective, batch_size=10, steps=2, seed=5, z_dim=6,
                       gen_channels=(6, 4), disc_channels=(4, 6), feature_dim=8,
                       minibatch_kernels=4, minibatch_dim=3)


@pytest.fixture(scope="module")
def class_checkpoint(tmp_path_factory):
    ds = synth_classes(2, 15, 8, seed=3)
    return train(tiny_config("crcgan-a"), ds, tmp_path_factory.mktemp("cls")).checkpoint_path


@pytest.fixture(scope="module")
def continuous_checkpoint(tmp_path_factory):
    images = synth_classes(2, 15, 8, seed=4).images
    ds = Dataset(images, images.mean(axis=(1, 2)), kind="continuous")
    return train(tiny_config("crcgan-b"), ds, tmp_path_factory.mktemp("cont")).checkpoint_path


def test_measure_volfrac():
    assert measure_volfrac(np.full((3, 4), 0.25)) == 0.25
    image = np.zeros((4, 4))
    image[:2] = 1.0
    assert measure_volfrac(image) == 0.5
    with pytest.raises(DimensionError):
        measure_volfrac(np.zeros((2, 2, 2)))


def test_reanalyze_matches_fem_compliance_on_uniform_field():
    mesh = MeshSpec(nelx=6, nely=4)
    bc = BoundaryConditions.cantilever(mesh)
    for value, density in ((0.5, 0.5), (0.0, 1e-3)):   # 0 clips to x_min
        field = DensityField.uniform(mesh, density)
        u = assemble_and_solve(field, 3.0, mesh, bc)
        expected = compliance(field, u, 3.0, mesh)
        assert reanalyze(np.full((4, 6), value)) == pytest.approx(expected, rel=1e-12)
    with pytest.raises(DimensionError):
        reanalyze(np.zeros(6))


def test_conditional_eval_class_model(class_checkpoint):
    report = conditional_eval(class_checkpoint, 1, count=3, tolerance=0.1, seed=7)
    assert report.target == class_target_fraction(1, 2)
    assert report.objective == "crcgan-a"
    assert report.count == 3 and len(report.per_sample) == 3
    assert report.per_sample_compliance is None
    assert "per_sample_compliance" not in report.to_dict()
    gen, _ = generator_from_checkpoint(class_checkpoint)
    images = sample(gen, 1, count=3, seed=7)
    measured = [measure_volfrac(postprocess(img)) for img in images]
    assert report.per_sample == measured
    errs = np.abs(np.asarray(measured) - report.target)
    assert report.mean_abs_err == pytest.approx(errs.mean(), abs=1e-15)
    assert report.frac_within_tol == float((errs <= 0.1).mean())


def test_conditional_eval_continuous_model_with_reanalysis(continuous_checkpoint):
    report = conditional_eval(continuous_checkpoint, 0.4, count=2, tolerance=0.05, seed=1,
                              reanalyze_compliance=True)
    assert report.target == 0.4
    assert report.objective == "crcgan-b"
    assert len(report.per_sample_compliance) == 2
    assert all(np.isfinite(c) and c > 0 for c in report.per_sample_compliance)
    assert report.to_dict()["per_sample_compliance"] == report.per_sample_compliance
    plain = conditional_eval(continuous_checkpoint, 0.4, count=2, tolerance=0.05, seed=1)
    assert plain.per_sample_compliance is None
    assert plain.per_sample == report.per_sample


def test_conditional_eval_rejects_an_empty_count_or_a_bad_tolerance(class_checkpoint):
    # an empty evaluation has no error to average, and a NaN tolerance passes
    # no sample: both would read as a plain number rather than fail
    for count, tolerance in ((0, 0.1), (-1, 0.1), (3, np.nan), (3, -0.1), (3, np.inf)):
        with pytest.raises(ParameterError):
            conditional_eval(class_checkpoint, 1, count=count, tolerance=tolerance, seed=7)
