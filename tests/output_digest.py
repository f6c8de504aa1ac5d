"""Print one sha256 per stage of topogan's outputs, to compare two source trees.

    python tests/output_digest.py          # every stage
    python tests/output_digest.py --toy    # all but simp-full, in a few seconds

Run it in each tree and compare the lines: two trees whose digest of a stage
is equal give that stage bit-identical outputs. Run as a script, it pins BLAS
to one thread unless the environment already sets it, as a threaded GEMM may
sum in another order.

    simp-full   final density, compliance history and change history of
    simp-toy    every design bench/reference.json lists at that size
    augment     augment_dataset of the toy sweep workload's designs
    checkpoint  the final checkpoint's bytes of a 3-step crcgan-a run on
                8x8 class data
    metrics     that run's metrics records, less wall_ms
    sample      train.sample from that run's generator
    continuous  crcgan-a and crcgan-b, 3 steps each at batch 4, on the
                augmented 16x8 sweep of 2 volfracs after a TOPD round trip:
                each run's checkpoint bytes, its metrics less wall_ms, and
                its conditional_eval report with reanalysis, less the
                checkpoint path
    cgan        a 3-step cgan run with minibatch discrimination off, on the
                checkpoint stage's data: its checkpoint bytes, its metrics
                less wall_ms, and a sample from its generator

pytest does not collect this file; test_output_digest.py runs its toy stages.
"""
from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import re
import sys
import tempfile
from pathlib import Path

if __name__ == "__main__":   # before numpy loads; an import leaves the environment alone
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "BLIS_NUM_THREADS"):
        os.environ.setdefault(_var, "1")

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from topogan import data, evaluate, fem, train  # noqa: E402

REFERENCE_PATH = ROOT / "bench" / "reference.json"
DESIGN_KEY = re.compile(r"(\d+)x(\d+)/v([\d.]+)/p([\d.]+)/r([\d.]+)")


def _f64(values) -> bytes:
    return np.ascontiguousarray(values, dtype="<f8").tobytes()


def simp_digest(size: str) -> str:
    """Every reference design of `size`, in key order."""
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        keys = sorted(json.load(fh)[size]["designs"])
    sha = hashlib.sha256()
    for key in keys:
        nelx, nely, volfrac, penal, rmin = DESIGN_KEY.fullmatch(key).groups()
        result = fem.run_simp(fem.MeshSpec(int(nelx), int(nely)),
                              fem.SimpParams(float(volfrac), float(penal), float(rmin)))
        sha.update(key.encode())
        for values in (result.density.values, result.compliance_history,
                       result.change_history):
            sha.update(_f64(values))
    return sha.hexdigest()


def augment_digest() -> str:
    grid = data.SweepGrid(volfracs=(0.4, 0.5), penals=(3.0,), rmins=(1.5,),
                          mesh=fem.MeshSpec(16, 6))
    augmented = data.augment_dataset(data.sweep_generate(grid), seed=0)
    return hashlib.sha256(augmented.records.tobytes()).hexdigest()


def _toy_config(objective: str, batch_size: int) -> train.TrainConfig:
    return train.TrainConfig(
        objective=objective, steps=3, batch_size=batch_size, seed=0, z_dim=8,
        gen_channels=(8, 4), disc_channels=(4, 8), feature_dim=8,
        minibatch_kernels=4, minibatch_dim=2)


def _metrics_bytes(path) -> bytes:
    records = [{k: v for k, v in r.items() if k != "wall_ms"} for r in train.read_metrics(path)]
    return json.dumps(records).encode()


def training_digests() -> dict[str, str]:
    config = _toy_config("crcgan-a", batch_size=6)
    with tempfile.TemporaryDirectory() as tmp:
        outcome = train.train(config, data.synth_classes(3, 4, 8, seed=0), tmp)
        checkpoint = Path(outcome.checkpoint_path).read_bytes()
        metrics = _metrics_bytes(outcome.metrics_path)
        gen = train.generator_from_checkpoint(outcome.checkpoint_path)
    images = train.sample(gen, 1, 4, seed=0)
    return {"checkpoint": hashlib.sha256(checkpoint).hexdigest(),
            "metrics": hashlib.sha256(metrics).hexdigest(),
            "sample": hashlib.sha256(_f64(images)).hexdigest()}


def cgan_digest() -> str:
    config = dataclasses.replace(_toy_config("cgan", batch_size=6),
                                 minibatch_discrimination=False)
    sha = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        outcome = train.train(config, data.synth_classes(3, 4, 8, seed=0), tmp)
        sha.update(Path(outcome.checkpoint_path).read_bytes())
        sha.update(_metrics_bytes(outcome.metrics_path))
        gen = train.generator_from_checkpoint(outcome.checkpoint_path)
    sha.update(_f64(train.sample(gen, 1, 4, seed=0)))
    return sha.hexdigest()


def continuous_digest() -> str:
    grid = data.SweepGrid(volfracs=(0.4, 0.5), penals=(3.0,), rmins=(1.5,),
                          mesh=fem.MeshSpec(16, 8))
    sha = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "sweep.topd"
        data.write_dataset(data.augment_dataset(data.sweep_generate(grid), seed=0), path)
        dataset = data.read_dataset(path)
        for objective in ("crcgan-a", "crcgan-b"):
            outcome = train.train(_toy_config(objective, batch_size=4), dataset,
                                  Path(tmp) / objective)
            report = evaluate.conditional_eval(outcome.checkpoint_path, 0.45, count=2,
                                               tolerance=0.05, seed=0,
                                               reanalyze_compliance=True).to_dict()
            del report["checkpoint"]
            sha.update(Path(outcome.checkpoint_path).read_bytes())
            sha.update(_metrics_bytes(outcome.metrics_path))
            sha.update(json.dumps(report).encode())
    return sha.hexdigest()


def digests(full: bool) -> dict[str, str]:
    """Stage name -> sha256 hex digest; simp-full only when `full`."""
    out = {"simp-full": simp_digest("full")} if full else {}
    out["simp-toy"] = simp_digest("toy")
    out["augment"] = augment_digest()
    out.update(training_digests())
    out["continuous"] = continuous_digest()
    out["cgan"] = cgan_digest()
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--toy", action="store_true", help="leave out the simp-full stage")
    args = p.parse_args(argv)
    for stage, digest in digests(full=not args.toy).items():
        print(f"{stage:<11} {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
