"""Regenerate bench/reference.json from the code under src/.

    python3 bench/make_refs.py

Records, for every size in workloads.SIZES: the SIMP iteration count,
convergence flag and final compliance of every design a sweep or pipeline
task can request (each sweep volfrac with each shift a seed may draw), and
the final training losses of the train workload at the default seed 0.
Run it only when a change to the program is meant to change these results,
and say so in the change.
"""
from __future__ import annotations

import json
import tempfile
from itertools import product
from pathlib import Path

from workloads import REFERENCE_PATH, SIZES, VOLFRAC_SHIFTS, Train

import layers
from topogan import fem, train


def design(nelx: int, nely: int, volfrac: float, penal: float, rmin: float):
    result = fem.run_simp(fem.MeshSpec(nelx=nelx, nely=nely),
                          fem.SimpParams(volfrac=volfrac, penal=penal, rmin=rmin))
    key = layers.design_key(nelx, nely, volfrac, penal, rmin)
    return key, {"iterations": result.iterations, "converged": bool(result.converged),
                 "compliance": result.compliance_history[-1]}


def reference_for(size) -> dict:
    designs = {}
    nelx, nely = size.sweep_mesh
    volfracs = sorted({round(v + s, 2) for v in size.sweep_volfracs for s in VOLFRAC_SHIFTS})
    for v, r in product(volfracs, size.sweep_rmins):
        key, value = design(nelx, nely, v, size.penal, r)
        designs[key] = value
        print(key, value, flush=True)
    for v, r in product(size.pipe_volfracs, size.pipe_rmins):
        key, value = design(size.pipe_mesh, size.pipe_mesh, v, size.penal, r)
        designs[key] = value
        print(key, value, flush=True)
    with tempfile.TemporaryDirectory() as tmp:
        ds, config = Train(size, 0, {}, Path(tmp)).inputs(0)
        outcome = train.train(config, ds, Path(tmp) / "train")
        last = train.read_metrics(outcome.metrics_path)[-1]
    return {"designs": designs,
            "train": {"seed": config.seed, "steps": config.steps,
                      "d_loss": last["d_loss"], "g_loss": last["g_loss"]}}


def main() -> None:
    refs = {name: reference_for(size) for name, size in SIZES.items()}
    REFERENCE_PATH.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n",
                              encoding="utf-8")
    print(f"wrote {REFERENCE_PATH}")


if __name__ == "__main__":
    main()
