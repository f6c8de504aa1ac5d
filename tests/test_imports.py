"""Importing topogan loads no scipy subpackage beyond linalg and sparse.

scipy.signal, scipy.ndimage and scipy.spatial each pull in much of scipy
(scipy.stats among it) and once made up most of the package's cold start.
The check runs in a fresh interpreter, so modules that other tests imported
do not count, and it measures no time.
"""
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

PROBE = """
import importlib, pkgutil, sys
import topogan
for info in pkgutil.iter_modules(topogan.__path__):
    importlib.import_module("topogan." + info.name)
print(" ".join(sorted(sys.modules)))
"""


def test_topogan_imports_only_scipy_linalg_and_sparse():
    loaded = subprocess.run(
        [sys.executable, "-c", PROBE], env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True, check=True,
    ).stdout.split()
    assert "topogan.fem" in loaded and "topogan.evaluate" in loaded
    public = {name.split(".")[1] for name in loaded if name.startswith("scipy.")}
    public = {sub for sub in public if not sub.startswith("_")} - {"version"}
    assert public == {"linalg", "sparse"}
