"""The benchmark's per-layer hooks name entry points that exist in topogan.

`bench/layers.py` wraps each `module:function` or `module:Class.method` in
HOOKS by name; a target that no longer resolves only warns at run time and
silently drops its per-layer metrics, so a rename must fail here instead.
"""
import importlib
import importlib.util
from pathlib import Path

import pytest

LAYERS = Path(__file__).resolve().parents[1] / "bench" / "layers.py"


def load_hooks() -> dict:
    spec = importlib.util.spec_from_file_location("bench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.HOOKS


@pytest.mark.parametrize("target", sorted(load_hooks()))
def test_bench_hook_target_resolves(target):
    module_name, _, attr_path = target.partition(":")
    owner = importlib.import_module(f"topogan.{module_name}")
    for part in attr_path.split("."):
        assert hasattr(owner, part), f"{target}: {part} not found"
        owner = getattr(owner, part)
    assert callable(owner), target
