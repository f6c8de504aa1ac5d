"""Importing topogan loads no scipy subpackage beyond linalg and sparse, no
topogan module imports a name it never uses, and no private helper outlives
its callers.

scipy.signal, scipy.ndimage and scipy.spatial each pull in much of scipy
(scipy.stats among it) and once made up most of the package's cold start.
The check runs in a fresh interpreter, so modules that other tests imported
do not count, and it measures no time. The unused-import check reads the
source with `ast`, so it needs no linter; it catches the imports a deletion
leaves behind. The dead-helper check reads it the same way: a top-level
`_name` function or class that no module of the package reads is dead,
unless bench/layers.py hooks it by name, as it hooks `fem:_pcg`, the tests'
CG reference.
"""
import ast
import os
import subprocess
import sys
from pathlib import Path

from test_bench_hooks import load_hooks

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


def unused_imports(source: str) -> list[str]:
    """Names a module's imports bind that no other line of it reads."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in bound.items() if name not in used)


def test_unused_import_check_sees_a_leftover_name():
    assert unused_imports("import os\nfrom .x import A, B\nprint(A)\n") == [
        "B (line 2)", "os (line 1)"]


def test_topogan_modules_import_no_unused_name():
    for path in sorted((SRC / "topogan").glob("*.py")):
        assert unused_imports(path.read_text(encoding="utf-8")) == [], path.name


def dead_private_helpers(sources: dict[str, str], hook_targets) -> list[str]:
    """`module._name` of each top-level private function or class of `sources`
    (module name -> source) that no module reads and no hook target wraps."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    hooked = {target.partition(".")[0] for target in hook_targets}   # "module:Class.method" too
    return sorted(
        f"{module}.{node.name}" for module, tree in trees.items() for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_") and not node.name.startswith("__")
        and node.name not in read and f"{module}:{node.name}" not in hooked)


def test_dead_helper_check_sees_a_leftover_helper():
    # read by name, read as an attribute, hooked by name, hooked by a method
    sources = {
        "fem": "def _pcg(K): pass\ndef _dense_solve(K): pass\ndef _plan(): pass\n"
               "class _Band: pass\nclass _Span:\n    def run(self): pass\n"
               "class Mesh:\n    band = _Band\n",
        "evaluate": "from . import fem\nfem._plan()\n",
    }
    assert dead_private_helpers(sources, ["fem:_pcg", "fem:_Span.run"]) == ["fem._dense_solve"]


def test_topogan_has_no_dead_private_helper():
    sources = {path.stem: path.read_text(encoding="utf-8")
               for path in sorted((SRC / "topogan").glob("*.py"))}
    assert dead_private_helpers(sources, load_hooks()) == []
