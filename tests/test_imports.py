"""Importing topogan, training, sampling and evaluating load no scipy
subpackage, FEM loads only scipy.linalg and scipy.sparse, no topogan module
imports a name it never uses, no private helper outlives its callers, no
public name serves only the tests, every exception class is raised, integers
and real-valued settings each have one rule, and every console script that
pyproject.toml declares resolves to a callable.

scipy.signal, scipy.ndimage and scipy.spatial each pull in much of scipy
(scipy.stats among it) and once made up most of the package's cold start;
scipy.linalg and scipy.sparse together still cost about half of it, so `fem`
imports them only at its first solve and its first filter. The scipy checks
follow one fresh interpreter through the stages: every topogan module
imported, then a tiny train, checkpoint reads, sampling and an evaluation
without re-analysis, then one re-analysis (a solve), then a short SIMP run
(solves and filters). Modules that other tests imported do not count, and
no time is measured. The unused-import check reads the
source with `ast`, so it needs no linter; it catches the imports a deletion
leaves behind. The dead-helper check reads it the same way: a top-level
`_name` function or class that no module of the package reads is dead,
unless bench/layers.py hooks it by name, as it hooks `fem:_pcg`, the tests'
CG reference. The unread-public-name check reads it the same way: a
top-level public function or class that nothing in `src/` or `bench/` reads
serves only the tests, unless it is the tests' gradient oracle
`autodiff.grad_check`. The exception check reads `exceptions.py` the same way: each
class that no other class derives from must be raised by name in some other
module, and no module may import a class from it that it does not define.
The integer-rule check reads the source the same way: `fem.check_int` is the one
rule for an integer a caller sets, so a `type(x) is int` test may stand only
in the two checkpoint parsers, which raise FormatError. The float-rule check
reads it the same way: `fem.check_float` is the one rule for a real-valued
setting, so a comparison against `np.inf` or `math.inf` (the mark of a
hand-written "finite and in range" check) may stand only inside it. The
objective check reads it the same way: `train.OBJECTIVES` is the one table of
objectives, so a string constant equal to an objective's name may stand only
in it. The unread-parameter check reads it the same way: a parameter of a
top-level function or method that its body never reads (`self` and `cls`
aside) is dead. Nested functions are exempt, as they take the signature of
the caller that calls them back, as `load_state`'s `state_arrays` takes
`load_checkpoint`'s.
"""
import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest
from test_bench_hooks import load_hooks

SRC = Path(__file__).resolve().parents[1] / "src"
BENCH = SRC.parent / "bench"

# prints the loaded module names after each stage, one line per stage
PROBE = """
import importlib, pkgutil, sys, tempfile
import numpy as np
import topogan
for info in pkgutil.iter_modules(topogan.__path__):
    importlib.import_module("topogan." + info.name)
from topogan import data, evaluate, fem, train

def stage():
    print(" ".join(sorted(sys.modules)), flush=True)

stage()
ds = data.synth_classes(2, 15, 8, seed=3)
config = train.TrainConfig(objective="crcgan-a", batch_size=10, steps=2, seed=5, z_dim=6,
                           gen_channels=(6, 4), disc_channels=(4, 6), feature_dim=8,
                           minibatch_kernels=4, minibatch_dim=3)
with tempfile.TemporaryDirectory() as out:
    ckpt = train.train(config, ds, out).checkpoint_path
    train.load_state(ckpt, ds, config)
    train.sample(train.generator_from_checkpoint(ckpt), 1, count=3, seed=7)
    evaluate.conditional_eval(ckpt, 1, count=3, tolerance=0.1, seed=7)
stage()
evaluate.reanalyze(np.full((4, 6), 0.5))
stage()
fem.run_simp(fem.MeshSpec(6, 4), fem.SimpParams(volfrac=0.5, max_iters=2))
stage()
"""


def public_scipy(loaded: list[str]) -> set[str]:
    """The public scipy subpackages among the module names `loaded`."""
    subs = {name.split(".")[1] for name in loaded if name.startswith("scipy.")}
    return {sub for sub in subs if not sub.startswith("_")} - {"version"}


@pytest.fixture(scope="module")
def loaded_by_stage() -> list[list[str]]:
    lines = subprocess.run(
        [sys.executable, "-c", PROBE], env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True, check=True,
    ).stdout.splitlines()
    assert len(lines) == 4
    return [line.split() for line in lines]


def test_importing_topogan_loads_no_scipy_subpackage(loaded_by_stage):
    loaded = loaded_by_stage[0]
    assert "topogan.fem" in loaded and "topogan.evaluate" in loaded
    assert public_scipy(loaded) == set()


def test_training_sampling_and_evaluating_load_no_scipy_subpackage(loaded_by_stage):
    assert public_scipy(loaded_by_stage[1]) == set()


def test_a_solve_loads_scipy_linalg_and_a_filter_scipy_sparse(loaded_by_stage):
    assert public_scipy(loaded_by_stage[2]) == {"linalg"}
    assert public_scipy(loaded_by_stage[3]) == {"linalg", "sparse"}


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


def read_names(trees) -> set[str]:
    """Every name the `ast` trees read, as a bare name or as an attribute."""
    read = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return read


def dead_private_helpers(sources: dict[str, str], hook_targets) -> list[str]:
    """`module._name` of each top-level private function or class of `sources`
    (module name -> source) that no module reads and no hook target wraps."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = read_names(trees.values())
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


def unread_public_names(sources: dict[str, str], readers: dict[str, str]) -> list[str]:
    """`module.name` of each top-level public function or class of `sources`
    (module name -> source) that no module of `sources` or `readers` reads."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = read_names([*trees.values(), *(ast.parse(source) for source in readers.values())])
    return sorted(
        f"{module}.{node.name}" for module, tree in trees.items() for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_") and node.name not in read)


# the tests' finite-difference oracle: no caller in src/ or bench/ needs it
TEST_ONLY_PUBLIC_NAMES = ["autodiff.grad_check"]


def test_unread_public_name_check_sees_a_test_only_name():
    # read by name, read as an attribute, read only by a reader, read by no one
    sources = {
        "fem": "def solve(K): pass\ndef energies(x): pass\nclass Mesh: pass\n"
               "def plan(): return Mesh()\ndef _helper(): pass\n",
        "autodiff": "def total(a): pass\ndef mean(a): pass\n",
        "evaluate": "from . import fem\nfem.solve(None)\n",
    }
    readers = {"workloads": "from topogan import autodiff\nautodiff.mean(0)\nplan()\n"}
    assert unread_public_names(sources, readers) == ["autodiff.total", "fem.energies"]


def test_topogan_has_no_public_name_only_tests_read():
    sources = {path.stem: path.read_text(encoding="utf-8")
               for path in sorted((SRC / "topogan").glob("*.py"))}
    readers = {f"bench.{path.stem}": path.read_text(encoding="utf-8")
               for path in sorted(BENCH.glob("*.py"))}
    assert unread_public_names(sources, readers) == TEST_ONLY_PUBLIC_NAMES


def int_type_checks(sources: dict[str, str]) -> list[str]:
    """`module.name` of the top-level function or class around each
    `type(...) is int` or `is not int` of `sources` (module name -> source),
    or `module` for one outside any."""
    found = []
    for module, source in sources.items():
        for top in ast.parse(source).body:
            owner = f"{module}.{top.name}" if hasattr(top, "name") else module
            found += [owner for node in ast.walk(top)
                      if isinstance(node, ast.Compare) and isinstance(node.left, ast.Call)
                      and isinstance(node.left.func, ast.Name) and node.left.func.id == "type"
                      and any(isinstance(op, (ast.Is, ast.IsNot))
                              and isinstance(c, ast.Name) and c.id == "int"
                              for op, c in zip(node.ops, node.comparators))]
    return sorted(found)


# checkpoint parsers: they read JSON and raise FormatError, so `check_int`'s
# ParameterError is not theirs to raise
INT_TYPE_CHECK_SITES = ["train.load_checkpoint", "train.load_state"]


def test_int_type_check_finder_sees_each_form():
    sources = {
        "nets": "def f(x):\n    if type(x) is not int:\n        pass\n"
                "def g(xs):\n    return all(type(d) is int for d in xs)\n"
                "def h(x):\n    return type(x) is float or isinstance(x, int)\n",
        "data": "ok = type(3) is int\n",
    }
    assert int_type_checks(sources) == ["data", "nets.f", "nets.g"]


def test_topogan_has_one_integer_rule():
    # every other integer a caller sets goes through fem.check_int
    sources = {path.stem: path.read_text(encoding="utf-8")
               for path in sorted((SRC / "topogan").glob("*.py"))}
    assert int_type_checks(sources) == INT_TYPE_CHECK_SITES


def _is_inf(node) -> bool:
    """`np.inf`, `numpy.inf` or `math.inf`, or its negation."""
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        node = node.operand
    return (isinstance(node, ast.Attribute) and node.attr == "inf"
            and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy", "math"))


def inf_comparisons(sources: dict[str, str]) -> list[str]:
    """`module.name` of the top-level function or class around each comparison
    against an infinity of numpy or math in `sources` (module name -> source),
    or `module` for one outside any."""
    found = []
    for module, source in sources.items():
        for top in ast.parse(source).body:
            owner = f"{module}.{top.name}" if hasattr(top, "name") else module
            found += [owner for node in ast.walk(top) if isinstance(node, ast.Compare)
                      and any(_is_inf(side) for side in [node.left, *node.comparators])]
    return sorted(found)


def test_inf_comparison_finder_sees_each_form():
    sources = {
        "fem": "import math\nimport numpy as np\n"
               "def f(x):\n    if not 0.0 < x < np.inf:\n        pass\n"
               "class P:\n    def check(self):\n        return self.lr >= math.inf\n"
               "def g(x):\n    return x == -numpy.inf\n"
               "def h(x):\n    return check_float('x', x, 0.0, math.inf) or x < inf\n",
        "train": "ok = 1.0 < np.inf\n",
    }
    assert inf_comparisons(sources) == ["fem.P", "fem.f", "fem.g", "train"]


def test_topogan_has_one_float_rule():
    # every other real-valued setting goes through fem.check_float
    sources = {path.stem: path.read_text(encoding="utf-8")
               for path in sorted((SRC / "topogan").glob("*.py"))}
    assert [owner for owner in inf_comparisons(sources) if owner != "fem.check_float"] == []


OBJECTIVE_NAMES = ("cgan", "crcgan-a", "crcgan-b")


def objective_name_sites(sources: dict[str, str]) -> list[str]:
    """`module.name` of the top-level function, class or assigned name around each
    string constant equal to an objective's name in `sources` (module name ->
    source), or `module` for one outside any."""
    found = []
    for module, source in sources.items():
        for top in ast.parse(source).body:
            targets = (top.targets if isinstance(top, ast.Assign)
                       else [top.target] if isinstance(top, ast.AnnAssign) else [])
            name = getattr(top, "name", None) or next(
                (t.id for t in targets if isinstance(t, ast.Name)), None)
            owner = f"{module}.{name}" if name else module
            found += [owner for node in ast.walk(top) if isinstance(node, ast.Constant)
                      and isinstance(node.value, str) and node.value in OBJECTIVE_NAMES]
    return sorted(found)


def test_objective_name_finder_sees_each_form():
    sources = {
        "train": 'OBJECTIVES = {"cgan": None, "crcgan-a": draw}\n'
                 'def step(cfg):\n    if cfg.objective == "crcgan-b":\n        pass\n'
                 'class Config:\n    objective: str = "cgan"\n',
        "objectives": 'NAMES: tuple = ("cgan",)\nlabel = "crcgan-a/b"\nprint("crcgan-a")\n',
    }
    assert objective_name_sites(sources) == [
        "objectives", "objectives.NAMES", "train.Config", "train.OBJECTIVES",
        "train.OBJECTIVES", "train.step"]


def test_topogan_names_each_objective_only_in_its_table():
    sources = {path.stem: path.read_text(encoding="utf-8")
               for path in sorted((SRC / "topogan").glob("*.py"))}
    assert objective_name_sites(sources) == ["train.OBJECTIVES"] * len(OBJECTIVE_NAMES)


def unread_parameters(sources: dict[str, str]) -> list[str]:
    """`module.name(param)` of each parameter of a top-level function or method
    of `sources` (module name -> source) that its body never reads; `self` and
    `cls` aside."""
    found = []
    for module, source in sources.items():
        tree = ast.parse(source)
        functions = [(top.name, top) for top in tree.body if isinstance(top, ast.FunctionDef)]
        functions += [(f"{top.name}.{node.name}", node) for top in tree.body
                      if isinstance(top, ast.ClassDef)
                      for node in top.body if isinstance(node, ast.FunctionDef)]
        for name, node in functions:
            args = node.args
            params = [*args.posonlyargs, *args.args, *args.kwonlyargs,
                      *filter(None, [args.vararg, args.kwarg])]
            read = {n.id for stmt in node.body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            found += [f"{module}.{name}({a.arg})" for a in params
                      if a.arg not in read and a.arg not in ("self", "cls")]
    return sorted(found)


def test_unread_parameter_check_sees_a_leftover_parameter():
    # read, read only by a closure, only assigned, a method's, a nested callback's
    sources = {
        "fem": "def energies(x, u, mesh):\n    return u @ mesh\n"
               "def solve(K, *, tol, **opts):\n    tol = 1\n"
               "    def step(r):\n        return K @ r\n    return step\n",
        "train": "class State:\n    def load(self, path, strict=True):\n        return path\n"
                 "    @classmethod\n    def fresh(cls):\n        return cls()\n"
                 "def load(path):\n    def arrays(header, shapes):\n        return header\n"
                 "    return arrays(path, None)\n",
    }
    assert unread_parameters(sources) == [
        "fem.energies(x)", "fem.solve(opts)", "fem.solve(tol)", "train.State.load(strict)"]


def test_topogan_reads_every_parameter_it_takes():
    sources = {path.stem: path.read_text(encoding="utf-8")
               for path in sorted((SRC / "topogan").glob("*.py"))}
    assert unread_parameters(sources) == []


EXCEPTIONS = ["ConstraintError", "DimensionError", "FormatError", "ParameterError",
              "SingularSystemError", "SolverError", "TopoganError", "TrainingAbort"]
# folded into ParameterError and DimensionError
REMOVED = ["ConsistencyError", "ContractError", "DomainError", "SpecError"]


def exception_report(sources: dict[str, str]) -> tuple[list[str], list[str], list[str]]:
    """(classes `exceptions` defines, those of its leaf classes that no other module
    raises by name, names other modules import from `.exceptions` that it lacks)."""
    classes = [node for node in ast.parse(sources["exceptions"]).body
               if isinstance(node, ast.ClassDef)]
    defined = {node.name for node in classes}
    bases = {base.id for node in classes for base in node.bases if isinstance(base, ast.Name)}
    raised, imported = set(), set()
    for module, source in sources.items():
        if module == "exceptions":
            continue
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    raised.add(exc.id)
            elif isinstance(node, ast.ImportFrom) and node.module == "exceptions":
                imported.update(alias.name for alias in node.names)
    return sorted(defined), sorted(defined - bases - raised), sorted(imported - defined)


def test_exception_check_sees_a_leftover_class():
    sources = {
        "exceptions": "class Base(Exception): pass\nclass Used(Base): pass\n"
                      "class Bare(Base): pass\nclass Leftover(Base): pass\n",
        "fem": "from .exceptions import Used, Gone\nraise Used('x')\n",
        "nets": "from .exceptions import Bare\ndef f():\n    raise Bare\n",
    }
    assert exception_report(sources) == (
        ["Bare", "Base", "Leftover", "Used"], ["Leftover"], ["Gone"])


def test_topogan_raises_each_of_its_exception_classes():
    sources = {path.stem: path.read_text(encoding="utf-8")
               for path in sorted((SRC / "topogan").glob("*.py"))}
    assert exception_report(sources) == (EXCEPTIONS, [], [])
    for module, source in sources.items():
        assert not [name for name in REMOVED if name in source], module


def unresolved_scripts(pyproject: str) -> list[str]:
    """`[project.scripts]` entries whose "module:attr" target fails to import or
    is not callable."""
    tomllib = pytest.importorskip("tomllib")   # Python >= 3.11
    bad = []
    for name, target in tomllib.loads(pyproject).get("project", {}).get("scripts", {}).items():
        module, _, attr = target.partition(":")
        try:
            obj = importlib.import_module(module)
            for part in attr.split("."):
                obj = getattr(obj, part)
        except (ImportError, AttributeError):
            bad.append(name)
            continue
        if not callable(obj):
            bad.append(name)
    return bad


def test_script_check_sees_a_missing_target():
    pyproject = """
[project.scripts]
missing = "topogan.cli:main"
absent = "topogan.fem:main"
value = "topogan.fem:X_MIN"
solve = "topogan.fem:run_simp"
"""
    assert unresolved_scripts(pyproject) == ["missing", "absent", "value"]


def test_declared_console_scripts_resolve():
    pyproject = (SRC.parent / "pyproject.toml").read_text(encoding="utf-8")
    assert unresolved_scripts(pyproject) == []
