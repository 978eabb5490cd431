import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

FAILING_PROPERTY = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0
"""


def test_failing_property_test_is_reported_as_a_failure(tmp_path):
    # on failure hypothesis imports libcst, which warns through
    # mypy_extensions; under the suite's warning filters that must not stop
    # the run with an internal error (exit 3)
    (tmp_path / "test_prop.py").write_text(FAILING_PROPERTY)
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path), "test_prop.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 1, done.stdout + done.stderr
    assert "Falsifying example" in done.stdout


def test_library_code_never_calls_print():
    # library code reports through logging; only the command line prints
    calls = []
    for path in sorted((ROOT / "src" / "hrgen").glob("*.py")):
        if path.name == "cli.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "print"
            ):
                calls.append(f"{path.name}:{node.lineno}")
    assert not calls, f"print called in library code: {calls}"


BLAS_CALLS = {"dot", "matmul", "vdot", "inner", "einsum", "tensordot"}


def blas_uses(tree):
    """(line, what) of each `@`, call of a BLAS-backed numpy routine, or use
    of `linalg` in a parsed module."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            yield node.lineno, "@"
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
            if name in BLAS_CALLS:
                yield node.lineno, name
        elif isinstance(node, ast.Attribute) and node.attr == "linalg":
            yield node.lineno, "linalg"
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [getattr(node, "module", None) or ""]
            names += [alias.name for alias in node.names]
            for name in names:
                if set(name.split(".")) & (BLAS_CALLS | {"linalg"}):
                    yield node.lineno, f"import {name}"


def test_blas_scan_finds_every_form():
    source = (
        "import numpy.linalg\nfrom numpy import dot\n"
        "a @ b\na @= b\nnp.einsum('i,i', a, b)\ninner(a, b)\nnp.linalg.norm(a)\n"
        "inner = 1.0\n"
    )
    found = [what for _, what in blas_uses(ast.parse(source))]
    assert sorted(found) == sorted(
        ["import numpy.linalg", "import dot", "@", "@", "einsum", "inner", "linalg"]
    )


def test_library_code_calls_no_blas_routine():
    # results must not depend on BLAS or its thread count, and the command
    # line starts OpenBLAS with one thread (see hrgen.cli)
    uses = []
    for path in sorted((ROOT / "src" / "hrgen").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        uses += [f"{path.name}:{line} {what}" for line, what in blas_uses(tree)]
    assert not uses, f"BLAS used in library code: {uses}"


def run_python(script, **env):
    """Runs `script` in a fresh interpreter with hrgen on the path; its stdout."""
    full_env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    full_env.pop("OPENBLAS_NUM_THREADS", None)
    full_env.update(env)
    done = subprocess.run([sys.executable, "-c", script], env=full_env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_package_import_loads_no_numpy():
    out = run_python(
        "import sys, hrgen\n"
        "print('numpy' in sys.modules)\n"
        "from hrgen import *\n"
        "print(all(globals()[name] is getattr(hrgen, name) for name in hrgen.__all__))\n"
    )
    assert out.split() == ["False", "True"]


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="needs /proc")
def test_cli_starts_numpy_with_one_thread():
    out = run_python(
        "import os\n"
        "from hrgen.cli import main\n"
        "print(len(os.listdir('/proc/self/task')), os.environ['OPENBLAS_NUM_THREADS'])\n"
    )
    assert out.split() == ["1", "1"]


def test_cli_keeps_the_blas_threads_the_user_set():
    out = run_python(
        "import os\n"
        "from hrgen.cli import main\n"
        "print(os.environ['OPENBLAS_NUM_THREADS'])\n",
        OPENBLAS_NUM_THREADS="2",
    )
    assert out.split() == ["2"]


def unreferenced_members(class_tree, class_name, trees):
    """Non-underscore methods, properties and dataclass fields of
    `class_name` in a parsed module that no attribute read in the parsed
    `trees` names."""
    [cls] = [node for node in ast.walk(class_tree)
             if isinstance(node, ast.ClassDef) and node.name == class_name]
    members = {node.name for node in cls.body
               if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")}
    members |= {node.target.id for node in cls.body
                if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)
                and not node.target.id.startswith("_")}
    used = {node.attr for tree in trees for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    return members - used


def test_member_scan_counts_attribute_uses_only():
    source = (
        "class A:\n    x: int\n    y: int = 0\n    z: int\n    _w: int\n"
        "    def f(self): pass\n    @property\n    def g(self): pass\n"
        "    @classmethod\n    def h(cls): pass\n    def _i(self): pass\n"
        "A().g\nA.h()\nf = 1\nA(z=1).x\nA().y = 2\n"
    )
    tree = ast.parse(source)
    assert unreferenced_members(tree, "A", [tree]) == {"f", "y", "z"}


@pytest.mark.parametrize(
    "module, class_name",
    [
        ("graph", "Graph"),
        ("quadtree", "PolarQuadtree"),
        ("generator", "GeneratorParams"),
        ("generator", "VertexCoordinates"),
        ("generator", "GenerationStats"),
        ("graphio", "EdgeListHeader"),
    ],
)
def test_public_members_have_callers_outside_the_tests(module, class_name):
    # a method that only the tests call belongs in tests/helpers.py, and a
    # field that nothing reads is to be deleted; `AnalysisReport` is left out,
    # as `dataclasses.fields` reads all of its fields at once
    paths = sorted((ROOT / "src" / "hrgen").glob("*.py"))
    paths += [p for p in sorted((ROOT / "perfbench").glob("*.py"))
              if not p.name.startswith("test_")]
    trees = [ast.parse(path.read_text(), filename=str(path)) for path in paths]
    defining = ast.parse((ROOT / "src" / "hrgen" / f"{module}.py").read_text())
    assert not unreferenced_members(defining, class_name, trees)
