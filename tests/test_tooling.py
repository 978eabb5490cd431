import ast
import subprocess
import sys
from pathlib import Path

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
