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
