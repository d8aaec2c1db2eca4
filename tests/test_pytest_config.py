"""The repository's pytest settings let a run go on past a failing
property test: its failure is reported as a failure, and the tests after
it still run."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).parent.parent / "pyproject.toml"

PAIR = '''
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(database=None, derandomize=True, max_examples=5)
@given(st.integers())
def test_a_failing_property(n):
    assert n != n


def test_a_passing_test():
    pass
'''


def test_a_failing_property_test_does_not_stop_the_run(tmp_path):
    (tmp_path / "test_pair.py").write_text(PAIR, encoding="utf-8")
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-p", "no:cacheprovider", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), "-q", "test_pair.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    output = done.stdout + done.stderr
    assert "INTERNALERROR" not in output, output
    assert "1 failed, 1 passed" in output, output
