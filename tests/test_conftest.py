"""The shared test configuration keeps a failing property a plain failure."""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

PROPERTY = """\
import hypothesis
from hypothesis import strategies as st


@hypothesis.given(st.integers(min_value=0))
def test_fails(n):
    assert n < 0
"""


def test_a_failing_property_is_reported_not_an_internal_error(tmp_path):
    # with every warning an error, Hypothesis's failure report imports
    # libcst, whose import warns; the conftest keeps that one warning from
    # ending the session with an INTERNALERROR (exit status 3); without
    # libcst the plugin makes no patch report and the case cannot arise
    pytest.importorskip("libcst")
    shutil.copy(Path(__file__).with_name("conftest.py"), tmp_path)
    (tmp_path / "pytest.ini").write_text("[pytest]\nfilterwarnings =\n    error\n")
    (tmp_path / "test_property.py").write_text(PROPERTY)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", str(tmp_path)],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 1, run.stdout + run.stderr
    assert "1 failed" in run.stdout
    assert "INTERNALERROR" not in run.stdout + run.stderr
