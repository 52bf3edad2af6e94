"""Shared test configuration.

Registers a seeded hypothesis profile (every randomized property runs at
least 100 cases, derandomized so CI is reproducible), a session-wide
zeros cache so the certified Newton zero solves happen once, and a
per-test default zeros directory so no test writes under ~/.cache.
"""

import sys

import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "trotterkit",
    max_examples=100,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
settings.load_profile("trotterkit")


@pytest.fixture(scope="session")
def zeros_cache(tmp_path_factory):
    return str(tmp_path_factory.mktemp("zeros"))


@pytest.fixture(autouse=True)
def hermetic_zeros_dir(tmp_path, monkeypatch):
    """Point the default zeros cache at a per-test directory, so no test
    writes under the user's home."""
    monkeypatch.setenv("TROTTERKIT_ZEROS_DIR", str(tmp_path / "zeros"))


def pytest_terminal_summary(terminalreporter):
    mod = sys.modules.get("tests.test_acceptance") or sys.modules.get("test_acceptance")
    lines = getattr(mod, "LINES", None)
    if not lines:
        return
    terminalreporter.section("acceptance criteria")
    for line in lines:
        terminalreporter.write_line(line)
