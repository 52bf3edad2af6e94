"""Shared test configuration.

Registers a seeded hypothesis profile (every randomized property runs at
least 100 cases, derandomized so CI is reproducible) and a session-wide
zeros directory for the tests that keep zero files.  Without a directory
zeros are kept in the in-process memo only, so no test writes under HOME,
and a test that needs a cold solve clears `polyexp._memo` itself.
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


def pytest_terminal_summary(terminalreporter):
    mod = sys.modules.get("tests.test_acceptance") or sys.modules.get("test_acceptance")
    lines = getattr(mod, "LINES", None)
    if not lines:
        return
    terminalreporter.section("acceptance criteria")
    for line in lines:
        terminalreporter.write_line(line)
