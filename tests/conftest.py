"""Shared test configuration.

Registers a seeded hypothesis profile (every randomized property runs at
least 100 cases, derandomized so CI is reproducible) and a session-wide
zeros directory for the tests that keep zero files.  Without a directory
zeros are kept in the in-process memo only, so no test writes under HOME,
and a test that needs a cold solve clears `polyexp._memo` itself.

When a property fails, Hypothesis's pytest plugin imports
`hypothesis.extra._patching`, whose libcst import warns through
`mypy_extensions.TypedDict`; under `filterwarnings = ["error"]` that
warning would be raised inside the plugin's hook and end the session with
an INTERNALERROR.  The module is imported here once with that one warning
ignored, so a failing property is reported as a failure; every other
warning stays an error.  Where libcst is not installed the import is
skipped, as the plugin skips it.
"""

import sys
import warnings

import pytest
from hypothesis import HealthCheck, settings

with warnings.catch_warnings():
    warnings.filterwarnings(
        "ignore", message="mypy_extensions.TypedDict is deprecated", category=DeprecationWarning
    )
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        # no libcst (it is not a test dependency): the plugin then skips
        # its patch report, so the failing import never happens in a hook
        pass

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
