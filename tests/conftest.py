import pytest
from hypothesis import settings

# CI runs with --hypothesis-profile=ci: every @given test draws the same
# examples on every run, and a failure prints the blob that reproduces it
settings.register_profile("ci", derandomize=True, print_blob=True)

_ACCEPTANCE_LINES = []


@pytest.fixture
def acceptance():
    """Recorder for one-line acceptance verdicts, echoed after the run."""
    return _ACCEPTANCE_LINES.append


def pytest_terminal_summary(terminalreporter):
    if _ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in _ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
