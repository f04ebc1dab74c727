import os
from pathlib import Path

import hypothesis
import pytest

import elastica

hypothesis.settings.register_profile(
    "numeric", deadline=None, max_examples=50, derandomize=True)
hypothesis.settings.load_profile("numeric")

# Acceptance criterion results collected by tests/test_acceptance.py; printed
# in the terminal summary so each criterion shows one PASS/FAIL line even
# under captured output.
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture
def subprocess_env():
    """Environment for a child interpreter that imports this checkout's
    elastica."""
    src = str(Path(elastica.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
