import os

import pytest

# The extended tier: heavier rows of the acceptance criteria and the
# largest pinned cells.  Off unless OSEQ_ACCEPTANCE_EXTENDED=1.
EXTENDED = os.environ.get("OSEQ_ACCEPTANCE_EXTENDED") == "1"

_ACCEPTANCE_RESULTS = []


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "extended: runs only when OSEQ_ACCEPTANCE_EXTENDED=1")


def pytest_collection_modifyitems(config, items):
    if EXTENDED:
        return
    skip = pytest.mark.skip(reason="set OSEQ_ACCEPTANCE_EXTENDED=1 to run")
    for item in items:
        if "extended" in item.keywords:
            item.add_marker(skip)


@pytest.fixture
def extended():
    """Whether the extended tier is on."""
    return EXTENDED


@pytest.fixture
def acceptance_recorder():
    def record(number, ok, elapsed, note=""):
        _ACCEPTANCE_RESULTS.append((number, ok, elapsed, note))
    return record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for number, ok, elapsed, note in sorted(_ACCEPTANCE_RESULTS):
        status = "PASS" if ok else "FAIL"
        line = f"[criterion {number:2d}] {status} ({elapsed:.2f}s)"
        if note:
            line += f" -- {note}"
        terminalreporter.write_line(line)
