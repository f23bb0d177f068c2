import tracemalloc

import pytest
from _acceptance_log import LINES
from hypothesis import settings

# property tests run the same examples on every run and have no per-example
# time limit and keep no example database, so a loaded host or an earlier
# run can neither fail them nor change what they check
settings.register_profile("igakron", deadline=None, derandomize=True, database=None)
settings.load_profile("igakron")


@pytest.fixture
def tracemalloc_peak():
    """Call ``fn(*args, **kwargs)`` under tracemalloc; return its peak in bytes."""

    def peak(fn, *args, **kwargs):
        tracemalloc.start()
        try:
            fn(*args, **kwargs)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    return peak


def pytest_terminal_summary(terminalreporter):
    if LINES:
        terminalreporter.section("acceptance criteria")
        for line in LINES:
            terminalreporter.write_line(line)
