"""Test set-up shared by every module: a per-test deadlock watchdog.

A deadlocked executor would otherwise hang the run until an outer time
limit, printing nothing. If a test is still running after
``WATCHDOG_SECONDS``, ``faulthandler`` writes every thread's stack to
standard error and exits the process with a failure status; the slowest
test takes a few seconds.
"""

import faulthandler
import os
import sys

import pytest

WATCHDOG_SECONDS = 60

_STDERR = pytest.StashKey[int]()


def pytest_configure(config):
    # a copy of the terminal's standard error, taken before any test output
    # is captured: exiting from the watchdog skips pytest's own report, so
    # the stacks must not go into a capture buffer
    config.stash[_STDERR] = os.dup(sys.stderr.fileno())


def pytest_unconfigure(config):
    os.close(config.stash[_STDERR])


@pytest.fixture(autouse=True)
def _watchdog(request):
    faulthandler.dump_traceback_later(
        WATCHDOG_SECONDS, exit=True, file=request.config.stash[_STDERR]
    )
    yield
    faulthandler.cancel_dump_traceback_later()
