import os
import signal
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))

pytest_plugins = ["pytester"]

# A test that runs past this many seconds fails rather than hanging the
# suite; that is over ten times as long as the slowest test takes
TEST_SECONDS = 120


def _overran(signum, frame):
    pytest.fail(f"ran past {TEST_SECONDS} s", pytrace=False)


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    previous = signal.signal(signal.SIGALRM, _overran)
    signal.setitimer(signal.ITIMER_REAL, TEST_SECONDS)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
