"""Run a call on a very deep structure, failing fast if it recurses too far,
and build such structures without paying the cyclic collector."""

import gc
from contextlib import contextmanager

import pytest


def deep(fn, *args):
    """fn(*args); a RecursionError fails the test at once, without its traceback.

    pytest would otherwise spend minutes formatting the thousands of frames
    of the error, each with the repr of a deep argument. The failure is
    raised outside the except block, so the error is not chained to it.
    """
    try:
        return fn(*args)
    except RecursionError as exc:
        message = f"{getattr(fn, '__name__', fn)} hit the recursion limit: {exc}"
    pytest.fail(message, pytrace=False)


@contextmanager
def collector_paused():
    """Pause the cyclic collector while a test builds a deep structure.

    The builders make trees, which hold no cycles, yet at 10^5 nodes most
    of their time goes to collections that find nothing. The collector runs
    again on leaving, if it ran on entering, so the calls under test run
    with it as they do in use.
    """
    was = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was:
            gc.enable()
