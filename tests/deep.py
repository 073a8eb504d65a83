"""Run a call on a very deep structure, failing fast if it recurses too far."""

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
