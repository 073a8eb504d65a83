"""The suite's per-test time limit, set in conftest.py."""

from pathlib import Path

CONFTEST = Path(__file__).with_name("conftest.py")


def test_a_test_that_overruns_its_limit_fails(pytester):
    # the suite's own conftest, with the limit lowered to a fraction of a second
    pytester.makeconftest(CONFTEST.read_text(encoding="utf-8") + "\nTEST_SECONDS = 0.2\n")
    pytester.makepyfile("import time\n\n\ndef test_sleeps():\n    time.sleep(30)\n")
    # without hypothesis's plugin, which takes a second to load and is not used
    result = pytester.runpytest_subprocess("-p", "no:hypothesispytest")
    result.assert_outcomes(failed=1)
    result.stdout.fnmatch_lines(["*ran past 0.2 s*"])
