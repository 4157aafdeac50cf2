import signal
import sys
from pathlib import Path

import pytest

try:
    import hassett  # noqa: F401
except ImportError:
    sys.path.insert(0, str(Path(__file__).resolve().parent / "src"))

# Wall-clock limit of each phase of one test: set-up, call and teardown.
# The slowest test takes under 2 s, so a phase that runs this long is
# looping, and the test fails rather than hang the suite.  Skipped where the
# platform has no SIGALRM.  A hang at collection is not covered.
TEST_TIME_LIMIT_S = 30

if hasattr(signal, "SIGALRM"):

    def _time_limited(item, phase):
        def expire(signum, frame):
            pytest.fail(
                f"{item.nodeid} {phase} ran past the {TEST_TIME_LIMIT_S} s limit", pytrace=False
            )

        previous = signal.signal(signal.SIGALRM, expire)
        signal.setitimer(signal.ITIMER_REAL, TEST_TIME_LIMIT_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    @pytest.hookimpl(hookwrapper=True)
    def pytest_runtest_setup(item):
        yield from _time_limited(item, "setup")

    @pytest.hookimpl(hookwrapper=True)
    def pytest_runtest_call(item):
        yield from _time_limited(item, "call")

    @pytest.hookimpl(hookwrapper=True)
    def pytest_runtest_teardown(item):
        yield from _time_limited(item, "teardown")
