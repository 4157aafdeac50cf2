import signal
import sys
from pathlib import Path

import pytest

try:
    import hassett  # noqa: F401
except ImportError:
    sys.path.insert(0, str(Path(__file__).resolve().parent / "src"))

# Wall-clock limit of one test's call phase.  The slowest test takes under
# 2 s, so a test that runs this long is looping, and it fails rather than
# hang the suite.  Skipped where the platform has no SIGALRM.
TEST_TIME_LIMIT_S = 30

if hasattr(signal, "SIGALRM"):

    @pytest.hookimpl(hookwrapper=True)
    def pytest_runtest_call(item):
        def expire(signum, frame):
            pytest.fail(f"{item.nodeid} ran past the {TEST_TIME_LIMIT_S} s limit", pytrace=False)

        previous = signal.signal(signal.SIGALRM, expire)
        signal.setitimer(signal.ITIMER_REAL, TEST_TIME_LIMIT_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
