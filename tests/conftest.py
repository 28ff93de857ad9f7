"""Shared test settings.

Hypothesis runs derandomized with a bounded example budget, so every
property test sees the same examples on every run and the suite stays
deterministic and fast.  No example database is written.
"""

import contextlib
import signal

import pytest
from hypothesis import settings

settings.register_profile("proxint", derandomize=True, database=None, max_examples=25, deadline=None)
settings.load_profile("proxint")


@pytest.fixture
def deadline():
    """Context manager that raises TimeoutError if its block runs past ``seconds``.

    Guards tests of calls that loop forever when broken: SIGALRM interrupts
    the Python-level loop, so the test fails instead of hanging the suite.
    """

    @contextlib.contextmanager
    def limit(seconds: float):
        def expire(signum, frame):
            raise TimeoutError(f"still running after {seconds:g} s")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.setitimer(signal.ITIMER_REAL, seconds)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    return limit
