"""Shared test settings.

Hypothesis runs derandomized with a bounded example budget, so every
property test sees the same examples on every run and the suite stays
deterministic and fast.  No example database is written.
"""

import contextlib
import signal
import tracemalloc

import numpy as np
import pytest
from hypothesis import settings

from proxint import (
    HeightDistribution,
    convolve,
    dome_distribution,
    pyramid_distribution,
    sphere_distribution,
    to_sampled,
    truncated_gaussian_distribution,
)

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


def traced_peak(fn) -> int:
    """Peak bytes tracemalloc sees allocated while ``fn()`` runs.

    One untraced call first loads every module and cache that ``fn`` uses,
    so the traced call counts only its own arrays and objects."""
    fn()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


DEEP_STACK_LAYERS = [dome_distribution(h) for h in (4000.0, 2000.0, 1000.0, 500.0, 250.0)] + [
    pyramid_distribution(100.0, 1.0, per_unit_area=True)
]


@pytest.fixture(scope="session")
def deep_stack():
    """sphere 1e5 (*) domes 4000/2000/1000/500/250 (*) pyramid 100: 127 segments, degree 13."""
    f = sphere_distribution(1e5)
    for layer in DEEP_STACK_LAYERS:
        f = convolve(f, layer)
    assert f.coeffs.shape == (127, 14)
    return f


def rows(f: HeightDistribution) -> list[tuple[float, float, tuple[float, ...]]]:
    """(lo, hi, coefficients up to the last nonzero one) of each row of an
    analytic f, read from its breaks and coeffs arrays."""
    out = []
    for lo, hi, row in zip(f.breaks[:-1].tolist(), f.breaks[1:].tolist(), f.coeffs.tolist()):
        last = max((k for k, c in enumerate(row) if c != 0.0), default=0)
        out.append((lo, hi, tuple(row[: last + 1])))
    return out


def sampled_rough(sigma: float, s0: float, per_sigma: int = 32) -> HeightDistribution:
    """Gaussian roughness as measured data: the density at nodes sigma/per_sigma
    apart from s = 0 past s0 + 8 sigma, scaled to unit trapezoid area.  The
    sampled operand of the fold and of the factored analytic (*) sampled form."""
    f = to_sampled(truncated_gaussian_distribution(sigma, s0), bin_width=sigma / per_sigma)
    v = np.asarray(f.values)
    return HeightDistribution.sampled(f.bin_width, v / np.trapezoid(v, dx=f.bin_width), unit_area_normalized=True)
