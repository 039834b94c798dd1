"""Shared fixtures for the test suite."""

import contextlib
import signal

import numpy as np
import pytest


@pytest.fixture
def rng():
    """Deterministic RNG for reproducible tests."""
    return np.random.default_rng(12345)


@pytest.fixture
def small_matrix(rng):
    """A 32×32 dense matrix."""
    return rng.standard_normal((32, 32))


@pytest.fixture
def small_vectors(rng):
    """A pair of length-64 vectors."""
    return rng.standard_normal(64), rng.standard_normal(64)


@pytest.fixture
def deadline():
    """``with deadline(seconds):`` raises :class:`TimeoutError` in a
    block still running after ``seconds``, so a loop that never ends
    fails its test instead of hanging the suite (SIGALRM: the main
    thread of a POSIX process)."""

    @contextlib.contextmanager
    def limit(seconds):
        def expire(signum, frame):
            raise TimeoutError(f"still running after {seconds} s")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.setitimer(signal.ITIMER_REAL, seconds)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    return limit
