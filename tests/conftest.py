"""Helpers shared by the test modules."""

import tracemalloc

import pytest


def _traced_peak(fn):
    """Peak traced allocation of fn() above what was allocated before it;
    fn runs once untraced first, so lazy caches are already built."""
    fn()
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        if not was_tracing:
            tracemalloc.stop()


@pytest.fixture
def traced_peak():
    """The memory gates' measure: traced_peak(fn) is the peak traced
    allocation of a second call of fn above the allocations before it."""
    return _traced_peak
