"""The peak memory of one call, as tracemalloc sees it, for the tests that
bound how a verb's memory grows."""

import tracemalloc


def traced_peak(run, *args, **kwargs):
    """(what run(*args, **kwargs) returns, the peak bytes traced while it ran)."""
    tracemalloc.start()
    try:
        return run(*args, **kwargs), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
