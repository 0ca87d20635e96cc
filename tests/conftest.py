import tracemalloc

import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "default",
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")


@pytest.fixture
def traced_peak():
    """peak(fn) calls fn() and returns the most memory, in bytes, that
    tracemalloc saw allocated during the call beyond what was held before."""

    def peak(fn):
        outer = tracemalloc.is_tracing()
        if not outer:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            held = tracemalloc.get_traced_memory()[0]
            fn()
            return tracemalloc.get_traced_memory()[1] - held
        finally:
            if not outer:
                tracemalloc.stop()

    return peak
