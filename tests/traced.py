"""Peak memory of one call as tracemalloc traces it: the helper behind the memory pins."""

import tracemalloc


def traced_call(f, *args, **kwargs):
    """(f(*args, **kwargs), the tracemalloc peak in bytes during the call)."""
    tracemalloc.start()
    try:
        return f(*args, **kwargs), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def traced_peak(f, *args, **kwargs):
    """The tracemalloc peak in bytes of one call of f."""
    return traced_call(f, *args, **kwargs)[1]
