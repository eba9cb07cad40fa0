import gc
import os

# One BLAS thread, set before anything imports numpy: with it, and with no
# faulthandler watchdog thread, ``evaluate(workers=2)`` forks its pool from a
# single-threaded process, as ``bench/run.py`` does.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ[_var] = "1"

import pytest  # noqa: E402


@pytest.fixture
def no_gc():
    """Run a test with the cycle collector off, so only reference counting frees objects."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()
