import gc

import pytest


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
