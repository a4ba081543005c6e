"""Suite-wide fixtures."""

import gc

import pytest


@pytest.fixture(autouse=True)
def collector_state_is_kept():
    """Fail a test that leaves the cyclic garbage collector enabled or
    disabled otherwise than it found it, or with more or fewer objects
    frozen, and restore what it can (a freeze that rose is undone), so
    that a pause or freeze leaked by the code or the test shows at once.
    Reading the freeze count walks the frozen objects, none outside such
    a leak."""
    before = gc.isenabled()
    frozen = gc.get_freeze_count()
    yield
    if gc.isenabled() != before:
        (gc.enable if before else gc.disable)()
        pytest.fail(f"the test left gc.isenabled() {not before}, not {before}")
    left = gc.get_freeze_count()
    if left != frozen:
        if left > frozen:
            gc.unfreeze()
        pytest.fail(f"the test left {left} objects frozen, not {frozen}")
