"""Suite-wide fixtures."""

import gc

import pytest


@pytest.fixture(autouse=True)
def collector_state_is_kept():
    """Fail a test that leaves the cyclic garbage collector enabled or
    disabled otherwise than it found it, and restore the state, so that a
    pause leaked by the code or the test shows at once."""
    before = gc.isenabled()
    yield
    if gc.isenabled() != before:
        (gc.enable if before else gc.disable)()
        pytest.fail(f"the test left gc.isenabled() {not before}, not {before}")
