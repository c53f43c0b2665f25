import multiprocessing
import time

import pytest

from latsum import build_sieve


@pytest.fixture(scope="session")
def sieve_10k():
    return build_sieve(10_000)


@pytest.fixture(autouse=True)
def no_child_process_left_running():
    """Fail a test that leaves a live multiprocessing child behind, such as a
    verify child that was never joined; the children still alive after a
    one-second join are killed."""
    yield
    deadline = time.monotonic() + 1.0
    for child in multiprocessing.active_children():
        child.join(max(0.0, deadline - time.monotonic()))
    left = multiprocessing.active_children()
    for child in left:
        child.kill()
        child.join()
    if left:
        pytest.fail(f"{len(left)} multiprocessing children left running: pids {[c.pid for c in left]}")
