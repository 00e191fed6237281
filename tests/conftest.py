import sys

import pytest

sys.setrecursionlimit(50_000)

from lamc.arith import default_signature
from lamc.machine import MachineConfig


@pytest.fixture(scope="session")
def sig():
    return default_signature()


@pytest.fixture()
def cfg():
    return MachineConfig()


@pytest.fixture()
def default_recursion_limit():
    """Python's default recursion limit for the test, in place of the
    raised one above."""
    before = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        yield
    finally:
        sys.setrecursionlimit(before)
