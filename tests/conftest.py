import sys

import pytest

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
    """Python's default recursion limit (1000) for the test, restored
    afterwards."""
    before = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        yield
    finally:
        sys.setrecursionlimit(before)
