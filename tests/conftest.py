import pytest

import shiu.sieve as sieve


@pytest.fixture(autouse=True)
def fresh_limit():
    """The memory limit is decided once per process, at the first charge;
    each test decides its own, so a budget one test sets reaches no other."""
    sieve._limit.cache_clear()
    yield
    sieve._limit.cache_clear()
