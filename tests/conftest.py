"""Every test starts and ends with empty extremum-search, normal-form and delay-read memos.

``timefn`` memoizes its extremum searches, its normal forms and a general
delay's reads on the search grid per process.
Emptying the memos around each test keeps a test that counts the work of a
search (the benchmark's tracer test counts coefficient integrals)
independent of which tests ran before it. Every memo of the module is
emptied, found by its ``cache_clear``, so that a memo added later is too.
"""

import pytest

from ddestab import timefn as tf

_MEMOIZED = [memo for memo in vars(tf).values() if hasattr(memo, "cache_clear")]


@pytest.fixture(autouse=True)
def empty_extremum_memos():
    for search in _MEMOIZED:
        search.cache_clear()
    yield
    for search in _MEMOIZED:
        search.cache_clear()
