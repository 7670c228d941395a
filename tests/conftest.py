"""Every test starts and ends with empty extremum-search and normal-form memos.

``timefn`` memoizes its extremum searches and its normal forms per process.
Emptying the memos around each test keeps a test that counts the work of a
search (the benchmark's tracer test counts coefficient integrals)
independent of which tests ran before it.
"""

import pytest

from ddestab import timefn as tf

_MEMOIZED = (
    tf.sup_window_integral_info,
    tf.sup_between_delays_info,
    tf.liminf_forward_integral_info,
    tf.ratio_extrema,
    tf._normal_form_memo,
)


@pytest.fixture(autouse=True)
def empty_extremum_memos():
    for search in _MEMOIZED:
        search.cache_clear()
    yield
    for search in _MEMOIZED:
        search.cache_clear()
