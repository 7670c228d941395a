"""Every test starts and ends with empty extremum-search, normal-form and delay-read memos.

``timefn`` memoizes its extremum searches, its normal forms and a general
delay's reads on the search grid per process.
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
    tf._delay_samples,
)


@pytest.fixture(autouse=True)
def empty_extremum_memos():
    for search in _MEMOIZED:
        search.cache_clear()
    yield
    for search in _MEMOIZED:
        search.cache_clear()
