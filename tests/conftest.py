"""Every test starts and ends with every memo of the package empty.

``timefn`` memoizes its extremum searches and its normal forms per
process, and ``solver`` the run geometry last built.
Emptying the memos around each test keeps a test that counts the work of a
search (the benchmark's tracer test counts coefficient integrals) or of a
run independent of which tests ran before it. Every memo of every
``ddestab`` module is emptied, found by its ``cache_clear``, so that a memo
added later is too.
"""

import importlib
import pkgutil

import pytest

import ddestab

_MODULES = [importlib.import_module(info.name)
            for info in pkgutil.iter_modules(ddestab.__path__, "ddestab.")]
_MEMOIZED = [memo for module in _MODULES for memo in vars(module).values()
             if hasattr(memo, "cache_clear")]


@pytest.fixture(autouse=True)
def empty_memos():
    for memo in _MEMOIZED:
        memo.cache_clear()
    yield
    for memo in _MEMOIZED:
        memo.cache_clear()
