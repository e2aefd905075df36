"""pytest plugin of mutants/lines.py, loaded with -p tracehook.

The interpreter unsets a trace function that raises, as one does on the
RecursionError of a deeply nested input, and the tests after it would run
untraced.  So the tracer is installed again before each test, and a test
after which it is gone is recorded as blind.
"""

import sys

import pytest

import sitecustomize


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    sys.settrace(sitecustomize.trace)
    yield
    if sys.gettrace() is None:
        sitecustomize.blind.append(item.nodeid)
