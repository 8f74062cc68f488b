from collections import Counter

import numpy as np
import pytest
from hypothesis import settings

from lanebev import tensor as T

# property tests draw the same examples on every run, so Tier-1 stays
# deterministic; nothing is written to an example database
settings.register_profile("lanebev", derandomize=True, max_examples=150, deadline=None,
                          database=None)
settings.load_profile("lanebev")


@pytest.fixture(autouse=True)
def _debug_checks():
    T.set_debug_checks(True)
    yield
    T.set_debug_checks(False)


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture
def count_calls(monkeypatch):
    """count_calls(module, *names) wraps each module attribute in place and
    returns a Counter of calls keyed '<module>.<name>' (module's last dotted
    part); callers that look the name up on that module are counted."""
    counts = Counter()

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def wrap(module, *names):
        for name in names:
            key = f"{module.__name__.rsplit('.', 1)[-1]}.{name}"
            monkeypatch.setattr(module, name, counted(key, getattr(module, name)))
        return counts
    return wrap
