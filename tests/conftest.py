"""Hypothesis profiles for the property tests, and a NaN injector for the folds.

``tier1`` (the default) runs 40 examples per property without a deadline;
``deep`` runs 400.  Select one with the environment variable, e.g.

    HYPOTHESIS_PROFILE=deep PYTHONPATH=src python -m pytest -q tests
"""

import os

import numpy as np
import pytest
from hypothesis import settings

settings.register_profile("tier1", max_examples=40, deadline=None)
settings.register_profile("deep", settings.get_profile("tier1"), max_examples=400)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "tier1"))


@pytest.fixture
def with_nan():
    """with_nan(fn, call, entry=0) is fn with a NaN put at the flat index entry
    of its call-th result (counting from 0): in the result's `values` if it has
    them (a Field), else in the result itself."""
    def wrap(fn, call, entry=0):
        calls = [0]

        def wrapped(*args, **kwargs):
            out = fn(*args, **kwargs)
            calls[0] += 1
            if calls[0] == call + 1:
                vals = np.array(getattr(out, "values", out), float)
                vals.flat[entry % vals.size] = np.nan
                if hasattr(out, "values"):
                    out.values = vals
                else:
                    out = vals
            return out
        return wrapped
    return wrap
