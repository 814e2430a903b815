"""Hypothesis profiles for the property tests.

``tier1`` (the default) runs 40 examples per property without a deadline;
``deep`` runs 400.  Select one with the environment variable, e.g.

    HYPOTHESIS_PROFILE=deep PYTHONPATH=src python -m pytest -q tests
"""

import os

from hypothesis import settings

settings.register_profile("tier1", max_examples=40, deadline=None)
settings.register_profile("deep", settings.get_profile("tier1"), max_examples=400)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "tier1"))
