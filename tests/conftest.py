"""Hypothesis draws the same examples on every run, and a slow host cannot
fail a property test on its deadline: the suite is reproducible."""
from hypothesis import settings

settings.register_profile("reproducible", derandomize=True, deadline=None)
settings.load_profile("reproducible")
