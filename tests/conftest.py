"""Shared test settings.

Property tests run under a derandomized hypothesis profile: the same
examples on every run, no deadline (timing on a loaded machine must not fail
a test) and a bounded example count, so they cannot flake the suite.
"""

from hypothesis import settings

settings.register_profile(
    "sbridge", derandomize=True, deadline=None, max_examples=50, database=None
)
settings.load_profile("sbridge")
