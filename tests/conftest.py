"""Hypothesis settings shared by every property test."""

from hypothesis import settings

# No per-example deadline: an example's time depends on the machine and on the
# caches an earlier test left built, not on the code under test.
settings.register_profile("switchcap", deadline=None)
settings.load_profile("switchcap")
