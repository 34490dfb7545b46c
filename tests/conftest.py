"""Test-wide settings: property tests replay a fixed set of examples and
take no per-example deadline, so a run's verdict does not depend on chance
or on the host's speed."""

from hypothesis import settings

settings.register_profile("qll", derandomize=True, deadline=None)
settings.load_profile("qll")
