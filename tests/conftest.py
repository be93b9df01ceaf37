"""Shared test setup: derandomized hypothesis profiles, so every run of the
property tests tries the same examples and stays deterministic.  The
default profile, "blf", tries 10 examples per property; setting the
environment variable BLF_HYPOTHESIS_PROFILE=deep selects "deep", which
tries 200."""

import os

try:
    from hypothesis import settings
except ImportError:  # tests/test_properties.py skips itself
    pass
else:
    for name, examples in (("blf", 10), ("deep", 200)):
        settings.register_profile(name, derandomize=True, database=None,
                                  deadline=None, max_examples=examples)
    settings.load_profile(os.environ.get("BLF_HYPOTHESIS_PROFILE", "blf"))
