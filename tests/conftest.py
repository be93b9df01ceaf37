"""Shared test setup: a derandomized hypothesis profile, so every run of the
property tests tries the same few examples and stays deterministic."""

try:
    from hypothesis import settings
except ImportError:  # tests/test_properties.py skips itself
    pass
else:
    settings.register_profile("blf", derandomize=True, database=None,
                              deadline=None, max_examples=10)
    settings.load_profile("blf")
