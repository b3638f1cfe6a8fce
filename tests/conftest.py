"""Hypothesis settings for the whole suite.

Examples are derived from each test's source, not drawn at random, so every
run tests the same cases; no example database is written.  The per-example
deadline is off because first calls fill caches (Laguerre tables, squeezed
amplitudes) and would time out spuriously.
"""

from hypothesis import settings

settings.register_profile(
    "mesoweyl", derandomize=True, database=None, deadline=None, max_examples=50
)
settings.load_profile("mesoweyl")
