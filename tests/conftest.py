"""Shared test settings.

Hypothesis runs derandomized with a bounded example budget, so every
property test sees the same examples on every run and the suite stays
deterministic and fast.  No example database is written.
"""

from hypothesis import settings

settings.register_profile("proxint", derandomize=True, database=None, max_examples=25, deadline=None)
settings.load_profile("proxint")
