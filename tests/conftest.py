"""Suite-wide test configuration.

Hypothesis runs derandomized and without an example database, so every
tier-1 run draws the same examples on every host: a failing example
fails every run until the program is fixed.  Per-test ``@settings``
(``max_examples``, ``deadline``) still apply on top of this profile.
"""

from hypothesis import settings

settings.register_profile("tier1", derandomize=True, database=None)
settings.load_profile("tier1")
