"""Suite-wide settings.

The property tests draw the same examples on every run: the loaded
hypothesis profile seeds each test's generator from the test itself
(derandomize), and so keeps no example database.  A draw that fails fails
on every run, and is mended in the library, not by another seed.
"""

from hypothesis import settings

settings.register_profile("fixed_draws", derandomize=True)
settings.load_profile("fixed_draws")
