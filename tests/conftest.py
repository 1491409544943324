"""Suite-wide settings.

With ``CI`` set in the environment, hypothesis runs the ``ci`` profile: its
examples are derived from each test's name rather than drawn at random, so
every CI run of a property test checks the same cases.
"""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True)
if os.environ.get("CI"):
    settings.load_profile("ci")
