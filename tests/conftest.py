"""Shared test settings.

The ``timing`` Hypothesis profile explores the same examples on every run, so
two timed runs of the suite do the same work.  It applies only when named:
``python -m pytest -q --hypothesis-profile timing``.  Without that flag the
default profile, and what it explores, is unchanged.
"""

from hypothesis import settings

settings.register_profile("timing", derandomize=True, database=None)
