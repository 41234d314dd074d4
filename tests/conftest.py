"""Hypothesis settings shared by the suite.

The "osclab" profile prints, with a property's falsifying example, the
@reproduce_failure decorator that replays it, so a failure read in a CI
log can be rerun as it happened.  Hypothesis draws its examples at random
on each run; the blob is what pins one down.  The profile changes nothing
else: every test keeps its own max_examples and deadline.
"""
from hypothesis import settings

settings.register_profile("osclab", print_blob=True)
settings.load_profile("osclab")
