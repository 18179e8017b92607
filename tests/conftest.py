"""Hypothesis profiles.  CI runs with `--hypothesis-profile=ci`, which
prints a reproduction blob for every failing property, so that a failure
seen only in CI can be replayed locally with `@reproduce_failure`."""
from hypothesis import settings

settings.register_profile("ci", print_blob=True)
