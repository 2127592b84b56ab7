import os
import sys

from hypothesis import settings

# make the sibling oracles module importable regardless of invocation dir
sys.path.insert(0, os.path.dirname(__file__))

# Property tests draw the same examples on every run and have no per-example
# deadline, so their verdicts depend neither on chance nor on machine load.
settings.register_profile("polaromech", derandomize=True, deadline=None,
                          database=None)
settings.load_profile("polaromech")
