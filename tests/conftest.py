"""Child interpreters that tests start (`python -m liecross ...`) import the
same checkout as the tests: pytest's `pythonpath` setting reaches only this
process, so src/ is also put on PYTHONPATH for the children.

HYPOTHESIS_PROFILE=ci loads the `ci` profile: property tests draw the same
examples on every run and print a reproduction blob for a failing one, so a
red run replays locally.  Without it, Hypothesis's default profile applies.
"""

import os
from pathlib import Path

from hypothesis import settings

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [_SRC, os.environ.get("PYTHONPATH")]))

settings.register_profile("ci", derandomize=True, print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
