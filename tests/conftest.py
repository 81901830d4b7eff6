"""Child interpreters that tests start (`python -m liecross ...`) import the
same checkout as the tests: pytest's `pythonpath` setting reaches only this
process, so src/ is also put on PYTHONPATH for the children."""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [_SRC, os.environ.get("PYTHONPATH")]))
