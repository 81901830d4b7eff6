"""Correctness check for one `liecross groupoid` run of the CLI workload.

The workload's module is an isomorphic copy of the inclusion of span(y, z)
into h3 over GF(3); every copy has the same groupoid shape.
"""

from __future__ import annotations

import json

OBJECTS = 243
ARROWS = 19683
CLASS_SIZES = [81, 81, 81]
HEADER = (f"objects={OBJECTS} arrows={ARROWS} classes={len(CLASS_SIZES)} "
          f"sizes=[{','.join(map(str, CLASS_SIZES))}]")


def check_groupoid_output(fmt: str, code: int, stdout: bytes,
                          emitted: bytes) -> tuple[int, list[str]]:
    """(arrows emitted, problems) for one run in format fmt."""
    problems = []
    if code != 0:
        problems.append(f"exit code {code}")
    if fmt == "text":
        lines = stdout.decode().splitlines()
        if not lines or lines[0] != HEADER:
            problems.append(f"header {lines[:1]} is not {HEADER!r}")
        if len(lines) != 2 + OBJECTS + ARROWS:
            problems.append(f"{len(lines)} text lines, expected {2 + OBJECTS + ARROWS}")
    elif stdout != emitted:
        problems.append("structured stdout differs from the emitted file")
    try:
        data = json.loads(emitted)
    except ValueError as exc:
        return 0, problems + [f"emitted file is not JSON: {exc}"]
    arrows = len(data.get("arrows", ()))
    if len(data.get("objects", ())) != OBJECTS or arrows != ARROWS:
        problems.append(f"emitted {len(data.get('objects', ()))} objects and "
                        f"{arrows} arrows, expected {OBJECTS} and {ARROWS}")
    sizes = sorted(len(c) for c in data.get("classes", ()))
    if sizes != CLASS_SIZES:
        problems.append(f"emitted class sizes {sizes}, expected {CLASS_SIZES}")
    return arrows, problems
