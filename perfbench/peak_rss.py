"""Run a module as `python -m MODULE` would, then report its peak RSS.

    python3 perfbench/peak_rss.py MODULE [ARGS...]

At exit the process writes `peak_rss_kb N` to stderr as its last line, read
from VmHWM in /proc/self/status.  VmHWM covers only the memory of the
program after exec: the rusage a parent reads for a child (wait4,
RUSAGE_CHILDREN) also takes in the parent's own peak, because Linux carries
it into the child through fork and exec.
"""

from __future__ import annotations

import atexit
import runpy
import sys


def peak_rss_kb() -> int:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def _report():
    print(f"peak_rss_kb {peak_rss_kb()}", file=sys.stderr)


if __name__ == "__main__":
    atexit.register(_report)
    sys.argv = sys.argv[1:]
    runpy.run_module(sys.argv[0], run_name="__main__", alter_sys=True)
