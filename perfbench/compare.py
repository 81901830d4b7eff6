"""Compare two sets of benchmark records written by run.py.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds the .json records of .bench_out/results/ from one set
of runs.  Records are grouped by workload and traced/untraced; for every
metric the script prints both medians over seeds, the quartile spread of
the base as a share of its median, and the relative change.  An end-to-end
metric that worsens by more than its bound in BENCHMARK.json is flagged.

The comparison is refused (exit 2) when the two sets differ in kernel
backend or worker count: the compiled kernels scan 13-21x faster than the
pure ones, so such numbers do not measure the same program.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
MUST_MATCH = ("backend", "workers")


def load(directory: Path) -> dict:
    groups = defaultdict(list)
    for path in sorted(directory.glob("*.json")):
        record = json.loads(path.read_text())
        env = record["env"]
        groups[(env["workload"], env["trace"])].append(record)
    if not groups:
        raise SystemExit(f"no records in {directory}")
    return groups


def spread(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path)
    args = parser.parse_args(argv)
    base, new = load(args.base), load(args.new)

    for key in MUST_MATCH:
        seen = {r["env"][key] for side in (base, new)
                for records in side.values() for r in records}
        if len(seen) > 1:
            print(f"refusing to compare: {key} differs ({sorted(map(str, seen))})",
                  file=sys.stderr)
            return 2

    declared = json.loads(BENCHMARK.read_text())
    bounds = {m["name"]: m for m in declared["end_to_end"]}
    regressions = 0
    for group in sorted(base.keys() & new.keys()):
        workload, trace = group
        print(f"{workload} (trace {trace}): {len(base[group])} base, "
              f"{len(new[group])} new records")
        for name in base[group][0]["metrics"]:
            old = [r["metrics"][name]["value"] for r in base[group]]
            cur = [r["metrics"][name]["value"] for r in new[group] if name in r["metrics"]]
            if not cur:
                continue
            m_old, m_new = statistics.median(old), statistics.median(cur)
            change = (m_new - m_old) / m_old if m_old else 0.0
            line = (f"  {name:48s} {m_old:12.6g} -> {m_new:12.6g}  "
                    f"{change:+7.2%}  base spread {spread(old):.2%}")
            spec = bounds.get(name)
            if spec is not None and not trace:
                worse = -change if spec["better"] == "higher" else change
                if worse > spec["bound"]:
                    line += f"  WORSE than bound {spec['bound']:.0%}"
                    regressions += 1
            print(line)
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
