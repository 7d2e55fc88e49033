"""Compare two sets of benchmark runs recorded by run.py.

Usage: python3 bench/compare.py BASE.jsonl NEW.jsonl

Each file holds run records as ``run.py`` appends them to
``.bench_results/runs.jsonl``. For every workload and mode found in both, it
prints each metric's median and quartiles on each side and the change of the
medians. Environment differences are flagged; a different kernel ``backend``
makes the timings incomparable, so it also sets exit status 1.
"""

from __future__ import annotations

import json
import statistics
import sys

ENV_FIELDS = ("backend", "python", "numpy", "scipy", "nproc", "cpu")


def _load(path):
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = _load(argv[0]), _load(argv[1])
    status = 0
    groups = sorted({(r["workload"], r["trace"]) for r in base} & {(r["workload"], r["trace"]) for r in new})
    for workload, trace in groups:
        sides = [[r for r in runs if (r["workload"], r["trace"]) == (workload, trace)]
                 for runs in (base, new)]
        print(f"== {workload} trace {trace}: {len(sides[0])} vs {len(sides[1])} runs")
        for field in ENV_FIELDS:
            seen = [sorted({str(r["env"][field]) for r in side}) for side in sides]
            if seen[0] != seen[1] or len(seen[0]) > 1:
                note = " -- kernel timings are not comparable" if field == "backend" else ""
                print(f"  FLAG {field} differs: {seen[0]} vs {seen[1]}{note}")
                status = 1 if field == "backend" else status
        for label, side in zip(("base", "new"), sides):
            wrong = sum(not r["correct"] for r in side)
            if wrong:
                print(f"  FLAG {label}: {wrong} run(s) failed the correctness gate")
        names = [n for n in sides[0][0]["metrics"] if all(n in r["metrics"] for s in sides for r in s)]
        for name in names:
            (b1, bm, b3), (n1, nm, n3) = (
                _quartiles([r["metrics"][name]["value"] for r in side]) for side in sides
            )
            change = f"{(nm - bm) / bm:+.1%}" if bm else "n/a"
            unit = sides[0][0]["metrics"][name]["unit"]
            print(f"  {name:32s} base {bm:.6g} [{b1:.6g}, {b3:.6g}]  "
                  f"new {nm:.6g} [{n1:.6g}, {n3:.6g}]  {change}  {unit}")
    return status


if __name__ == "__main__":
    sys.exit(main())
