"""Tracing overhead: traced runs' end-to-end figures against untraced runs'.

    python3 perfbench/report.py [results dir, default .perfbench_out]

Reads the result files that run.py leaves behind and prints, per workload and
end-to-end metric, the median over untraced runs, the median over traced runs
and the change, with the number of runs behind each median.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import sys

import run


def overhead_rows(records: list[dict]) -> list[tuple]:
    by_key: dict[tuple[str, int], list[dict]] = {}
    for rec in records:
        by_key.setdefault((rec["workload"], rec["trace"]), []).append(rec["end_to_end"])
    rows = []
    for workload in sorted({w for w, _ in by_key}):
        plain, traced = by_key.get((workload, 0), []), by_key.get((workload, 1), [])
        if not plain or not traced:
            continue
        for metric in run.END_TO_END_UNITS:
            base = statistics.median(r[metric] for r in plain)
            with_trace = statistics.median(r[metric] for r in traced)
            rows.append((workload, metric, base, len(plain), with_trace, len(traced), with_trace / base - 1.0))
    return rows


def main(argv: list[str]) -> int:
    out_dir = argv[0] if argv else run.OUT_DIR
    records = []
    for path in sorted(glob.glob(os.path.join(out_dir, "*-trace[01].json"))):
        with open(path, encoding="utf-8") as fh:
            records.append(json.load(fh))
    rows = overhead_rows(records)
    if not rows:
        print(f"no workload has both a traced and an untraced result in {out_dir}", file=sys.stderr)
        return 1
    print(f"{'workload':24s} {'metric':22s} {'untraced':>12s} {'n':>3s} {'traced':>12s} {'n':>3s} {'change':>8s}")
    for workload, metric, base, n_base, with_trace, n_trace, change in rows:
        unit = run.END_TO_END_UNITS[metric]
        print(f"{workload:24s} {metric:22s} {base:12.4f} {n_base:3d} {with_trace:12.4f} {n_trace:3d} {change:+8.1%}  {unit}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
