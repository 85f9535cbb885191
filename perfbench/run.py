"""miniaffect benchmark: one workload per call, one JSON result line at the end.

    python3 perfbench/run.py --workload train_long --seed 1 --seconds 30 --trace 0

Run from the root of a miniaffect checkout; the program is imported from
``src/``. With ``--trace 0`` the result carries every end-to-end metric; with
``--trace 1`` the run is traced and the result carries every per-layer metric
(see README.md in this directory). Inputs are generated from ``--seed``.
Generated inputs are removed at exit; the result, the environment block and,
for traced runs, the spans are kept under ``.perfbench_out/``.

Exit status: 0 with a result line (check ``correct``), 2 for bad arguments or
when the program's sources are missing, 1 if set-up itself fails.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys

import numpy as np

import gen

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

END_TO_END_UNITS = {
    "setup_s": "s",
    "train_steps_per_s": "steps/s",
    "train_tokens_per_s": "tokens/s",
    "predict_essays_per_s": "essays/s",
    "dev_eval_ms_p50": "ms",
    "dev_eval_ms_p90": "ms",
    "peak_rss_mb": "MB",
}


def end_to_end(run) -> dict[str, float]:
    return {
        "setup_s": statistics.median(run.setup_s),
        "train_steps_per_s": run.train_steps / sum(run.train_s),
        "train_tokens_per_s": run.train_tokens / sum(run.train_s),
        "predict_essays_per_s": run.predict_essays / sum(run.predict_s),
        "dev_eval_ms_p50": float(np.percentile(run.dev_eval_ms, 50)),
        "dev_eval_ms_p90": float(np.percentile(run.dev_eval_ms, 90)),
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(gen.GENERATORS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "miniaffect", "__init__.py")):
        print(f"perfbench: no miniaffect sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))

    import env
    import tracing
    import workloads

    work = os.path.join(OUT_DIR, f"work-{args.workload}-{args.seed}-{os.getpid()}")
    tracer = tracing.Tracer() if args.trace else None
    patches = None
    try:
        paths = gen.generate(args.workload, args.seed, work)
        if tracer is not None:
            patches = tracing.install(tracer)
        run = workloads.Run(args.seconds, tracer)
        workloads.run_workload(run, args.workload, args.seed, paths, work)
    finally:
        if patches is not None:
            patches.restore()
        shutil.rmtree(work, ignore_errors=True)

    e2e = end_to_end(run)
    if tracer is None:
        units = END_TO_END_UNITS
        values = e2e
    else:
        by_name = tracing.summarize(tracer.spans)
        units = tracing.per_layer_units(END_TO_END_UNITS)
        values = tracing.layer_metrics(tracer, by_name, e2e, END_TO_END_UNITS)
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    environment = env.environment()
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment,
        "samples": {
            "setup": len(run.setup_s),
            "train_calls": len(run.train_s),
            "predict_calls": len(run.predict_s),
            "dev_eval_requests": len(run.dev_eval_ms),
        },
        "end_to_end": e2e,
        "result": result,
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    if tracer is not None:
        record["spans_by_name"] = by_name
        tracer.dump(os.path.join(OUT_DIR, f"{tag}.spans.json"))
    with open(os.path.join(OUT_DIR, f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print(f"workload {args.workload}  seed {args.seed}  {args.seconds:g} s  trace {args.trace}")
    print("environment " + json.dumps(environment, sort_keys=True))
    print("samples " + json.dumps(record["samples"]))
    if tracer is not None:
        print(tracing.format_table(record["spans_by_name"]))
    for name, metric in result["metrics"].items():
        print(f"  {name:44s} {metric['value']:>16.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
