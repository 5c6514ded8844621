"""Program-side half of the benchmark, run in a fresh process per use.

    python3 bench/child.py setup SPEC.json REPS SECONDS
        Time the program's set-up (read schema, CSV and rule file, split
        the data) REPS times, stopping early once SECONDS have passed;
        print the durations as JSON.
    python3 bench/child.py trace SUMMARY.json SPANS.npz -- EVAL_ARGS...
        Run ``xplan eval`` with every traced function wrapped; write the
        per-span summary and the raw spans, and exit with eval's code.

``xplan`` is imported from ``src`` through PYTHONPATH.
"""

from __future__ import annotations

import json
import sys
import time

import numpy as np


def setup(spec_path, reps, seconds):
    from xplan.data_model import SplitSpec, load_csv, load_schema, split
    from xplan.planners import load_feature_model

    with open(spec_path) as fh:
        spec = json.load(fh)
    times = []
    while len(times) < reps and (len(times) < 5 or sum(times) < seconds):
        t0 = time.perf_counter()
        feats, class_mode = load_schema(spec["schema"])
        ds = load_csv(spec["data"], feats, class_mode)
        split(ds, SplitSpec(**spec["split"]))
        if spec.get("constraints"):
            load_feature_model(spec["constraints"], ds)
        times.append(time.perf_counter() - t0)
    print(json.dumps({"setup_s": times}))


def percentiles(durations):
    """p50/p75 in ms, each only with at least 10 calls beyond it."""
    out = {}
    n = len(durations)
    for q in (50, 75):
        if n - int(np.ceil(n * q / 100)) >= 10:
            out[f"p{q}_ms"] = float(np.percentile(durations, q)) * 1e3
    return out


def trace(summary_path, spans_path, eval_args):
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    from xplan.cli import main

    code = 0
    try:
        main.main(args=eval_args, prog_name="xplan", standalone_mode=False)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    spans = {
        name: {"calls": s["calls"], "self_s": s["self_s"], "total_s": s["total_s"],
               **percentiles(s["durations"])}
        for name, s in tracer.summary().items()
    }
    with open(summary_path, "w") as fh:
        json.dump({"spans": spans, "counts": dict(tracer.counts)}, fh, indent=1, sort_keys=True)
    np.savez(spans_path, **tracer.spans())
    return code


if __name__ == "__main__":
    if sys.argv[1] == "setup":
        setup(sys.argv[2], int(sys.argv[3]), float(sys.argv[4]))
    elif sys.argv[1] == "trace" and sys.argv[4] == "--":
        sys.exit(trace(sys.argv[2], sys.argv[3], sys.argv[5:]))
    else:
        sys.exit(f"usage: {sys.argv[0]} setup SPEC REPS SECONDS | trace SUMMARY SPANS -- ARGS")
