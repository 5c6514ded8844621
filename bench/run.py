"""xplan benchmark: end-to-end and per-module timing of ``xplan eval``.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is a workload of ``workloads.py``, or ``all`` for each in turn. Run
from the root of a checkout. The workload's inputs are generated from
the seed into ``.bench_work/NAME``; every ``xplan eval`` then runs in a
fresh single-threaded process (BLAS/OpenMP pinned to one thread), closed
loop, one after another, while the next one is expected to end within S
seconds (at least once).

--trace 0 reports the end-to-end metrics: set-up time (median of repeated
set-ups in their own process), eval wall time and peak RSS (medians over
the evals). --trace 1 alternates untraced and traced evals and reports the
per-module metrics of the traced ones, plus the tracing overhead.

Every eval's outputs are checked; the last stdout line is one JSON object
with ``correct``, ``attempted``, ``failed`` (counted in (seed, method)
experiments) and ``metrics``. The exit code is 1 when any check fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUN_LIMIT_S = 170.0  # children still running then are killed
SETUP_REPS = 50      # set-ups per probe process, at most ...
SETUP_PROBE_S = 0.3  # ... or until this much time has passed

MODULES = ("data_model", "predictor", "where_cluster", "num_core", "discretize",
           "decision_tree", "planners", "evaluation", "scott_knott")
SPAN_NAMES = (
    "data_model.load_csv", "data_model.split",
    "predictor.train_forest", "predictor.predict", "predictor.gate",
    "where_cluster.cluster", "where_cluster.nearest_cluster",
    "num_core.distance", "num_core.distance_matrix",
    "discretize.mdl_discretize", "discretize.rank_features",
    "decision_tree.build_tree", "decision_tree.locate_leaf",
    "planners.plan_cd", "planners.plan_cdfs", "planners.plan_bic", "planners.plan_xtree",
    "planners.apply_plan", "planners.check_constraints",
    *(f"evaluation.run_experiment.{m}" for m in ("identity", "cd", "cdfs", "bic", "xtree")),
    "evaluation.trust_report", "scott_knott.scott_knott_rank",
)
# Per-call percentiles in the JSON: per-row work with enough calls on every workload.
PERCENTILE_SPANS = ("num_core.distance", "where_cluster.nearest_cluster", "planners.plan_cd",
                    "planners.plan_xtree", "decision_tree.locate_leaf", "planners.apply_plan")
RATIO_METHODS = ("cd", "xtree")  # planners run on every workload
END_TO_END = ("setup_s", "eval_s", "peak_rss_mb")
PER_LAYER = (
    *(f"{n}.{k}" for n in SPAN_NAMES for k in ("calls", "s")),
    *(f"{n}.{q}" for n in PERCENTILE_SPANS for q in ("p50_ms", "p75_ms")),
    "predictor.predict.rows", "num_core.distance_matrix.cells",
    *(f"planners.{r}.{m}" for m in RATIO_METHODS for r in ("emitted_frac", "culled_frac")),
    *(f"share.{m}" for m in (*MODULES, "other")),
    "trace.eval_s", "trace.overhead_s",
)


def child_env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


class Runner:
    """Starts children one at a time and kills any still alive at the
    run's time limit."""

    def __init__(self, workdir):
        self.workdir = workdir
        self.env = child_env()
        self.t0 = time.perf_counter()

    def elapsed(self):
        return time.perf_counter() - self.t0

    def run(self, argv, tag):
        """Run argv to completion; returns (wall s, peak RSS MB, exit code)."""
        out = open(self.workdir / f"{tag}.out", "w")
        err = open(self.workdir / f"{tag}.err", "w")
        with out, err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.workdir, env=self.env, stdout=out, stderr=err)
            timer = threading.Timer(max(0.0, RUN_LIMIT_S - self.elapsed()), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, usage.ru_maxrss / 1024.0, proc.returncode


class Checks:
    """Output checks of every eval in a run, counted per (seed, method)."""

    def __init__(self, wl, seed):
        self.wl = wl
        self.expected = [(m, seed) for m in wl.methods]
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.digests = []
        self.ratios = None  # method -> defined ratios, from the first good eval

    def eval_output(self, tag, code, outdir, stdout_path, stderr_path):
        self.attempted += len(self.expected)
        failed, problems = self._check(code, outdir, stdout_path, stderr_path)
        self.failed += len(failed)
        self.problems += [f"{tag}: {p}" for p in problems]

    def _check(self, code, outdir, stdout_path, stderr_path):
        everything = set(self.expected)
        if code != 0:
            tail = stderr_path.read_text().strip().splitlines()[-1:] or [""]
            return everything, [f"exit code {code}: {tail[0]}"]
        try:
            raw = (outdir / "results.jsonl").read_bytes()
            by_key = {}
            for line in raw.decode().splitlines():
                r = json.loads(line)
                missing = {"method", "seed", "ratio", "ratio_defined"} - r.keys()
                if missing:
                    raise KeyError(f"record without {sorted(missing)}")
                by_key.setdefault((r["method"], r["seed"]), []).append(r)
            ranked = sorted(e["method"] for e in json.loads(stdout_path.read_text()))
        except (OSError, ValueError, KeyError, TypeError) as exc:
            return everything, [f"unreadable output: {exc!r}"]
        self.digests.append(hashlib.sha256(raw).hexdigest())
        if len(set(self.digests)) > 1:
            return everything, ["results.jsonl differs from an earlier eval of the same inputs"]
        failed, problems = set(), []
        for key in self.expected:
            got = by_key.get(key, [])
            if len(got) != 1:
                failed.add(key)
                problems.append(f"{key}: {len(got)} result records")
                continue
            r = got[0]
            ratio = r["ratio"]
            if r["ratio_defined"] and (ratio is None or not math.isfinite(ratio)):
                failed.add(key)
                problems.append(f"{key}: defined ratio {ratio!r} is not finite")
            if key[0] == "identity" and ratio != 1.0:
                failed.add(key)
                problems.append(f"{key}: identity ratio {ratio!r} != 1.0")
        if set(by_key) - everything:
            problems.append(f"unexpected records {sorted(set(by_key) - everything)}")
            failed = everything
        ratios = {m: [r["ratio"] for rs in by_key.values() for r in rs
                      if r["method"] == m and r["ratio_defined"]] for m in self.wl.methods}
        limit = self.wl.xtree_median_below
        if limit is not None and not (ratios["xtree"] and statistics.median(ratios["xtree"]) < limit):
            failed |= {k for k in everything if k[0] == "xtree"}
            problems.append(f"xtree median ratio not below {limit}")
        if ranked != sorted(m for m in self.wl.methods if ratios[m]):
            failed = everything
            problems.append(f"ranking lists {ranked}")
        if self.ratios is None:
            self.ratios = ratios
        return failed, problems


def median_of(values):
    return statistics.median(values) if values else math.nan


def run_setup(runner, spec_path):
    """One set-up probe in a fresh process; returns its per-rep times."""
    _, _, code = runner.run([sys.executable, str(BENCH / "child.py"), "setup", str(spec_path),
                             str(SETUP_REPS), str(SETUP_PROBE_S)], "setup")
    if code != 0:
        raise RuntimeError(f"set-up probe failed: {(runner.workdir / 'setup.err').read_text()}")
    return json.loads((runner.workdir / "setup.out").read_text())["setup_s"]


def run_eval(runner, checks, wl, paths, seed, tag, traced):
    outdir = runner.workdir / f"out-{tag}"
    shutil.rmtree(outdir, ignore_errors=True)
    args = wl.eval_args(paths, seed, outdir)
    if traced:
        argv = [sys.executable, str(BENCH / "child.py"), "trace",
                str(runner.workdir / f"{tag}.trace.json"), str(runner.workdir / f"{tag}.spans.npz"),
                "--", *args]
    else:
        argv = [sys.executable, "-m", "xplan.cli", *args]
    wall, rss, code = runner.run(argv, tag)
    checks.eval_output(tag, code, outdir, runner.workdir / f"{tag}.out",
                       runner.workdir / f"{tag}.err")
    return wall, rss, code


def keep_going(runner, seconds, durations):
    """Closed loop: start another eval only if it will likely end within
    the run's measuring time."""
    return runner.elapsed() + statistics.median(durations) <= seconds


def layer_metrics(summary, traced_s, methods):
    """Per-module metrics of one traced eval, keyed name -> (value, unit)."""
    spans, counts = summary["spans"], summary["counts"]
    out = {}
    for name in SPAN_NAMES:
        s = spans.get(name, {})
        out[f"{name}.calls"] = (s.get("calls", 0), "count")
        out[f"{name}.s"] = (s.get("self_s", 0.0), "s")
        for q in ("p50_ms", "p75_ms"):
            if q in s:
                out[f"{name}.{q}"] = (s[q], "ms")
    out["predictor.predict.rows"] = (counts.get("predictor.predict.rows", 0), "count")
    out["num_core.distance_matrix.cells"] = (counts.get("num_core.distance_matrix.cells", 0), "count")
    for m in methods:
        rows = counts.get(f"planners.rows.{m}", 0)
        nonempty = counts.get(f"planners.nonempty.{m}", 0)
        culled = counts.get(f"planners.culled.{m}", 0)
        out[f"planners.emitted_frac.{m}"] = (nonempty / rows if rows else 0.0, "frac")
        out[f"planners.culled_frac.{m}"] = (culled / nonempty if nonempty else 0.0, "frac")
    covered = 0.0
    for mod in MODULES:
        own = sum(s["self_s"] for name, s in spans.items() if name.split(".")[0] == mod)
        covered += own
        out[f"share.{mod}"] = (own / traced_s, "frac")
    out["share.other"] = (1.0 - covered / traced_s, "frac")
    return out


def per_layer(runner, checks, wl, paths, seed, seconds):
    untraced, traced, layers, rounds = [], [], [], []
    while True:
        started = runner.elapsed()
        wall, _, code = run_eval(runner, checks, wl, paths, seed, f"eval{len(untraced)}", False)
        untraced.append(wall)
        tag = f"traced{len(traced)}"
        twall, _, tcode = run_eval(runner, checks, wl, paths, seed, tag, True)
        traced.append(twall)
        if code or tcode:
            break
        with open(runner.workdir / f"{tag}.trace.json") as fh:
            layers.append(layer_metrics(json.load(fh), twall, wl.methods))
        rounds.append(runner.elapsed() - started)
        if not keep_going(runner, seconds, rounds):
            break
    metrics = {}
    if layers:
        for name, (_, unit) in layers[0].items():
            metrics[name] = (median_of([m[name][0] for m in layers]), unit)
    metrics["trace.eval_s"] = (median_of(traced), "s")
    metrics["trace.overhead_s"] = (median_of(traced) - median_of(untraced), "s")
    return metrics


def end_to_end(runner, checks, wl, paths, seed, seconds):
    """Evals until the measuring time is spent, with a set-up probe before
    each and after the last, so set-up is sampled across the whole run."""
    spec_path = runner.workdir / "setup.json"
    spec_path.write_text(json.dumps({
        "data": str(paths["data"]), "schema": str(paths["schema"]),
        "constraints": str(paths["constraints"]) if "constraints" in paths else None,
        "split": {**wl.split, "seed": seed}}))
    setup, walls, rss, rounds = [], [], [], []
    while True:
        started = runner.elapsed()
        setup += run_setup(runner, spec_path)
        wall, peak, code = run_eval(runner, checks, wl, paths, seed, f"eval{len(walls)}", False)
        walls.append(wall)
        rss.append(peak)
        rounds.append(runner.elapsed() - started)
        if code or not keep_going(runner, seconds, rounds):
            break
    setup += run_setup(runner, spec_path)
    return {
        "setup_s": (median_of(setup), "s"),
        "eval_s": (median_of(walls), "s"),
        "peak_rss_mb": (median_of(rss), "MB"),
    }, walls


def run_workload(wl, seed, seconds, trace):
    """One benchmark run of one workload; prints its report and returns the
    exit code."""
    workdir = ROOT / ".bench_work" / wl.name
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    paths = wl.write_inputs(workdir, seed)
    runner = Runner(workdir)
    checks = Checks(wl, seed)

    print(f"workload {wl.name} seed {seed}: {wl.why}")
    if trace:
        metrics = per_layer(runner, checks, wl, paths, seed, seconds)
    else:
        metrics, walls = end_to_end(runner, checks, wl, paths, seed, seconds)
        print(f"evals {len(walls)}: " + " ".join(f"{w:.3f}" for w in walls) + " s")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"failed_frac {checks.failed / max(1, checks.attempted):.6g} frac "
          f"({checks.failed} of {checks.attempted} experiments)")
    for m, rs in (checks.ratios or {}).items():
        print(f"r_median.{m} {median_of(rs):.6g} ratio")
    if checks.digests:
        print(f"results_sha256 {checks.digests[0]} baseline {baseline_match(wl.name, seed, checks.digests[0])}")
    for p in checks.problems:
        print(f"check failed: {p}")

    correct = not checks.problems and checks.failed == 0
    reported = PER_LAYER if trace else END_TO_END
    print(json.dumps({
        "correct": correct,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]}
                    for name in reported if name in metrics},
    }))
    return 0 if correct else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"],
                    help="one workload, or 'all' to run each in turn")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "xplan" / "cli.py").is_file():
        sys.exit(f"no xplan sources under {ROOT / 'src'}; run from a checkout")
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    return max(run_workload(WORKLOADS[n], args.seed, args.seconds, args.trace) for n in names)


def baseline_match(workload, seed, digest):
    """'match' / 'differs' against the digest recorded at the baseline."""
    path = BENCH / "baseline_digests.json"
    recorded = json.loads(path.read_text()).get(workload, {}) if path.exists() else {}
    if str(seed) not in recorded:
        return "unrecorded"
    return "match" if recorded[str(seed)] == digest else "differs"


if __name__ == "__main__":
    sys.exit(main())
