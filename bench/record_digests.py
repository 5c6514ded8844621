"""Record the sha256 of each workload's results.jsonl at the current code.

    python3 bench/record_digests.py FIRST_SEED LAST_SEED [WORKLOAD ...]

Runs one checked eval per workload and seed and merges the digests into
``bench/baseline_digests.json``, which ``run.py`` compares against. Run it
only on the commit whose outputs are the reference.
"""

from __future__ import annotations

import json
import shutil
import sys

from run import BENCH, ROOT, Checks, Runner, run_eval
from workloads import WORKLOADS


def main(argv):
    first, last = int(argv[0]), int(argv[1])
    names = argv[2:] or list(WORKLOADS)
    path = BENCH / "baseline_digests.json"
    recorded = json.loads(path.read_text()) if path.exists() else {}
    for name in names:
        wl = WORKLOADS[name]
        workdir = ROOT / ".bench_work" / f"record-{name}"
        for seed in range(first, last + 1):
            shutil.rmtree(workdir, ignore_errors=True)
            workdir.mkdir(parents=True)
            checks = Checks(wl, seed)
            paths = wl.write_inputs(workdir, seed)
            run_eval(Runner(workdir), checks, wl, paths, seed, "eval", False)
            if checks.problems:
                sys.exit(f"{name} seed {seed}: {checks.problems}")
            recorded.setdefault(name, {})[str(seed)] = checks.digests[0]
            print(name, seed, checks.digests[0], flush=True)
            path.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
