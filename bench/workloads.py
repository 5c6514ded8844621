"""Workload definitions and their seeded input generators.

Each workload writes a CSV, a schema sidecar and (for configuration data)
a rule file, all derived from the workload seed alone, and names the
``xplan eval`` flags that run it. The generators are copies kept here on
purpose: an edit to the test fixtures must not change a workload.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field

ALL_METHODS = ("identity", "cd", "cdfs", "bic", "xtree")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    methods: tuple
    trees: int
    flags: tuple = ()  # further ``xplan eval`` flags
    xtree_median_below: float | None = None  # planted-signal output check
    split: dict = field(default_factory=dict)  # SplitSpec fields
    make: object = None  # seed -> (features, rows, rule text or None, class_mode)

    def write_inputs(self, workdir, seed):
        """Write data.csv, schema.json and rules.txt; return the paths the
        program reads, keyed by role."""
        feats, rows, rules, class_mode = self.make(seed)
        paths = {"data": workdir / "data.csv", "schema": workdir / "schema.json"}
        with open(paths["data"], "w", newline="") as fh:
            fh.write(",".join(f["name"] for f in feats) + "\n")
            for r in rows:
                fh.write(",".join(_cell(c) for c in r) + "\n")
        with open(paths["schema"], "w") as fh:
            json.dump({"class_mode": class_mode, "features": feats}, fh, indent=1)
        if rules is not None:
            paths["constraints"] = workdir / "rules.txt"
            paths["constraints"].write_text(rules)
        return paths

    def eval_args(self, paths, seed, out):
        """``xplan eval`` arguments; the program sees only generated files.
        One repeat per eval: a run repeats whole evals of the same inputs."""
        args = ["eval", "--data", str(paths["data"]), "--schema", str(paths["schema"]),
                "--methods", ",".join(self.methods), "--repeats", "1",
                "--trees", str(self.trees), "--seed", str(seed),
                "--out", str(out), "--format", "json", *self.flags]
        if "constraints" in paths:
            args += ["--constraints", str(paths["constraints"])]
        mode = self.split.get("mode", "random-half")
        args += ["--split-mode", mode]
        if mode == "by-version":
            args += ["--train-versions", ",".join(self.split["train_versions"]),
                     "--test-versions", ",".join(self.split["test_versions"])]
        return args


def _cell(c):
    if isinstance(c, bool):
        return "1" if c else "0"
    if isinstance(c, float):
        return repr(c)
    return str(c)


# --- planted defect data -----------------------------------------------------

def planted_rows(n_train, n_test, seed):
    """Defect generator with one real signal: P(defect)=0.9 when loc > 300
    else 0.1, over 8 pure-noise features. Same draws, in the same order, as
    the planted fixture of the test suite."""
    rng = random.Random(seed)

    def make(n):
        rows = []
        for _ in range(n):
            r = [rng.uniform(0, 100) for _ in range(8)]
            loc = rng.uniform(0, 600)
            r.append(loc)
            r.append(rng.random() < (0.9 if loc > 300 else 0.1))
            rows.append(r)
        return rows

    return make(n_train), make(n_test)


def planted(n_train, n_test):
    """Train and test rows in one CSV, told apart by a meta ``version``
    column so a by-version split gives exactly n_train / n_test rows."""

    def make(seed):
        train, test = planted_rows(n_train, n_test, seed)
        feats = ([{"name": f"n{i}"} for i in range(8)]
                 + [{"name": "loc"}, {"name": "bug", "role": "dependent"},
                    {"name": "version", "kind": "discrete", "role": "meta"}])
        rows = [r + ["train"] for r in train] + [r + ["test"] for r in test]
        return feats, rows, None, "boolean-from-count"

    return make


# --- configuration runtime data ---------------------------------------------

# Prefix form ``op A B``: the parser rejects the infix ``A requires B``.
CONFIG_RULES = """\
# valid configurations of the generated system
requires cache backend
requires compress cache
excludes ssl legacy_proto
excludes debug fast
xor fast small balanced
or logging metrics
"""

# Additive runtime effect of each on/off option being on.
OPTION_EFFECTS = {
    "cache": -12.0, "backend": 4.0, "ssl": 9.0, "legacy_proto": 6.0,
    "fast": -10.0, "small": 14.0, "balanced": 0.0, "logging": 5.0,
    "metrics": 3.0, "compress": 7.0, "debug": 25.0, "prefetch": -7.0,
    "journal": 6.0, "mmap": -5.0,
}
THREADS = (1.0, 2.0, 4.0, 8.0, 16.0)


def _valid_config(rng):
    """Random on/off options repaired until every CONFIG_RULES rule holds."""
    on = {name: rng.random() < 0.5 for name in OPTION_EFFECTS}
    mode = rng.choice(("fast", "small", "balanced"))
    for name in ("fast", "small", "balanced"):
        on[name] = name == mode
    if on["debug"] and on["fast"]:
        on["debug"] = False
    if on["ssl"] and on["legacy_proto"]:
        on["legacy_proto"] = False
    if on["compress"]:
        on["cache"] = True
    if on["cache"]:
        on["backend"] = True
    if not (on["logging"] or on["metrics"]):
        on[rng.choice(("logging", "metrics"))] = True
    return on


def config_runtime(n_rows):
    """Runtime of a configurable system: 14 on/off options, thread count
    and buffer size. Runtime is a fixed 150 plus additive option, thread and
    buffer effects, with 2% noise; the fixed part keeps the regression
    gate's relative error (s near 0.965) well clear of its 0.9 threshold."""

    def make(seed):
        rng = random.Random(seed)
        rows = []
        for _ in range(n_rows):
            on = _valid_config(rng)
            threads = rng.choice(THREADS)
            buffer_mb = rng.uniform(16.0, 1024.0)
            runtime = 150.0 + sum(e for name, e in OPTION_EFFECTS.items() if on[name])
            runtime += 40.0 / math.sqrt(threads) + 8.0 * (1.0 - buffer_mb / 1024.0)
            runtime *= 1.0 + rng.gauss(0.0, 0.02)
            rows.append(["on" if on[name] else "off" for name in OPTION_EFFECTS]
                        + [threads, buffer_mb, runtime])
        feats = ([{"name": name, "kind": "discrete"} for name in OPTION_EFFECTS]
                 + [{"name": "threads"}, {"name": "buffer_mb"},
                    {"name": "runtime", "role": "dependent"}])
        return feats, rows, CONFIG_RULES, "numeric"

    return make


BY_VERSION = {"mode": "by-version", "train_versions": ["train"], "test_versions": ["test"]}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="planted-600",
            why=("paper-scale defect run, all five methods, 100 trees: cost spread over "
                 "forest fits, bic per-row gradients and scalar distances; MDL is small"),
            methods=ALL_METHODS,
            trees=100,
            xtree_median_below=0.8,
            split=BY_VERSION,
            make=planted(600, 200),
        ),
        Workload(
            name="planted-3k",
            why=("planted data at 5x rows, identity/cd/xtree, 25 trees: build_tree MDL, "
                 "forest fit, cluster and the trust matrices (peak memory) dominate"),
            methods=("identity", "cd", "xtree"),
            trees=25,
            split=BY_VERSION,
            make=planted(3000, 1000),
        ),
        Workload(
            name="config-runtime",
            why=("on/off options with a numeric runtime and a rule file: the only regression "
                 "forest, discrete distances, symbol splits and constraint culling"),
            methods=ALL_METHODS,
            trees=50,
            # runtimes differ by far less than 2x, so xtree's default gamma of
            # 0.5 would never find a better sibling
            flags=("--gamma", "0.9"),
            make=config_runtime(600),
        ),
    )
}
