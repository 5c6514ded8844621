"""Shared fixtures: small synthetic datasets with known structure, and
an in-process runner of the ``xplan`` command line."""

import contextlib
import csv
import io
import math
import random
from dataclasses import dataclass

import pytest

from xplan.cli import main
from xplan.data_model import (
    INDEPENDENT,
    MINIMIZE_RATE,
    MINIMIZE_VALUE,
    META,
    MISSING,
    Dataset,
    FeatureSpec,
    SplitSpec,
    split,
)
from xplan.decision_tree import build_tree
from xplan.num_core import DistanceConfig, encode
from xplan.planners import FeatureModel
from xplan.predictor import forest_input, train_forest


@dataclass(frozen=True)
class CliResult:
    """One ``xplan`` run: its exit code, its stdout and stderr kept apart,
    and the exception it raised other than SystemExit, if any."""

    exit_code: int
    stdout: str
    stderr: str
    exception: Exception | None

    @property
    def output(self):
        return self.stdout


def run_cli(args):
    """Run ``xplan`` with ``args`` in this process, its output captured. An
    exception other than SystemExit is kept, not raised, with exit code 1,
    as the interpreter would exit."""
    out, err = io.StringIO(), io.StringIO()
    code, exception = 0, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            main(args)
        except SystemExit as exc:
            code = 0 if exc.code is None else exc.code
        except Exception as exc:
            code, exception = 1, exc
    return CliResult(code, out.getvalue(), err.getvalue(), exception)


def _format_cell(cell):
    if cell is None:
        return MISSING
    if isinstance(cell, bool):
        return "1" if cell else "0"
    if isinstance(cell, float):
        return repr(cell)
    return str(cell)


def encoded(ds):
    """ds's rows encoded with the config of ds, as a run encodes its
    training rows."""
    return encode(ds.rows, DistanceConfig.from_dataset(ds))


def fit_forest(ds, params):
    """A forest on ds, and its predictions for rows encoded as a run
    encodes them: with the config of ds."""
    table = encoded(ds)
    model = train_forest(forest_input(ds, table), params)
    return model, lambda rows: model.predict(encode(rows, table.cfg))


def tree_of(ds, alpha=None):
    """xtree's tree on ds, built from the tables a run builds."""
    table = encoded(ds)
    _, targets, *_ = forest_input(ds, table)
    return build_tree(ds, table, targets, alpha)


def save_csv(ds, path):
    """Write ds in the CSV form ``load_csv`` reads back bit for bit."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f.name for f in ds.features])
        for r in ds.rows:
            writer.writerow([_format_cell(c) for c in r])


def planted_defect_data(n_train=600, n_test=200, seed=0):
    """Defect generator with one real signal: P(defect)=0.9 when loc > 300
    else 0.1, over 8 pure-noise features."""
    rng = random.Random(seed)
    feats = (
        [FeatureSpec(f"n{i}") for i in range(8)]
        + [FeatureSpec("loc"), FeatureSpec("bug", role="dependent")]
    )

    def make(n):
        rows = []
        for _ in range(n):
            r = [rng.uniform(0, 100) for _ in range(8)]
            loc = rng.uniform(0, 600)
            r.append(loc)
            r.append(rng.random() < (0.9 if loc > 300 else 0.1))
            rows.append(r)
        return rows

    return (
        Dataset(feats, make(n_train), MINIMIZE_RATE),
        Dataset(feats, make(n_test), MINIMIZE_RATE),
    )


# Additive runtime effect of each on/off option of the configuration
# generator being on.
CONFIG_EFFECTS = {"cache": -12.0, "backend": 4.0, "ssl": 9.0, "legacy": 6.0,
                  "fast": -10.0, "small": 14.0, "logging": 5.0, "metrics": 3.0}


def config_runtime_data(n_rows=240, seed=0):
    """A configurable system's table and its rules: random on/off options
    and a thread count, with a runtime of 150 plus additive option and
    thread effects and 2% noise. The configurations may break the rules,
    so plans that copy them can be culled."""
    rng = random.Random(seed)
    feats = ([FeatureSpec(name, kind="discrete") for name in CONFIG_EFFECTS]
             + [FeatureSpec("threads"), FeatureSpec("runtime", role="dependent")])
    rows = []
    for _ in range(n_rows):
        on = {name: rng.random() < 0.5 for name in CONFIG_EFFECTS}
        threads = rng.choice((1.0, 2.0, 4.0, 8.0))
        runtime = 150.0 + sum(e for name, e in CONFIG_EFFECTS.items() if on[name])
        runtime += 40.0 / math.sqrt(threads)
        runtime *= 1.0 + rng.gauss(0.0, 0.02)
        rows.append(["on" if on[name] else "off" for name in CONFIG_EFFECTS] + [threads, runtime])
    rules = FeatureModel(requires=[("cache", "backend")], excludes=[("ssl", "legacy")],
                         exactly_one=[["fast", "small"]], at_least_one=[["logging", "metrics"]])
    return Dataset(feats, rows, MINIMIZE_VALUE), rules


def with_meta(ds):
    """ds with a meta column of row ids before its dependent."""
    feats = ds.features[:-1] + [FeatureSpec("id", kind="discrete", role=META), ds.features[-1]]
    return Dataset(feats, [r[:-1] + [f"r{k}", r[-1]] for k, r in enumerate(ds.rows)], ds.objective)


def with_gaps(ds, rng, share):
    """ds with about ``share`` of its independent cells missing."""
    free = [i for i, f in enumerate(ds.features) if f.role == INDEPENDENT]
    rows = [[None if i in free and rng.random() < share else c for i, c in enumerate(r)] for r in ds.rows]
    return Dataset(ds.features, rows, ds.objective)


def drawn_split(source, data_seed, n_rows):
    """Train and test sets, with their rules, for properties over either
    generator: "planted" rows (``n_rows`` to train on, a quarter as many to
    test) with a meta column and about 10% missing independent cells, or
    ``n_rows`` "config" rows split in halves, whose rules cull some plans."""
    if source == "planted":
        rng = random.Random(data_seed)
        tr, te = planted_defect_data(n_rows, n_rows // 4 + 1, data_seed)
        return with_gaps(with_meta(tr), rng, 0.1), with_gaps(with_meta(te), rng, 0.1), None
    ds, rules = config_runtime_data(n_rows, data_seed)
    tr, te = split(ds, SplitSpec(seed=data_seed))
    return tr, te, rules


def two_blob_data(per_blob=50, seed=0, spread=1.0, gap=50.0):
    """Two well-separated Gaussian blobs on two numeric features; the blob
    id is recorded in the dependent so label purity can be checked."""
    rng = random.Random(seed)
    feats = [FeatureSpec("x"), FeatureSpec("y"), FeatureSpec("cost", role="dependent")]
    rows = []
    for blob, (cx, cy, dep) in enumerate([(0.0, 0.0, 1.0), (gap, gap, 9.0)]):
        for _ in range(per_blob):
            rows.append([rng.gauss(cx, spread), rng.gauss(cy, spread), dep])
    return Dataset(feats, rows, MINIMIZE_VALUE)


@pytest.fixture(scope="session")
def planted():
    """One combined planted-signal dataset; tests split it as needed."""
    train, test = planted_defect_data()
    return Dataset(train.features, train.rows + test.rows, MINIMIZE_RATE)


@pytest.fixture
def blobs():
    return two_blob_data()
