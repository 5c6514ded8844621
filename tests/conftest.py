"""Shared fixtures: small synthetic datasets with known structure."""

import csv
import random

import pytest

from xplan.data_model import (
    MINIMIZE_RATE,
    MINIMIZE_VALUE,
    MISSING,
    Dataset,
    FeatureSpec,
)
from xplan.num_core import DistanceConfig, encode
from xplan.predictor import forest_input, train_forest


def _format_cell(cell):
    if cell is None:
        return MISSING
    if isinstance(cell, bool):
        return "1" if cell else "0"
    if isinstance(cell, float):
        return repr(cell)
    return str(cell)


def fit_forest(ds, params, mode=None):
    """A forest on ds, and its predictions for rows encoded as a run
    encodes them: with the config of ds."""
    encoded = encode(ds.rows, DistanceConfig.from_dataset(ds))
    model = train_forest(forest_input(ds, encoded, mode), params)
    return model, lambda rows: model.predict(encode(rows, encoded.cfg))


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
