"""Experiment harness: train, gate, plan, re-predict, report ratios.

One experiment plans every test row with one method and reports
R = after/before, where "before" is the predicted defect count (or
predicted runtime sum) on the untouched test rows and "after" the same
statistic on the changed rows. The repeats run seed by seed: each seed
trains one forest on the train split, predicts the test split once to
check it (aborting when it is not good enough to judge plans) and builds
the training-side planner artifacts, which every method of that seed
shares. An experiment finds the rows its plans moved in the pass that
applies and culls the plans, and encodes, re-predicts and measures only
those; every other row keeps the seed's prediction and its nearest
distance, which no seed changes. Each artifact is built once at the level
it depends on: xtree's tree, each test row's leaf and each leaf's target,
its ranges clipped, once per run, so a seed's xtree plans only draw their
samples; cd's move once per cluster per seed, shared by the cluster's rows.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import asdict, dataclass, replace
from functools import cached_property
from typing import get_type_hints

import numpy as np

from xplan.data_model import DataError, read_lines
from xplan.discretize import rank_features
from xplan.decision_tree import build_tree, locate_leaf
from xplan.num_core import DistanceConfig, distance, encode, squared_distance
from xplan.planners import (
    Plan,
    apply_plan,
    bic_gradients,
    cd_moves,
    check_constraints,
    plan_bic,
    plan_cd,
    plan_cdfs,
    plan_xtree,
    xtree_targets,
)
from xplan.predictor import (
    CLASSIFY,
    ForestModel,
    ForestParams,
    GateError,
    forest_input,
    gate,
    score_classifier,
    score_regressor,
    train_forest,
)
from xplan.scott_knott import MethodSamples
from xplan.where_cluster import cluster

ALL_METHODS = ("identity", "cd", "cdfs", "bic", "xtree")
# Distances per block of nearest_distances, which sizes its two buffers. On a
# 2-core VM a 1000x3000 planted matrix took 0.068, 0.048, 0.038, 0.028, 0.033
# and 0.044 s at 2^13 ... 2^18 cells (median of 7). Larger blocks are faster,
# but the buffers arrive while a seed's artifacts are resident: 2^15's 0.5 MB
# found no free heap and mapped fresh pages, raising a planted-600 eval's peak
# RSS by 0.4-0.5 MB, at 5 of 10 checkout path lengths tried; 2^14's 0.25 MB
# at none.
_BLOCK_CELLS = 1 << 14


@dataclass
class ExperimentResult:
    method: str
    seed: int
    ratio: float               # nan when before == 0
    before: float
    after: float
    plans_emitted: int
    empty_plans: int
    changed_features: list     # features changed at least once this repeat
    trust_before: float        # mean nearest-training distance, original test
    trust_after: float         # same, over the changed rows
    ratio_defined: bool = True

    def to_json(self):
        return {**asdict(self), "ratio": None if math.isnan(self.ratio) else self.ratio}

    @classmethod
    def from_json(cls, raw):
        """The result of a ``to_json`` object; TypeError for anything else."""
        r = cls(**{**raw, "ratio": math.nan if raw.get("ratio") is None else raw["ratio"]})
        bad = [name for name, t in get_type_hints(cls).items()
               if not isinstance(getattr(r, name), (int, float) if t is float else t)]
        if bad or not all(isinstance(f, str) for f in r.changed_features):
            raise TypeError(f"bad {', '.join(bad or ['changed_features'])}")
        return r


@dataclass
class ChangeFrequencyReport:
    method: str
    per_feature: dict   # feature -> percent of repeats it was changed in
    mean_fraction: float


def _total(mode, preds):
    """Predicted defect count (classifier) or runtime sum (regressor)."""
    if mode == CLASSIFY:
        return float(sum(1 for p in preds if p))
    return float(sum(preds))


class RunArtifacts:
    """One train/test split with its planner settings, feature model and
    forest parameters, plus what every seed of a run shares: the encoded
    train and test rows, the forest's input and, built on first use,
    xtree's target for each test row (its tree, each row's leaf and each
    leaf's target are built once; ``build_tree`` draws no random numbers)
    and each test row's distance to its nearest training row. Each seed's
    feature ranking reads the encoded training rows too."""

    def __init__(self, train, test, cfg, fm=None, forest_params=None):
        self.train = train
        self.test = test
        self.cfg = cfg
        self.fm = fm
        self.forest_params = forest_params or ForestParams()
        self.dcfg = DistanceConfig.from_dataset(train)
        self.encoded_train = encode(train.rows, self.dcfg)
        self.encoded_test = encode(test.rows, self.dcfg)
        self.forest_input = forest_input(train, self.encoded_train)

    @cached_property
    def xtree_row_targets(self):
        """xtree's target of each test row's leaf, in the tree grown on the forest's targets."""
        _, targets, *_ = self.forest_input
        tree = build_tree(self.train, self.encoded_train, targets, self.cfg.alpha)
        by_leaf = xtree_targets(tree, self.cfg.gamma, self.train)
        return [by_leaf[locate_leaf(tree, z, self.test).leaf_pos] for z in self.test.rows]

    @cached_property
    def nearest(self):
        """Distance from each test row to its nearest training row."""
        return nearest_distances(self.encoded_train, self.encoded_test)

    def for_seed(self, seed, methods):
        """Fit and gate this seed's forest on its predictions for the
        untouched test rows, and build a per-row planner for each method;
        raises GateError when the forest is too weak to judge plans."""
        unknown = [m for m in methods if m not in ALL_METHODS]
        if unknown:
            raise ValueError(f"unknown method {unknown[0]!r}")
        model = train_forest(self.forest_input, replace(self.forest_params, seed=seed))
        predicted = model.predict(self.encoded_test)
        score = (score_classifier if model.mode == CLASSIFY else score_regressor)(self.test, predicted)
        if not gate(score):
            raise GateError(score)
        before = _total(model.mode, predicted)
        return SeedArtifacts(self, seed, model, predicted, before, self._planners(seed, methods))

    def _planners(self, seed, methods):
        """Per-row plan functions ``test row index -> Plan``. xtree draws its
        samples from the row's own ``random.Random(f"{seed}:{i}")``. cd, cdfs
        and bic share one clustering of this seed and the test rows' centroid
        distances, cdfs and bic one ranking; cd's plans share each cluster's
        deltas, each call copies a row's provenance, and cdfs filters them."""
        train, test, cfg = self.train, self.test, self.cfg
        wanted = set(methods)
        planners = {"identity": lambda _i: Plan([], "identity")}
        if "xtree" in wanted:
            xtree_rows = self.xtree_row_targets
            planners["xtree"] = lambda i: plan_xtree(xtree_rows[i], random.Random(f"{seed}:{i}"))
        if wanted & {"cd", "cdfs", "bic"}:
            rng = random.Random(f"{seed}:artifacts")
            clusters = cluster(train, cfg.alpha, rng, self.encoded_train)
            centroids = encode([c.centroid for c in clusters], self.dcfg)
            to_centroids = distance(self.encoded_test, centroids)
            between = distance(centroids, centroids).tolist()
        if wanted & {"cd", "cdfs"}:
            moves = cd_moves(clusters, between, train)
            cd_plans = [plan_cd(clusters, moves, d) for d in to_centroids]
            planners["cd"] = lambda i: Plan(cd_plans[i].deltas, "cd", dict(cd_plans[i].provenance))
        if wanted & {"cdfs", "bic"}:
            ids = {i: c.index for c in clusters for i in c.members}
            ranking = rank_features(self.encoded_train, [ids[i] for i in range(len(train.rows))], cfg.beta)
        if "cdfs" in wanted:
            planners["cdfs"] = lambda i: plan_cdfs(cd_plans[i], ranking)
        if "bic" in wanted:
            gradients = bic_gradients(clusters, between)
            planners["bic"] = lambda i: plan_bic(gradients, ranking, test.rows[i], to_centroids[i], train)
        return planners


@dataclass
class SeedArtifacts:
    """What every method of one seed shares: the gated forest, its
    predictions for the untouched test rows and their total, and the
    per-row planners."""

    run: RunArtifacts
    seed: int
    model: ForestModel
    predicted: list  # per test row
    before: float
    planners: dict  # method -> test row index -> Plan


def nearest_distances(train, rows):
    """Distance from each encoded row to its nearest encoded training row: the
    full matrix's minima, over blocks of at most ``_BLOCK_CELLS`` cells (or one
    row). The block's sums and one feature's terms live in two buffers
    allocated once per call and reused by every block and feature; the sums
    are added in the same order as the allocating kernel's. Only the minima
    are rooted: the root is monotone and correctly rounded, so the root of a
    minimum is the minimum of the roots."""
    nearest = np.empty(len(rows))
    step = max(1, _BLOCK_CELLS // max(1, len(train)))
    buffers = np.empty((2, min(step, len(rows)), len(train)))
    for lo in range(0, len(rows), step):
        block = rows.take(slice(lo, lo + step))
        out, scratch = buffers[:, :len(block)]
        nearest[lo:lo + step] = squared_distance(block, train, out, scratch).min(axis=1)
    return np.sqrt(nearest, out=nearest)


def trust_report(train, moved, rows, before):
    """Mean distance to the nearest of the encoded training rows before
    and after the changes, as a pair. ``before`` holds each test row's
    nearest distance; the rows at positions ``moved``, changed and encoded
    as ``rows``, are measured, and every other row keeps its distance."""
    after = before.copy()
    after[moved] = nearest_distances(train, rows)
    return float(np.mean(before)), float(np.mean(after))


def run_experiment(train, test, method, arts):
    """Plan every test row with one method from one seed's shared
    artifacts (built from this train/test split), and report the ratio,
    plan counts and trust. The pass that applies and culls the plans
    also finds the rows they moved: only those are encoded, re-predicted
    and measured. A row's prediction does not depend on the other rows
    predicted with it, so an unmoved row keeps the seed's prediction bit
    for bit. A cell differs exactly when its encoding does: rows hold no
    NaN, and a plan's new symbols take their codes in row order."""
    run, planner = arts.run, arts.planners[method]
    moved, changed, touched = [], [], set()
    emitted = 0
    for i, z in enumerate(test.rows):
        plan = planner(i)
        if plan.empty:
            continue
        candidate = apply_plan(z, plan, train)
        if run.fm is not None and check_constraints(candidate, run.fm, train):
            continue  # culled
        emitted += 1
        diff = [f.name for f, a, b in zip(train.features, candidate, z) if a != b]
        touched.update(diff)
        if diff:
            moved.append(i)
            changed.append(candidate)

    before, predicted = arts.before, list(arts.predicted)
    rows = encode(changed, run.dcfg)
    if moved:  # identity moves none
        for i, p in zip(moved, arts.model.predict(rows)):
            predicted[i] = p
    after = _total(arts.model.mode, predicted)
    trust_before, trust_after = trust_report(run.encoded_train, moved, rows, run.nearest)
    return ExperimentResult(
        method=method,
        seed=arts.seed,
        ratio=after / before if before > 0 else math.nan,
        before=before,
        after=after,
        plans_emitted=emitted,
        empty_plans=len(test.rows) - emitted,
        changed_features=sorted(touched),
        trust_before=trust_before,
        trust_after=trust_after,
        ratio_defined=before > 0,
    )


def run_repeats(train, test, methods, cfg, n=40, base_seed=1, fm=None, forest_params=None):
    """n seeded repeats per method; every method sees the same seeds and,
    within a seed, the same forest and training-side artifacts."""
    if n < 1:
        raise ValueError("need at least one repeat")
    run = RunArtifacts(train, test, cfg, fm, forest_params)
    results = {m: [] for m in methods}
    for i in range(n):
        arts = run.for_seed(base_seed + i, methods)
        for m in methods:
            results[m].append(run_experiment(train, test, m, arts))
    return results


def change_frequency(results, features):
    """Per-feature percent of repeats with a change, plus the mean changed
    fraction per repeat."""
    if not results:
        raise ValueError("no results")
    per_feature = {
        f: 100 * sum(1 for r in results if f in r.changed_features) / len(results)
        for f in features
    }
    mean_fraction = sum(len(r.changed_features) / len(features) for r in results) / len(results)
    return ChangeFrequencyReport(results[0].method, per_feature, mean_fraction)


def method_samples(results):
    """Scott-Knott input from per-method result lists; undefined ratios
    are dropped, and so is a method left with none."""
    samples = [
        MethodSamples(m, [r.ratio for r in rs if r.ratio_defined])
        for m, rs in results.items()
    ]
    return [s for s in samples if s.values]


def write_jsonl(results, path):
    with open(path, "w") as fh:
        for rs in results.values():
            for r in rs:
                fh.write(json.dumps(r.to_json(), sort_keys=True) + "\n")


def read_jsonl(path):
    """Results as ``write_jsonl`` saves them; any other line is a DataError."""
    results = {}
    for lineno, line in enumerate(read_lines(path), start=1):
        if not line.strip():
            continue
        try:
            r = ExperimentResult.from_json(json.loads(line))
        except (TypeError, ValueError) as exc:
            raise DataError(f"{path}:{lineno}: not a result record: {exc}") from None
        results.setdefault(r.method, []).append(r)
    return results


def write_csv_summary(results, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["method", "seed", "ratio", "before", "after", "plans_emitted",
             "empty_plans", "trust_before", "trust_after"]
        )
        for rs in results.values():
            for r in rs:
                writer.writerow(
                    [r.method, r.seed, "" if math.isnan(r.ratio) else r.ratio,
                     r.before, r.after, r.plans_emitted, r.empty_plans,
                     r.trust_before, r.trust_after]
                )
