"""Experiment harness: train, gate, plan, re-predict, report ratios.

One experiment plans every test row with one method and reports
R = after/before, where "before" is the predicted defect count (or
predicted runtime sum) on the untouched test rows and "after" the same
statistic on the changed rows. The repeats run seed by seed: each seed
trains one forest on the train split, checks it against the test split
(aborting when it is not good enough to judge plans) and builds the
training-side planner artifacts, which every method of that seed shares.
Artifacts that no seed changes are built once per run.
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
from xplan.decision_tree import build_tree
from xplan.num_core import DistanceConfig, distance, encode
from xplan.planners import (
    Plan,
    apply_plan,
    bic_gradients,
    cd_targets,
    check_constraints,
    plan_bic,
    plan_cd,
    plan_cdfs,
    plan_xtree,
)
from xplan.predictor import (
    CLASSIFY,
    ForestModel,
    ForestParams,
    forest_input,
    gate,
    score_classifier,
    score_regressor,
    train_forest,
)
from xplan.scott_knott import MethodSamples
from xplan.where_cluster import ClusterConfig, cluster

ALL_METHODS = ("identity", "cd", "cdfs", "bic", "xtree")
_BLOCK_CELLS = 1 << 16  # distances per block of nearest_distances: bounds its temporaries


class GateError(RuntimeError):
    """Predictor too weak to judge plans; carries the offending score."""

    def __init__(self, score):
        self.score = score
        super().__init__(f"predictor gate failed: {score}")


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
class TrustReport:
    before_mean: float
    after_mean: float


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
    xtree's tree with its leaf centroids (``build_tree`` draws no random
    numbers; it reads the encoded training rows and the forest's targets)
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
    def tree(self):
        _, targets, *_ = self.forest_input
        return build_tree(self.train, self.encoded_train, targets, self.cfg.alpha)

    @cached_property
    def nearest(self):
        """Distance from each test row to its nearest training row."""
        return nearest_distances(self.encoded_train, self.encoded_test)

    def for_seed(self, seed, methods):
        """Fit and gate this seed's forest, predict the untouched test rows
        once, and build a per-row planner for each method; raises GateError
        when the forest is too weak to judge plans."""
        unknown = [m for m in methods if m not in ALL_METHODS]
        if unknown:
            raise ValueError(f"unknown method {unknown[0]!r}")
        model = train_forest(self.forest_input, replace(self.forest_params, seed=seed))
        predicted = model.predict(self.encoded_test)
        score = (score_classifier if model.mode == CLASSIFY else score_regressor)(self.test, predicted)
        if not gate(score):
            raise GateError(score)
        before = _total(model.mode, predicted)
        return SeedArtifacts(self, seed, model, before, self._planners(seed, methods))

    def _planners(self, seed, methods):
        """Per-row plan functions ``(test row index, row_rng) -> Plan``. cd,
        cdfs and bic share one clustering of this seed and the test rows'
        centroid distances, cdfs and bic one ranking; cdfs filters cd's plans."""
        train, test, cfg = self.train, self.test, self.cfg
        wanted = set(methods)
        planners = {"identity": lambda i, row_rng: Plan([], "identity")}
        if "xtree" in wanted:
            tree = self.tree
            planners["xtree"] = lambda i, row_rng: plan_xtree(tree, test.rows[i], cfg, row_rng, train)
        if wanted & {"cd", "cdfs", "bic"}:
            rng = random.Random(f"{seed}:artifacts")
            clusters = cluster(train, ClusterConfig(cfg.alpha), rng, self.encoded_train)
            centroids = encode([c.centroid for c in clusters], self.dcfg)
            to_centroids = distance(self.encoded_test, centroids)
        if wanted & {"cd", "cdfs"}:
            targets = cd_targets(clusters, centroids)
            cd_plans = [plan_cd(clusters, targets, d, train) for d in to_centroids]
            planners["cd"] = lambda i, row_rng: cd_plans[i]
        if wanted & {"cdfs", "bic"}:
            ids = {i: c.index for c in clusters for i in c.members}
            ranking = rank_features(self.encoded_train, [ids[i] for i in range(len(train.rows))], cfg.beta)
        if "cdfs" in wanted:
            planners["cdfs"] = lambda i, row_rng: plan_cdfs(cd_plans[i], ranking)
        if "bic" in wanted:
            gradients = bic_gradients(clusters, centroids)
            planners["bic"] = lambda i, row_rng: plan_bic(gradients, ranking, test.rows[i],
                                                          to_centroids[i], train)
        return planners


@dataclass
class SeedArtifacts:
    """What every method of one seed shares: the gated forest, its
    prediction for the untouched test rows and the per-row planners."""

    run: RunArtifacts
    seed: int
    model: ForestModel
    before: float
    planners: dict  # method -> (test row index, row_rng) -> Plan


def nearest_distances(train, rows):
    """Distance from each encoded row to its nearest encoded training row: the
    full matrix's minima, over blocks of at most ``_BLOCK_CELLS`` cells (or one row)."""
    nearest = np.empty(len(rows))
    step = max(1, _BLOCK_CELLS // max(1, len(train)))
    for lo in range(0, len(rows), step):
        nearest[lo:lo + step] = distance(rows.take(slice(lo, lo + step)), train).min(axis=1)
    return nearest


def trust_report(train, test, changed, before):
    """Mean distance to the nearest of the encoded training rows before
    and after the changes, from the encoded test rows and changed rows.

    ``before`` holds the nearest distances of ``test``; a changed row
    equal to its test row keeps that distance, the others are measured.
    """
    after = before.copy()
    same = (test.cols == changed.cols) | (np.isnan(test.cols) & np.isnan(changed.cols))
    moved = np.flatnonzero(~same.all(axis=0))
    after[moved] = nearest_distances(train, changed.take(moved))
    return TrustReport(float(np.mean(before)), float(np.mean(after)))


def run_experiment(train, test, method, arts):
    """Plan every test row with one method from one seed's shared
    artifacts (built from this train/test split), re-predict the changed
    rows and report the ratio, plan counts and trust."""
    run, seed = arts.run, arts.seed
    planner = arts.planners[method]
    changed = []
    emitted = empty = 0
    touched = set()
    for i, z in enumerate(test.rows):
        row_rng = random.Random(f"{seed}:{i}")
        plan = planner(i, row_rng)
        if not plan.empty:
            candidate = apply_plan(z, plan, train)
            if run.fm is not None and check_constraints(candidate, run.fm, train):
                plan, candidate = Plan([], plan.method), list(z)  # culled
            else:
                emitted += 1
                touched.update(
                    d.feature for d in plan.deltas if candidate[train.index(d.feature)] != z[train.index(d.feature)]
                )
        else:
            candidate = list(z)
        if plan.empty:
            empty += 1
        changed.append(candidate)

    before = arts.before
    encoded = encode(changed, run.dcfg)
    after = _total(arts.model.mode, arts.model.predict(encoded))
    ratio = after / before if before > 0 else math.nan
    trust = trust_report(run.encoded_train, run.encoded_test, encoded, run.nearest)
    return ExperimentResult(
        method=method,
        seed=seed,
        ratio=ratio,
        before=before,
        after=after,
        plans_emitted=emitted,
        empty_plans=empty,
        changed_features=sorted(touched),
        trust_before=trust.before_mean,
        trust_after=trust.after_mean,
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
