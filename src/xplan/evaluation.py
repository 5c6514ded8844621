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
distance, which no seed changes. Every distance, the trust distances
included, comes from ``num_core``'s kernel, which builds each matrix in
blocks. Each artifact is built once at the level it depends on: xtree's
tree, each test row's leaf and each leaf's target, its ranges clipped, and
whether that target draws, once per run, so a seed's xtree plans only draw
their samples, from a generator built only for a row whose target draws;
cd's move once per cluster per seed, shared by the cluster's rows.
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
from xplan.num_core import DistanceConfig, distance, encode, nearest_distances
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
    xtree_draws,
    xtree_targets,
)
from xplan.predictor import ForestModel, ForestParams, GateError, forest_input, gate, train_forest
from xplan.scott_knott import MethodSamples
from xplan.where_cluster import cluster

ALL_METHODS = ("identity", "cd", "cdfs", "bic", "xtree")


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


class RunArtifacts:
    """One train/test split with its planner settings, feature model and
    forest parameters, plus what every seed of a run shares: the encoded
    train and test rows, the forest's input and, built on first use,
    xtree's target for each test row and whether it draws (its tree, each
    row's leaf and each leaf's target are built once; ``build_tree`` draws
    no random numbers) and each test row's distance to its nearest training
    row. Each seed's feature ranking reads the encoded training rows too."""

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
        """xtree's target of each test row's leaf, in the tree grown on the
        forest's targets, with whether it draws, as ``(target, draws)``."""
        _, targets, *_ = self.forest_input
        tree = build_tree(self.train, self.encoded_train, targets, self.cfg.alpha)
        by_leaf = [(t, xtree_draws(t)) for t in xtree_targets(tree, self.cfg.gamma, self.train)]
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
        forest = train_forest(self.forest_input, replace(self.forest_params, seed=seed))
        predicted = forest.predict(self.encoded_test)
        score = forest.score(self.test, predicted)
        if not gate(score):
            raise GateError(score)
        return SeedArtifacts(self, seed, forest, predicted, float(sum(predicted)), self._planners(seed, methods))

    def _planners(self, seed, methods):
        """Per-row plan functions ``test row index -> Plan``. xtree draws its
        samples from the row's own ``random.Random(f"{seed}:{i}")``, built
        only when the row's target draws. cd, cdfs and bic share one
        clustering of this seed and the test rows' centroid distances, cdfs
        and bic one ranking; cd's plans share each cluster's deltas, each call
        copies a row's provenance, and cdfs filters them."""
        train, test, cfg = self.train, self.test, self.cfg
        wanted = set(methods)
        planners = {"identity": lambda _i: Plan([], "identity")}
        if "xtree" in wanted:
            xtree_rows = self.xtree_row_targets

            def xtree_plan(i):
                target, draws = xtree_rows[i]
                return plan_xtree(target, random.Random(f"{seed}:{i}") if draws else None)

            planners["xtree"] = xtree_plan
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
    forest: ForestModel
    predicted: list  # per test row
    before: float
    planners: dict  # method -> test row index -> Plan


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
        for i, p in zip(moved, arts.forest.predict(rows)):
            predicted[i] = p
    after = float(sum(predicted))  # defect count (a bool counts 1) or runtime sum
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
    """Scott-Knott input from per-method result lists; undefined and
    non-finite ratios are dropped, and so is a method left with none."""
    samples = [
        MethodSamples(m, [r.ratio for r in rs if r.ratio_defined and math.isfinite(r.ratio)])
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
