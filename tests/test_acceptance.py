"""End-to-end acceptance checks.

Each test states one observable guarantee of the pipeline; together they
cover the end-to-end planted-structure experiment, the statistical
machinery (ranking, effect size, discretization, projection), the
predictor stack, and the trust/succinctness properties of the planners.
"""

import math
import random
import statistics
import time

import pytest

from xplan.data_model import MINIMIZE_RATE, Dataset, FeatureSpec
from xplan.discretize import mdl_discretize
from xplan.evaluation import change_frequency, run_repeats
from xplan.num_core import DistanceConfig, distance, encode
from xplan.planners import PlannerConfig
from xplan.predictor import (
    ClassifierScore,
    ForestParams,
    gate,
    score_classifier,
    smote,
    tune_de,
)
from xplan.scott_knott import MethodSamples, a12, scott_knott_rank
from xplan.where_cluster import cluster, project
from tests.conftest import encoded, fit_forest, planted_defect_data, two_blob_data

REPEATS = 40
FOREST = ForestParams(n_trees=15)


@pytest.fixture(scope="module")
def planted_runs():
    """The planted-signal experiment shared by several criteria: identity,
    xtree and cd over 40 seeded repeats, with the identity+xtree wall time
    recorded."""
    train, test = planted_defect_data()
    cfg = PlannerConfig()
    start = time.monotonic()
    timed = run_repeats(train, test, ["identity", "xtree"], cfg, n=REPEATS,
                        base_seed=1, forest_params=FOREST)
    elapsed = time.monotonic() - start
    cd = run_repeats(train, test, ["cd"], cfg, n=REPEATS, base_seed=1,
                     forest_params=FOREST)
    return {**timed, **cd}, elapsed, train


class TestPlantedEndToEnd:
    def test_xtree_median_ratio_below_080(self, planted_runs):
        results, _, _ = planted_runs
        ratios = [r.ratio for r in results["xtree"]]
        assert len(ratios) == REPEATS
        assert statistics.median(ratios) < 0.8

    def test_identity_ratio_exactly_one(self, planted_runs):
        results, _, _ = planted_runs
        assert all(r.ratio == 1.0 for r in results["identity"])

    def test_runtime_under_60s(self, planted_runs):
        _, elapsed, _ = planted_runs
        assert elapsed < 60


class TestRankingRecovery:
    def test_three_ranks_with_shared_middle(self):
        wins = 0
        for trial in range(100):
            rng = random.Random(trial)
            samples = [
                MethodSamples(name, [rng.gauss(mu, 0.1) for _ in range(40)])
                for name, mu in [("a", 0.2), ("b", 0.5), ("c", 0.5), ("d", 0.9)]
            ]
            report = scott_knott_rank(samples, rng=random.Random(1000 + trial))
            ranks = {e.method: e.rank for e in report.entries}
            if (max(ranks.values()) == 3 and ranks["a"] == 1
                    and ranks["b"] == ranks["c"] == 2 and ranks["d"] == 3):
                wins += 1
        assert wins >= 95


def test_a12_matches_enumeration_oracle_exactly():
    rng = random.Random(0)
    for _ in range(1000):
        m = [rng.randint(0, 4) for _ in range(rng.randint(1, 8))]
        n = [rng.randint(0, 4) for _ in range(rng.randint(1, 8))]
        wins = sum(1.0 if x > y else 0.5 if x == y else 0.0 for x in m for y in n)
        assert a12(m, n) == wins / (len(m) * len(n))


class TestDiscretizer:
    def test_clean_gap_single_cut(self):
        bins = mdl_discretize([1, 2, 3, 101, 102, 103],
                              ["a", "a", "a", "b", "b", "b"], "v")
        assert len(bins) == 2
        assert 3 < bins[0].hi <= 101

    def test_shuffled_labels_rarely_cut(self):
        rng = random.Random(42)
        cut = 0
        for _ in range(100):
            values = [rng.random() for _ in range(20)]
            labels = [rng.choice("ab") for _ in range(20)]
            if len(mdl_discretize(values, labels, "v")) > 1:
                cut += 1
        assert cut <= 10


class TestProjectionIdentities:
    def test_pivot_identities_on_random_pairs(self):
        feats = [FeatureSpec("x"), FeatureSpec("y"),
                 FeatureSpec("bug", role="dependent")]
        rng = random.Random(0)
        base = [[rng.uniform(0, 100), rng.uniform(0, 100), False] for _ in range(50)]
        # pin the normalization bounds so no probe point gets clamped
        base += [[0.0, 0.0, False], [100.0, 100.0, False]]
        ds = Dataset(feats, base, MINIMIZE_RATE)
        cfg = DistanceConfig.from_dataset(ds)
        checked = 0
        while checked < 1000:
            a = [rng.uniform(0, 100), rng.uniform(0, 100), False]
            b = [rng.uniform(0, 100), rng.uniform(0, 100), False]
            mid = [(a[0] + b[0]) / 2, (a[1] + b[1]) / 2, False]
            rows = encode([a, b, mid], cfg)
            to_a = distance(rows, rows.take([0]))[:, 0]
            to_b = distance(rows, rows.take([1]))[:, 0]
            c = to_a[1]
            if c <= 0:
                continue
            pa, pb, pmid = project(to_a, to_b, c)
            assert abs(pa) < 1e-9
            assert abs(pb - c) < 1e-9
            assert abs(pmid - c / 2) < 1e-9
            checked += 1

    def test_clustering_partitions_every_fixture(self):
        fixtures = [two_blob_data(), planted_defect_data()[0],
                    planted_defect_data(n_train=37)[0]]
        for ds in fixtures:
            leaves = cluster(ds, None, random.Random(0), encoded(ds))
            seen = sorted(i for leaf in leaves for i in leaf.members)
            assert seen == list(range(len(ds.rows)))


class TestTrust:
    def test_changed_rows_stay_near_training_data(self, planted_runs):
        results, _, _ = planted_runs
        for r in results["xtree"]:
            assert r.trust_after <= r.trust_before + 0.05


class TestSuccinctness:
    def test_xtree_changes_fewer_features_than_cd(self, planted_runs):
        results, _, train = planted_runs
        features = [f.name for f in train.independent]
        xt = change_frequency(results["xtree"], features)
        cd = change_frequency(results["cd"], features)
        assert xt.mean_fraction < cd.mean_fraction
        # cd touches every feature its paired centroids disagree on; with
        # continuous features that is all of them, every repeat
        assert all(v == 100.0 for v in cd.per_feature.values())
        # reported for eyeballing against the "around a fifth" expectation
        print(f"xtree mean changed-feature fraction: {xt.mean_fraction:.2f}")


class TestPredictorSanity:
    def separable(self, n=60, seed=0):
        rng = random.Random(seed)
        feats = [FeatureSpec("x"), FeatureSpec("y"),
                 FeatureSpec("bug", role="dependent")]
        rows = []
        for i in range(n):
            x = rng.uniform(0, 10) if i % 2 else rng.uniform(20, 30)
            rows.append([x, rng.random(), x > 15])
        return Dataset(feats, rows, MINIMIZE_RATE)

    def test_single_tree_memorizes_training_data(self):
        for seed in range(3):
            ds = self.separable(seed=seed)
            _, predict = fit_forest(ds, ForestParams(n_trees=1))
            assert predict(ds.rows) == ds.dep_values()

    def test_tuned_never_worse_than_default(self):
        from xplan.data_model import SplitSpec, split

        ds = self.separable(n=80, seed=1)
        params = tune_de(ds, budget=40, seed=3)
        fit, val = split(ds, SplitSpec(seed=3))

        def fitness(p):
            s = score_classifier(val, fit_forest(fit, p)[1](val.rows))
            pd = 0 if math.isnan(s.pd) else s.pd
            pf = 100 if math.isnan(s.pf) else s.pf
            return pd - pf

        default = ForestParams(max_depth=30, features_per_split=2, seed=3)
        assert fitness(params) >= fitness(default) - 1e-9

    def test_smote_hits_exact_balance(self):
        feats = [FeatureSpec("x"), FeatureSpec("y"),
                 FeatureSpec("bug", role="dependent")]
        for trial in range(20):
            rng = random.Random(trial)
            n_maj = rng.randint(8, 30)
            n_min = rng.randint(2, n_maj - 1)
            rows = [[rng.random(), rng.random(), False] for _ in range(n_maj)]
            rows += [[rng.random(), rng.random(), True] for _ in range(n_min)]
            ds = Dataset(feats, rows, MINIMIZE_RATE)
            out = smote(ds, rng=random.Random(100 + trial))
            dep = out.dep_values()
            assert sum(dep) == n_maj and len(dep) - sum(dep) == n_maj


class TestGateFidelity:
    def score_from_counts(self, tp, fn, fp, tn):
        actual = [True] * (tp + fn) + [False] * (fp + tn)
        preds = ([True] * tp + [False] * fn + [True] * fp + [False] * tn)
        feats = [FeatureSpec("x"), FeatureSpec("bug", role="dependent")]
        ds = Dataset(feats, [[float(i), a] for i, a in enumerate(actual)],
                     MINIMIZE_RATE)
        return score_classifier(ds, preds)

    def test_rates_match_hand_arithmetic(self):
        rng = random.Random(0)
        for _ in range(50):
            tp, fn, fp, tn = (rng.randint(0, 20) for _ in range(4))
            if tp + fn + fp + tn == 0:
                continue
            sc = self.score_from_counts(tp, fn, fp, tn)
            if tp + fn:
                assert sc.pd == 100 * tp / (tp + fn)
            else:
                assert math.isnan(sc.pd)
            if fp + tn:
                assert sc.pf == 100 * fp / (fp + tn)
            else:
                assert math.isnan(sc.pf)

    def test_threshold_examples(self):
        assert gate(ClassifierScore(65, 28))
        assert not gate(ClassifierScore(60, 40))


@pytest.mark.skip(reason="needs the public defect CSVs, which this "
                         "environment cannot download")
def test_public_dataset_envelope():
    """Tuned pipeline on a public defect dataset: pd in [50, 80] and
    pf in [15, 45]."""
