import random

import pytest

from xplan.data_model import (
    MINIMIZE_RATE,
    MINIMIZE_VALUE,
    DataError,
    Dataset,
    FeatureSpec,
)
from xplan.decision_tree import locate_leaf
from xplan.discretize import FeatureRanking
from xplan.num_core import DistanceConfig, distance, encode
from xplan.planners import (
    SAMPLE,
    SET,
    SHIFT,
    Delta,
    FeatureModel,
    Plan,
    PlannerConfig,
    apply_plan,
    bic_gradients,
    cd_targets,
    check_constraints,
    load_feature_model,
    plan_bic,
    plan_cd,
    plan_cdfs,
    plan_xtree,
)
from xplan.where_cluster import ClusterConfig, ClusterSummary, cluster
from tests.conftest import tree_of


def two_cluster_fixture():
    """Cluster 0 is bad (high defect rate), cluster 1 is good."""
    feats = [
        FeatureSpec("loc"),
        FeatureSpec("wmc"),
        FeatureSpec("opt", kind="discrete"),
        FeatureSpec("bug", role="dependent"),
    ]
    rows = []
    for i in range(20):
        rows.append([500.0 + i, 40.0, "big", i % 4 != 0])   # mostly defective
    for i in range(20):
        rows.append([100.0 + i, 10.0, "small", i % 4 == 0])  # mostly clean
    ds = Dataset(feats, rows, MINIMIZE_RATE)
    clusters = [
        ClusterSummary(0, list(range(20)),
                       [509.5, 40.0, "big", None], rows[0], 0.75),
        ClusterSummary(1, list(range(20, 40)),
                       [109.5, 10.0, "small", None], rows[20], 0.25),
    ]
    return ds, clusters


def centroid_inputs(clusters, z, ds):
    """Encoded centroids of the clusters and the row's distance to each."""
    dcfg = DistanceConfig.from_dataset(ds)
    centroids = encode([c.centroid for c in clusters], dcfg)
    return centroids, distance(encode([z], dcfg), centroids)[0]


def cd(clusters, z, ds):
    centroids, to_z = centroid_inputs(clusters, z, ds)
    return plan_cd(clusters, cd_targets(clusters, centroids), to_z, ds)


def cdfs(clusters, ranking, z, ds):
    return plan_cdfs(cd(clusters, z, ds), ranking)


def bic(clusters, ranking, z, ds):
    centroids, to_z = centroid_inputs(clusters, z, ds)
    return plan_bic(bic_gradients(clusters, centroids), ranking, z, to_z, ds)


class TestPlanCd:
    def test_plan_moves_toward_better_centroid(self):
        ds, clusters = two_cluster_fixture()
        z = [505.0, 41.0, "big", True]
        plan = cd(clusters, z, ds)
        by_name = {d.feature: d for d in plan.deltas}
        assert by_name["loc"].kind == SHIFT
        assert by_name["loc"].value == pytest.approx(109.5 - 509.5)
        assert by_name["wmc"].value == pytest.approx(-30.0)
        assert by_name["opt"].kind == SET and by_name["opt"].value == "small"
        assert plan.provenance == {"source": 0, "target": 1}

    def test_already_best_cluster_empty_plan(self):
        ds, clusters = two_cluster_fixture()
        z = [105.0, 11.0, "small", False]
        assert cd(clusters, z, ds).empty

    def test_uniform_scores_empty_plan(self):
        ds, clusters = two_cluster_fixture()
        for c in clusters:
            c.score = 0.5
        assert cd(clusters, ds.rows[0], ds).empty

    def test_equally_near_targets_pick_lower_index(self):
        ds, clusters = two_cluster_fixture()
        # duplicate the good centroid so two targets tie exactly
        twin = ClusterSummary(2, clusters[1].members, list(clusters[1].centroid),
                              clusters[1].best, 0.25)
        plan = cd(clusters + [twin], [505.0, 41.0, "big", True], ds)
        assert plan.provenance["target"] == 1

    def test_no_op_deltas_omitted(self):
        ds, clusters = two_cluster_fixture()
        clusters[1].centroid[1] = 40.0  # same wmc as the bad centroid
        plan = cd(clusters, [505.0, 41.0, "big", True], ds)
        assert "wmc" not in plan.features()


class TestPlanCdfs:
    def test_filters_to_selected_features(self):
        ds, clusters = two_cluster_fixture()
        ranking = FeatureRanking([("loc", 0.0), ("wmc", 0.5), ("opt", 0.9)], ["loc"])
        z = [505.0, 41.0, "big", True]
        full = cd(clusters, z, ds)
        filtered = cdfs(clusters, ranking, z, ds)
        assert filtered.features() == ["loc"]
        assert len(filtered.deltas) <= len(full.deltas)

    def test_full_beta_matches_plan_cd(self):
        ds, clusters = two_cluster_fixture()
        ranking = FeatureRanking([], ["loc", "wmc", "opt"])
        z = [505.0, 41.0, "big", True]
        assert cdfs(clusters, ranking, z, ds).features() == \
            cd(clusters, z, ds).features()

    def test_selected_features_equal_means_empty(self):
        ds, clusters = two_cluster_fixture()
        clusters[1].centroid[1] = 40.0
        ranking = FeatureRanking([], ["wmc"])
        assert cdfs(clusters, ranking, [505.0, 41.0, "big", True], ds).empty


class TestPlanBic:
    def test_targets_best_in_cluster_of_top_end(self):
        ds, clusters = two_cluster_fixture()
        ranking = FeatureRanking([], ["loc", "wmc", "opt"])
        z = list(clusters[0].centroid)
        z[2] = "big"
        plan = bic(clusters, ranking, z, ds)
        best = clusters[1].best
        by_name = {d.feature: d for d in plan.deltas}
        assert by_name["loc"].value == pytest.approx(best[0] - z[0])
        assert plan.provenance == {"bottom": 0, "top": 1}

    def test_row_already_at_best_empty(self):
        ds, clusters = two_cluster_fixture()
        ranking = FeatureRanking([], ["loc", "wmc", "opt"])
        plan = bic(clusters, ranking, list(clusters[1].best), ds)
        assert plan.empty

    def test_uniform_scores_empty(self):
        ds, clusters = two_cluster_fixture()
        for c in clusters:
            c.score = 0.4
        ranking = FeatureRanking([], ["loc"])
        assert bic(clusters, ranking, ds.rows[0], ds).empty


def xtree_fixture():
    """Numeric loc drives defects; wmc refines within high loc."""
    feats = [FeatureSpec("loc"), FeatureSpec("wmc"), FeatureSpec("bug", role="dependent")]
    rng = random.Random(3)
    rows = []
    for _ in range(150):
        loc = rng.uniform(0, 600)
        wmc = rng.uniform(0, 50)
        p = 0.9 if loc > 300 else 0.1
        rows.append([loc, wmc, rng.random() < p])
    return Dataset(feats, rows, MINIMIZE_RATE)


class TestPlanXtree:
    def test_bad_row_gets_range_sample_toward_good_branch(self):
        ds = xtree_fixture()
        tree = tree_of(ds)
        cfg = PlannerConfig(gamma=0.5)
        z = [550.0, 45.0, True]
        plan = plan_xtree(tree, z, cfg, random.Random(1), ds)
        assert not plan.empty
        by_name = {d.feature: d for d in plan.deltas}
        assert "loc" in by_name
        d = by_name["loc"]
        assert d.kind == SAMPLE
        assert d.lo <= d.value <= d.hi
        assert d.value < 550.0

    def test_good_row_empty_plan(self):
        ds = xtree_fixture()
        tree = tree_of(ds)
        cfg = PlannerConfig(gamma=0.5)
        good = [50.0, 5.0, False]
        leaf = locate_leaf(tree, good, ds)
        better = [l for l in tree.leaves() if l.score < cfg.gamma * leaf.score]
        plan = plan_xtree(tree, good, cfg, random.Random(1), ds)
        assert plan.empty == (not better)

    def test_no_qualifying_sibling_anywhere_is_empty(self):
        ds = xtree_fixture()
        tree = tree_of(ds)
        plan = plan_xtree(tree, [550.0, 45.0, True], PlannerConfig(gamma=1e-9),
                          random.Random(1), ds)
        assert plan.empty

    def test_draw_is_seeded_and_reproducible(self):
        ds = xtree_fixture()
        tree = tree_of(ds)
        cfg = PlannerConfig()
        p1 = plan_xtree(tree, [550.0, 45.0, True], cfg, random.Random(9), ds)
        p2 = plan_xtree(tree, [550.0, 45.0, True], cfg, random.Random(9), ds)
        assert [d.value for d in p1.deltas] == [d.value for d in p2.deltas]

    def test_deltas_only_from_branch_paths(self):
        ds = xtree_fixture()
        tree = tree_of(ds)
        plan = plan_xtree(tree, [550.0, 45.0, True], PlannerConfig(), random.Random(1), ds)
        assert set(plan.features()) <= {"loc", "wmc"}


class TestApplyPlan:
    def setup_method(self):
        feats = [FeatureSpec("loc"), FeatureSpec("opt", kind="discrete"),
                 FeatureSpec("bug", role="dependent")]
        rows = [[10.0, "a", False], [600.0, "b", True]]
        self.ds = Dataset(feats, rows, MINIMIZE_RATE)

    def test_empty_plan_is_identity(self):
        z = [500.0, "a", True]
        assert apply_plan(z, Plan([]), self.ds) == z

    def test_shift_arithmetic(self):
        z = [500.0, "a", True]
        out = apply_plan(z, Plan([Delta("loc", SHIFT, -200.0)]), self.ds)
        assert out[0] == 300.0

    def test_shift_clamps_to_training_bounds(self):
        z = [500.0, "a", True]
        out = apply_plan(z, Plan([Delta("loc", SHIFT, -600.0)]), self.ds)
        assert out[0] == 10.0

    def test_set_and_sample(self):
        z = [500.0, "a", True]
        plan = Plan([Delta("opt", SET, "b"), Delta("loc", SAMPLE, 42.0, lo=10, hi=100)])
        out = apply_plan(z, plan, self.ds)
        assert out[1] == "b" and out[0] == 42.0

    def test_set_only_plans_idempotent(self):
        z = [500.0, "a", True]
        plan = Plan([Delta("opt", SET, "b")])
        once = apply_plan(z, plan, self.ds)
        assert apply_plan(once, plan, self.ds) == once

    def test_dependent_untouched(self):
        z = [500.0, "a", True]
        with pytest.raises(DataError):
            apply_plan(z, Plan([Delta("bug", SET, False)]), self.ds)


class TestFeatureModel:
    def setup_method(self):
        feats = [FeatureSpec(n, kind="discrete") for n in ("A", "B", "C")]
        feats.append(FeatureSpec("rt", role="dependent"))
        self.ds = Dataset(feats, [["1", "0", "1", 5.0]], MINIMIZE_VALUE)

    def test_exactly_one_violation(self):
        fm = FeatureModel(exactly_one=[["A", "B"]])
        assert check_constraints(["1", "1", "0", 5.0], fm, self.ds)
        assert not check_constraints(["1", "0", "0", 5.0], fm, self.ds)

    def test_requires_satisfied_and_violated(self):
        fm = FeatureModel(requires=[("A", "B")])
        assert not check_constraints(["1", "1", "0", 5.0], fm, self.ds)
        assert check_constraints(["1", "0", "0", 5.0], fm, self.ds) == ["requires A B"]

    def test_excludes_and_or(self):
        fm = FeatureModel(excludes=[("A", "B")], at_least_one=[["B", "C"]])
        assert check_constraints(["1", "1", "0", 5.0], fm, self.ds) == ["excludes A B"]
        assert check_constraints(["1", "0", "0", 5.0], fm, self.ds) == ["or B C"]

    def test_no_model_always_valid(self):
        assert check_constraints(["1", "1", "1", 5.0], None, self.ds) == []

    def test_load_rules_file(self, tmp_path):
        p = tmp_path / "fm.txt"
        p.write_text("# comment\nrequires A B\nexcludes A C\nxor A B\nor B C\n")
        fm = load_feature_model(p, self.ds)
        assert fm.requires == [("A", "B")]
        assert fm.excludes == [("A", "C")]
        assert fm.exactly_one == [["A", "B"]]
        assert fm.at_least_one == [["B", "C"]]

    def test_unknown_feature_rejected_at_load(self, tmp_path):
        p = tmp_path / "fm.txt"
        p.write_text("requires A ZZZ\n")
        with pytest.raises(DataError):
            load_feature_model(p, self.ds)
