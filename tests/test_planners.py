import random
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given, reject, settings, strategies as st

from xplan.data_model import (
    INDEPENDENT,
    MINIMIZE_RATE,
    MINIMIZE_VALUE,
    NUMERIC,
    DataError,
    Dataset,
    FeatureSpec,
)
from xplan.decision_tree import locate_leaf
from xplan.discretize import FeatureRanking, rank_features
from xplan.evaluation import ALL_METHODS, RunArtifacts
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
    cd_moves,
    check_constraints,
    load_feature_model,
    plan_bic,
    plan_cd,
    plan_cdfs,
    plan_xtree,
    xtree_targets,
)
from xplan.predictor import ForestParams, GateError
from xplan.where_cluster import ClusterSummary, cluster
from tests import oracle
from tests.conftest import drawn_split, planted_defect_data, tree_of, with_meta


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
    """The clusters' centroid distances to each other, as lists, and the
    row's distance to each centroid."""
    dcfg = DistanceConfig.from_dataset(ds)
    centroids = encode([c.centroid for c in clusters], dcfg)
    return distance(centroids, centroids).tolist(), distance(encode([z], dcfg), centroids)[0]


def cd(clusters, z, ds):
    between, to_z = centroid_inputs(clusters, z, ds)
    return plan_cd(clusters, cd_moves(clusters, between, ds), to_z)


def cdfs(clusters, ranking, z, ds):
    return plan_cdfs(cd(clusters, z, ds), ranking)


def bic(clusters, ranking, z, ds):
    between, to_z = centroid_inputs(clusters, z, ds)
    return plan_bic(bic_gradients(clusters, between), ranking, z, to_z, ds)


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


def xtree(tree, z, cfg, rng, ds):
    """xtree's plan for row z: its leaf's target, drawn from rng."""
    return plan_xtree(xtree_targets(tree, cfg.gamma, ds)[locate_leaf(tree, z, ds).leaf_pos], rng)


class TestPlanXtree:
    def test_bad_row_gets_range_sample_toward_good_branch(self):
        ds = xtree_fixture()
        tree = tree_of(ds)
        cfg = PlannerConfig(gamma=0.5)
        z = [550.0, 45.0, True]
        plan = xtree(tree, z, cfg, random.Random(1), ds)
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
        plan = xtree(tree, good, cfg, random.Random(1), ds)
        assert plan.empty == (not better)

    def test_no_qualifying_sibling_anywhere_is_empty(self):
        ds = xtree_fixture()
        tree = tree_of(ds)
        plan = xtree(tree, [550.0, 45.0, True], PlannerConfig(gamma=1e-9), random.Random(1), ds)
        assert plan.empty

    def test_draw_is_seeded_and_reproducible(self):
        ds = xtree_fixture()
        tree = tree_of(ds)
        cfg = PlannerConfig()
        p1 = xtree(tree, [550.0, 45.0, True], cfg, random.Random(9), ds)
        p2 = xtree(tree, [550.0, 45.0, True], cfg, random.Random(9), ds)
        assert [d.value for d in p1.deltas] == [d.value for d in p2.deltas]

    def test_deltas_only_from_branch_paths(self):
        ds = xtree_fixture()
        tree = tree_of(ds)
        plan = xtree(tree, [550.0, 45.0, True], PlannerConfig(), random.Random(1), ds)
        assert set(plan.features()) <= {"loc", "wmc"}


class TestXtreeAgainstReference:
    """A run searches xtree's targets once and each seed only draws their
    samples; ``oracle.plan_xtree`` searches every row's target again for
    every seed. Their plans are equal for every test row and seed."""

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(["planted", "config"]), st.integers(0, 2**32 - 1), st.integers(40, 160),
           st.sampled_from([0.1, 0.5, 0.9, 1.2]), st.lists(st.integers(0, 99), min_size=1, max_size=3))
    def test_plans_equal_the_reference(self, source, data_seed, n_rows, gamma, seeds):
        tr, te, rules = drawn_split(source, data_seed, n_rows)
        cfg = PlannerConfig(gamma=gamma)
        run = RunArtifacts(tr, te, cfg, rules, ForestParams(n_trees=15))
        tree = tree_of(tr)
        gated = 0
        for seed in seeds:
            try:
                planner = run.for_seed(seed, ["xtree"]).planners["xtree"]
            except GateError:
                continue
            gated += 1
            for i, z in enumerate(te.rows):
                want = oracle.plan_xtree(tree, z, cfg, random.Random(f"{seed}:{i}"), tr)
                assert planner(i).to_json() == want.to_json(), (seed, i)
        if not gated:
            reject()

    def test_plans_share_no_provenance(self):
        # every method's plans, with row 0 asked for twice: each call
        # returns a plan with a provenance dict of its own
        tr, te = planted_defect_data(200, 60, 0)
        planners = RunArtifacts(tr, te, PlannerConfig())._planners(1, ALL_METHODS)
        plans = [plan_row(i) for plan_row in planners.values() for i in [*range(len(te.rows)), 0]]
        assert len({id(p.provenance) for p in plans}) == len(plans)


class TestCdAgainstReference:
    """A seed builds cd's move once per cluster and a row's plan only finds
    its nearest cluster; ``oracle.plan_cd`` builds every row's deltas again.
    Their cd plans, and the cdfs plans filtered from them, are equal for
    every test row and seed."""

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from(["planted", "config"]), st.integers(0, 2**32 - 1), st.integers(40, 160),
           st.sampled_from([None, 3, 8]), st.lists(st.integers(0, 99), min_size=1, max_size=3))
    def test_plans_equal_the_reference(self, source, data_seed, n_rows, alpha, seeds):
        tr, te, rules = drawn_split(source, data_seed, n_rows)
        run = RunArtifacts(tr, te, PlannerConfig(alpha=alpha), rules)
        for seed in seeds:
            planners = run._planners(seed, ["cd", "cdfs"])
            clusters = cluster(tr, alpha, random.Random(f"{seed}:artifacts"), run.encoded_train)
            centroids = encode([c.centroid for c in clusters], run.dcfg)
            between = distance(centroids, centroids).tolist()
            ids = {i: c.index for c in clusters for i in c.members}
            ranking = rank_features(run.encoded_train, [ids[i] for i in range(len(tr.rows))], run.cfg.beta)
            for i, to_z in enumerate(distance(run.encoded_test, centroids)):
                want = oracle.plan_cd(clusters, between, to_z, tr)
                assert planners["cd"](i).to_json() == want.to_json(), (seed, i)
                assert planners["cdfs"](i).to_json() == plan_cdfs(want, ranking).to_json(), (seed, i)


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

    def test_deltas_are_frozen(self):
        # the rows of one cd cluster share its deltas
        d = Delta("loc", SHIFT, -200.0)
        with pytest.raises(FrozenInstanceError):
            d.value = 0.0


class TestAppliedPlanInvariants:
    """Every planner's plan, applied to its own test row, leaves the
    dependent and meta cells alone and puts every numeric cell it names
    inside the training bounds."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(10, 120), st.integers(1, 20), st.integers(0, 99))
    def test_plans_keep_fixed_cells_and_training_bounds(self, data_seed, n_train, n_test, seed):
        tr, te = map(with_meta, planted_defect_data(n_train, n_test, data_seed))
        planners = RunArtifacts(tr, te, PlannerConfig())._planners(seed, ALL_METHODS)
        fixed = [i for i, f in enumerate(tr.features) if f.role != INDEPENDENT]
        for method, plan_row in planners.items():
            for i, z in enumerate(te.rows):
                plan = plan_row(i)
                out = apply_plan(z, plan, tr)
                assert [out[j] for j in fixed] == [z[j] for j in fixed], method
                for name in set(plan.features()):
                    j = tr.index(name)
                    if tr.features[j].kind == NUMERIC and out[j] is not None:
                        lo, hi = tr.bounds[name]
                        assert lo <= out[j] <= hi, (method, name)


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
