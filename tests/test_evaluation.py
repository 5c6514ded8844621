import json
import math
import random
import resource
import tracemalloc
from collections import Counter
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, reject, settings, strategies as st

from xplan import evaluation, num_core, planners, predictor
from xplan.data_model import MINIMIZE_RATE, Dataset, FeatureSpec, SplitSpec, split
from xplan.evaluation import (
    ALL_METHODS,
    GateError,
    RunArtifacts,
    change_frequency,
    method_samples,
    read_jsonl,
    run_experiment,
    run_repeats,
    trust_report,
    write_csv_summary,
    write_jsonl,
)
from xplan.num_core import DistanceConfig, distance, encode, nearest_distances
from xplan.planners import Plan, PlannerConfig, apply_plan, check_constraints
from xplan.predictor import ForestParams
from tests import oracle
from tests.conftest import drawn_split, planted_defect_data
from tests.test_num_core import schema_and_rows

PARAMS = ForestParams(n_trees=15)


@pytest.fixture(scope="module")
def halves(planted):
    return split(planted, SplitSpec(seed=0))


def experiment(tr, te, method, seed):
    """One (seed, method) experiment from freshly built artifacts."""
    arts = RunArtifacts(tr, te, PlannerConfig(), forest_params=PARAMS).for_seed(seed, [method])
    return run_experiment(tr, te, method, arts)


def moved_by(tr, te, method, arts):
    """Positions of the test rows that the method's applied, unculled plans
    change, by row comparison."""
    moved = []
    for i, z in enumerate(te.rows):
        changed = apply_plan(z, arts.planners[method](i), tr)
        if changed != z and not check_constraints(changed, arts.run.fm, tr):
            moved.append(i)
    return moved


def report(tr, test_rows, changed_rows):
    """``trust_report``'s (before, after) means for test rows and their
    changed copies."""
    train = encode(tr.rows, DistanceConfig.from_dataset(tr))
    moved = [i for i, (z, c) in enumerate(zip(test_rows, changed_rows)) if c != z]
    rows = encode([changed_rows[i] for i in moved], train.cfg)
    return trust_report(train, moved, rows, nearest_distances(train, encode(test_rows, train.cfg)))


class TestRunExperiment:
    def test_identity_ratio_is_exactly_one(self, halves):
        tr, te = halves
        res = experiment(tr, te, "identity", seed=1)
        assert res.ratio == 1.0
        assert res.after == res.before
        assert res.plans_emitted == 0
        assert res.empty_plans == len(te.rows)
        assert res.changed_features == []

    def test_planner_lowers_predicted_defects(self, halves):
        tr, te = halves
        res = experiment(tr, te, "xtree", seed=1)
        assert res.ratio < 1.0
        assert res.before > res.after

    def test_weak_predictor_aborts(self):
        # dependent is pure noise, so pd/pf cannot clear the gate
        rng = random.Random(0)
        feats = [FeatureSpec("x"), FeatureSpec("bug", role="dependent")]
        rows = [[rng.random(), rng.random() < 0.5] for _ in range(200)]
        ds = Dataset(feats, rows, MINIMIZE_RATE)
        tr, te = split(ds, SplitSpec(seed=1))
        with pytest.raises(GateError) as exc:
            experiment(tr, te, "identity", seed=1)
        assert hasattr(exc.value.score, "pd")

    def test_repeatable_for_same_seed(self, halves):
        tr, te = halves
        a = experiment(tr, te, "cd", seed=7)
        b = experiment(tr, te, "cd", seed=7)
        assert a.to_json() == b.to_json()

    def test_test_rows_not_mutated(self, halves):
        tr, te = halves
        snapshot = [list(r) for r in te.rows]
        experiment(tr, te, "cd", seed=2)
        assert te.rows == snapshot

    def test_only_moved_rows_are_predicted(self, halves, monkeypatch):
        # each experiment predicts exactly the rows its plans moved, and its
        # after equals predicting every changed row
        tr, te = halves
        arts = RunArtifacts(tr, te, PlannerConfig(), forest_params=PARAMS).for_seed(1, ALL_METHODS)
        predict, tables = predictor.ForestModel.predict, []

        def spy(model, table):
            tables.append(table)
            return predict(model, table)

        monkeypatch.setattr(predictor.ForestModel, "predict", spy)
        dcfg = DistanceConfig.from_dataset(tr)
        for method in ALL_METHODS:
            tables.clear()
            res = run_experiment(tr, te, method, arts)
            changed = [list(z) for z in te.rows]
            for i, z in enumerate(te.rows):
                plan = arts.planners[method](i)
                if not plan.empty:
                    changed[i] = evaluation.apply_plan(z, plan, tr)
            moved = [i for i, z in enumerate(te.rows) if changed[i] != z]
            if method == "identity":
                assert tables == [] and moved == []
            else:
                assert moved and len(tables) == 1
                np.testing.assert_array_equal(tables[0].cols, encode([changed[i] for i in moved], dcfg).cols)
            full = predict(arts.forest, encode(changed, dcfg))
            assert res.after == float(sum(1 for p in full if p))


def seed_artifacts(source, data_seed, n_rows, seed):
    """One seed's artifacts on ``drawn_split``'s data, all methods; a forest
    that fails the gate rejects the example."""
    tr, te, rules = drawn_split(source, data_seed, n_rows)
    try:
        return tr, te, RunArtifacts(tr, te, PlannerConfig(gamma=0.9), rules, PARAMS).for_seed(seed, ALL_METHODS)
    except GateError:
        reject()


experiments = given(st.sampled_from(["planted", "config"]), st.integers(0, 2**32 - 1),
                    st.integers(40, 160), st.integers(0, 99))


class TestAgainstReference:
    """``run_experiment`` finds the moved rows in the pass over its plans and
    encodes only those; ``oracle.run_experiment`` encodes every changed row
    and diffs the encodings. Their results are equal for every method."""

    @settings(max_examples=40, deadline=None)
    @experiments
    def test_results_equal_the_reference(self, source, data_seed, n_rows, seed):
        tr, te, arts = seed_artifacts(source, data_seed, n_rows, seed)
        for method in ALL_METHODS:
            got = run_experiment(tr, te, method, arts).to_json()
            assert got == oracle.run_experiment(tr, te, method, arts).to_json(), method


class TestExperimentInvariants:
    """The planners' experiment-level invariants, over every method and
    drawn planted or config data."""

    @settings(max_examples=30, deadline=None)
    @experiments
    def test_identity_ratio_is_exactly_one(self, source, data_seed, n_rows, seed):
        tr, te, arts = seed_artifacts(source, data_seed, n_rows, seed)
        res = run_experiment(tr, te, "identity", arts)
        assert res.ratio == 1.0 if res.ratio_defined else math.isnan(res.ratio)
        assert (res.after, res.trust_after) == (res.before, res.trust_before)
        assert (res.plans_emitted, res.empty_plans, res.changed_features) == (0, len(te.rows), [])

    @settings(max_examples=30, deadline=None)
    @experiments
    def test_a_culled_plan_leaves_its_row_unmoved(self, source, data_seed, n_rows, seed):
        self.check_culled(*seed_artifacts(source, data_seed, n_rows, seed))

    def test_the_config_rules_cull_plans(self):
        # a fixed case of the property above in which plans are culled
        assert self.check_culled(*seed_artifacts("config", 0, 240, 1)) > 0

    @staticmethod
    def check_culled(tr, te, arts):
        """Every method's culled plans leave their rows out of the measured
        rows, which are exactly the rows the other plans change; they count
        as empty plans and give the result of empty plans in their place.
        Returns how many plans were culled."""
        total = 0
        for method in ALL_METHODS:
            plans = [arts.planners[method](i) for i in range(len(te.rows))]
            culled = {i for i, (z, plan) in enumerate(zip(te.rows, plans))
                      if not plan.empty and check_constraints(apply_plan(z, plan, tr), arts.run.fm, tr)}
            measured = []

            def spy(train, moved, rows, before):
                measured.extend(moved)
                return trust_report(train, moved, rows, before)

            with mock.patch.object(evaluation, "trust_report", spy):
                res = run_experiment(tr, te, method, arts)
            assert not culled & set(measured), method
            assert measured == moved_by(tr, te, method, arts), method
            assert res.empty_plans == sum(plan.empty for plan in plans) + len(culled)
            emptied = {method: lambda i: Plan([], method) if i in culled else plans[i]}
            same = run_experiment(tr, te, method, replace(arts, planners=emptied))
            assert same.to_json() == res.to_json(), method
            total += len(culled)
        return total

    @settings(max_examples=20, deadline=None)
    @experiments
    def test_the_same_seed_gives_the_same_plans(self, source, data_seed, n_rows, seed):
        # the second run is built from fresh data and artifacts
        tr, te, arts = seed_artifacts(source, data_seed, n_rows, seed)
        tr2, te2, again = seed_artifacts(source, data_seed, n_rows, seed)
        for method in ALL_METHODS:
            for i in range(len(te.rows)):
                plans = (arts.planners[method](i), again.planners[method](i))
                assert json.dumps(plans[0].to_json()) == json.dumps(plans[1].to_json()), method
            results = (run_experiment(tr, te, method, arts), run_experiment(tr2, te2, method, again))
            assert results[0].to_json() == results[1].to_json(), method


@pytest.fixture(scope="module")
def repeats(halves):
    tr, te = halves
    return run_repeats(tr, te, ["identity", "xtree"], PlannerConfig(), n=3,
                       base_seed=5, forest_params=PARAMS)


class TestRunRepeats:
    def test_counts_and_seed_sequence(self, repeats):
        for m in ("identity", "xtree"):
            assert [r.seed for r in repeats[m]] == [5, 6, 7]

    def test_methods_share_seeds(self, repeats):
        assert [r.seed for r in repeats["identity"]] == [r.seed for r in repeats["xtree"]]

    def test_zero_repeats_rejected(self, halves):
        tr, te = halves
        with pytest.raises(ValueError):
            run_repeats(tr, te, ["identity"], PlannerConfig(), n=0)

    def test_method_samples_shape(self, repeats):
        samples = method_samples(repeats)
        assert {s.method for s in samples} == {"identity", "xtree"}
        for s in samples:
            assert len(s.values) == 3

    def test_method_without_defined_ratio_not_sampled(self):
        from xplan.evaluation import ExperimentResult

        undefined = [ExperimentResult("cd", i, math.nan, 0, 0, 0, 4, [], 0.1, 0.1,
                                      ratio_defined=False) for i in (1, 2)]
        kept = [ExperimentResult("identity", i, 1.0, 4, 4, 0, 4, [], 0.1, 0.1) for i in (1, 2)]
        samples = method_samples({"cd": undefined, "identity": kept})
        assert [(s.method, s.values) for s in samples] == [("identity", [1.0, 1.0])]

    def test_each_artifact_built_once(self, halves, monkeypatch):
        calls = {}
        for name in ("train_forest", "cluster", "rank_features", "build_tree",
                     "xtree_targets", "locate_leaf"):
            fn = getattr(evaluation, name)

            def counted(*args, _fn=fn, _name=name, **kwargs):
                calls[_name] = calls.get(_name, 0) + 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(evaluation, name, counted)
        # encodes and configs made by the harness or the forest (smote makes
        # its own, outside these modules)
        encoded, configs, experiment, moved = [], [], [None], {}

        def counted_encode(rows, cfg):
            encoded.append((rows, experiment[0]))
            return encode(rows, cfg)

        class CountedConfig(DistanceConfig):
            @classmethod
            def from_dataset(cls, ds):
                configs.append(ds)
                return DistanceConfig.from_dataset(ds)

        def counted_experiment(train, test, method, arts):
            moved[method, arts.seed] = len(moved_by(train, test, method, arts))
            experiment[0] = (method, arts.seed)
            try:
                return run_experiment(train, test, method, arts)
            finally:
                experiment[0] = None

        for module in (evaluation, predictor):
            monkeypatch.setattr(module, "encode", counted_encode)
            monkeypatch.setattr(module, "DistanceConfig", CountedConfig)
        monkeypatch.setattr(evaluation, "run_experiment", counted_experiment)
        planned = Counter()  # xtree plans by the experiment that asked for them
        plan_xtree = evaluation.plan_xtree

        def counted_plan_xtree(*args):
            planned[experiment[0]] += 1
            return plan_xtree(*args)

        monkeypatch.setattr(evaluation, "plan_xtree", counted_plan_xtree)
        conditions = [0]  # xtree's picked conditions turned into deltas
        cond_delta = planners._cond_delta

        def counted_cond_delta(*args):
            conditions[0] += 1
            return cond_delta(*args)

        monkeypatch.setattr(planners, "_cond_delta", counted_cond_delta)
        tr, te = halves
        results = run_repeats(tr, te, ALL_METHODS, PlannerConfig(), n=3, forest_params=PARAMS)
        assert {m: len(rs) for m, rs in results.items()} == {m: 3 for m in ALL_METHODS}
        # xtree's tree, each test row's leaf and each leaf's target once per
        # run; its plans once per row and seed (moved_by plans them again,
        # outside the experiments)
        assert calls == {"train_forest": 3, "cluster": 3, "rank_features": 3, "build_tree": 1,
                         "xtree_targets": 1, "locate_leaf": len(te.rows)}
        assert planned == {**{("xtree", s): len(te.rows) for s in (1, 2, 3)}, None: 3 * len(te.rows)}
        assert configs == [tr]
        assert sum(rows is tr.rows for rows, _ in encoded) == 1
        assert sum(rows is te.rows for rows, _ in encoded) == 1
        # one encode per experiment, of exactly the rows its plans moved (none
        # for identity), for predict and trust alike
        during = {}
        for rows, exp in encoded:
            if exp is not None:
                during.setdefault(exp, []).append(len(rows))
        assert during == {exp: [n] for exp, n in moved.items()}
        assert len(during) == 15 and {during["identity", s][0] for s in (1, 2, 3)} == {0}
        assert all(during[m, s][0] for m in ("cd", "cdfs", "bic", "xtree") for s in (1, 2, 3))
        # each picked condition's delta, its range clipped, once per run however many seeds
        per_run, conditions[0] = conditions[0], 0
        run_repeats(tr, te, ["xtree"], PlannerConfig(), n=1, forest_params=PARAMS)
        assert conditions[0] == per_run > 0

    def test_cd_plans_once_per_row_and_rows_encoded_once(self, halves, monkeypatch):
        tr, te = halves
        calls = {"plan_cd": 0, "encode": [], "clusters": [], "centroid_deltas": 0}
        plan_cd, encode_rows = evaluation.plan_cd, evaluation.encode
        cluster, centroid_deltas = evaluation.cluster, planners._centroid_deltas

        def counted_plan_cd(*args):
            calls["plan_cd"] += 1
            return plan_cd(*args)

        def counted_cluster(*args):
            calls["clusters"].append(cluster(*args))
            return calls["clusters"][-1]

        def counted_centroid_deltas(*args):
            calls["centroid_deltas"] += 1
            return centroid_deltas(*args)

        def counted_encode(rows, cfg):
            calls["encode"].append(rows)
            return encode_rows(rows, cfg)

        monkeypatch.setattr(evaluation, "plan_cd", counted_plan_cd)
        monkeypatch.setattr(evaluation, "encode", counted_encode)
        monkeypatch.setattr(evaluation, "cluster", counted_cluster)
        monkeypatch.setattr(planners, "_centroid_deltas", counted_centroid_deltas)
        run_repeats(tr, te, ["cd", "cdfs"], PlannerConfig(), n=2, forest_params=PARAMS)
        assert calls["plan_cd"] == 2 * len(te.rows)
        # cd's deltas once per seed for each cluster that has a better one
        assert len(calls["clusters"]) == 2
        moving = sum(any(o.score < c.score for o in cs) for cs in calls["clusters"] for c in cs)
        assert calls["centroid_deltas"] == moving > 0
        assert sum(rows is tr.rows for rows in calls["encode"]) == 1
        assert sum(rows is te.rows for rows in calls["encode"]) == 1


class TestTrustReport:
    def test_identity_rows_keep_their_distance(self, halves):
        tr, te = halves
        before, after = report(tr, te.rows, [list(r) for r in te.rows])
        dcfg = DistanceConfig.from_dataset(tr)
        measured = nearest_distances(encode(tr.rows, dcfg), encode(te.rows, dcfg))
        assert before == after == float(np.mean(measured))

    def test_training_rows_have_zero_distance(self, halves):
        tr, _ = halves
        before, _ = report(tr, tr.rows[:5], tr.rows[:5])
        assert before == pytest.approx(0.0, abs=1e-9)

    def test_far_rows_reported_farther(self, halves):
        tr, te = halves
        outliers = []
        for r in te.rows[:10]:
            row = list(r)
            for j, f in enumerate(tr.features):
                if f.role == "independent":
                    row[j] = 10_000.0
            outliers.append(row)
        before, after = report(tr, te.rows[:10], outliers)
        assert after > before

    def test_unchanged_rows_keep_measured_distance(self, halves):
        # rows equal to their test row reuse the test distance; the result
        # must equal measuring every changed row from scratch
        tr, te = halves
        changed = [list(r) for r in te.rows[:20]]
        for row in changed[::3]:
            row[0] += 7.0
        _, after = report(tr, te.rows[:20], changed)
        dcfg = DistanceConfig.from_dataset(tr)
        measured = nearest_distances(encode(tr.rows, dcfg), encode(changed, dcfg))
        assert after == float(np.mean(measured))


class TestBlockedNearest:
    """``nearest_distances`` takes its minima block by block, in reused
    buffers; every one must equal the row minimum of the allocating
    reference kernel's full matrix, bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(schema_and_rows(), st.integers(1, 40))
    def test_blocked_minima_equal_the_full_matrix(self, case, budget):
        # budgets below len(train) give one-row blocks, most others a ragged last block
        ds, probes = case
        train = encode(ds.rows, DistanceConfig.from_dataset(ds))
        with mock.patch.object(num_core, "_BLOCK_CELLS", budget):
            for rows in (ds.rows, *probes):
                enc = encode(rows, train.cfg)
                nearest = nearest_distances(train, enc)
                assert nearest.shape == (len(rows),)
                if rows:
                    assert np.array_equal(nearest, np.sqrt(oracle.squared_distance(enc, train).min(axis=1)))

    @pytest.mark.parametrize("per_block, sizes", [(1, [1] * 20), (7, [7, 7, 6]), (20, [20])])
    def test_rows_are_measured_in_blocks(self, halves, monkeypatch, per_block, sizes):
        tr, te = halves
        train = encode(tr.rows, DistanceConfig.from_dataset(tr))
        rows = encode(te.rows[:20], train.cfg)
        seen = []
        blocks = num_core._squared_blocks

        def spy(a, b, *args):
            for lo, sums in blocks(a, b, *args):
                seen.append(len(sums))
                yield lo, sums

        monkeypatch.setattr(num_core, "_squared_blocks", spy)
        monkeypatch.setattr(num_core, "_BLOCK_CELLS", (per_block + 1) * len(train) - 1)
        nearest = nearest_distances(train, rows)
        assert seen == sizes
        assert (nearest == distance(rows, train).min(axis=1)).all()

    def test_zero_rows_give_an_empty_array(self, halves):
        tr, _ = halves
        train = encode(tr.rows, DistanceConfig.from_dataset(tr))
        nearest = nearest_distances(train, encode([], train.cfg))
        assert nearest.shape == (0,)

    def test_peak_memory_stays_far_below_the_full_matrix(self):
        # 1000 x 3000 cells: the full matrix alone would take 24 MB, and the
        # unblocked kernel with its temporaries peaked at 96 MB
        tr, te = planted_defect_data(n_train=3000, n_test=1000)
        train = encode(tr.rows, DistanceConfig.from_dataset(tr))
        rows = encode(te.rows, train.cfg)
        tracemalloc.start()
        try:
            nearest_distances(train, rows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6

    def test_a_repeated_call_maps_no_new_pages(self):
        # the two block buffers are allocated once per call; a kernel that
        # allocates a fresh block-sized temporary per feature faults about
        # 10,000 pages per call here
        tr, te = planted_defect_data(n_train=3000, n_test=1000)
        train = encode(tr.rows, DistanceConfig.from_dataset(tr))
        rows = encode(te.rows, train.cfg)
        first = nearest_distances(train, rows)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        again = nearest_distances(train, rows)
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
        assert np.array_equal(first, again)
        assert faults < 1000


class TestChangeFrequency:
    def mk(self, changed_lists):
        from xplan.evaluation import ExperimentResult

        return [
            ExperimentResult("cd", i, 0.5, 10, 5, 1, 0, ch, 0.1, 0.1)
            for i, ch in enumerate(changed_lists)
        ]

    def test_always_changed_is_100(self):
        rep = change_frequency(self.mk([["a"], ["a"], ["a"]]), ["a", "b"])
        assert rep.per_feature == {"a": 100.0, "b": 0.0}
        assert rep.mean_fraction == pytest.approx(0.5)

    def test_half_changed(self):
        rep = change_frequency(self.mk([["a"], []]), ["a"])
        assert rep.per_feature["a"] == 50.0

    def test_empty_results_rejected(self):
        with pytest.raises(ValueError):
            change_frequency([], ["a"])


class TestPersistence:
    def test_jsonl_round_trip(self, halves, tmp_path):
        tr, te = halves
        results = run_repeats(tr, te, ["identity", "cd"], PlannerConfig(), n=2,
                              base_seed=1, forest_params=PARAMS)
        path = tmp_path / "results.jsonl"
        write_jsonl(results, path)
        back = read_jsonl(path)
        assert set(back) == set(results)
        for m in results:
            assert [r.to_json() for r in back[m]] == [r.to_json() for r in results[m]]

    def test_nan_ratio_round_trips(self, tmp_path):
        from xplan.evaluation import ExperimentResult

        r = ExperimentResult("cd", 1, math.nan, 0, 0, 0, 4, [], 0.1, 0.1,
                             ratio_defined=False)
        path = tmp_path / "r.jsonl"
        write_jsonl({"cd": [r]}, path)
        back = read_jsonl(path)["cd"][0]
        assert math.isnan(back.ratio) and not back.ratio_defined

    def test_csv_summary_has_all_rows(self, tmp_path):
        from xplan.evaluation import ExperimentResult

        results = {
            "cd": [ExperimentResult("cd", 1, 0.5, 10, 5, 3, 1, ["a"], 0.1, 0.2)],
            "identity": [ExperimentResult("identity", 1, 1.0, 10, 10, 0, 4, [], 0.1, 0.1)],
        }
        path = tmp_path / "summary.csv"
        write_csv_summary(results, path)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 3
        assert lines[0].startswith("method,seed,ratio")
