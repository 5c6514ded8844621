import math
import random
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from xplan import evaluation, predictor
from xplan.data_model import MINIMIZE_RATE, Dataset, FeatureSpec, SplitSpec, split
from xplan.evaluation import (
    ALL_METHODS,
    GateError,
    RunArtifacts,
    change_frequency,
    method_samples,
    nearest_distances,
    read_jsonl,
    run_experiment,
    run_repeats,
    trust_report,
    write_csv_summary,
    write_jsonl,
)
from xplan.num_core import DistanceConfig, distance, encode
from xplan.planners import PlannerConfig
from xplan.predictor import ForestParams
from tests.conftest import planted_defect_data
from tests.test_num_core import schema_and_rows

PARAMS = ForestParams(n_trees=15)


@pytest.fixture(scope="module")
def halves(planted):
    return split(planted, SplitSpec(seed=0))


def experiment(tr, te, method, seed):
    """One (seed, method) experiment from freshly built artifacts."""
    arts = RunArtifacts(tr, te, PlannerConfig(), forest_params=PARAMS).for_seed(seed, [method])
    return run_experiment(tr, te, method, arts)


def report(tr, test_rows, changed_rows):
    train = encode(tr.rows, DistanceConfig.from_dataset(tr))
    test = encode(test_rows, train.cfg)
    return trust_report(train, test, encode(changed_rows, train.cfg), nearest_distances(train, test))


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
        for name in ("train_forest", "cluster", "rank_features", "build_tree"):
            fn = getattr(evaluation, name)

            def counted(*args, _fn=fn, _name=name, **kwargs):
                calls[_name] = calls.get(_name, 0) + 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(evaluation, name, counted)
        # encodes and configs made by the harness or the forest (smote makes
        # its own, outside these modules)
        encoded, configs, experiment = [], [], [None]

        def counted_encode(rows, cfg):
            encoded.append((rows, experiment[0]))
            return encode(rows, cfg)

        class CountedConfig(DistanceConfig):
            @classmethod
            def from_dataset(cls, ds):
                configs.append(ds)
                return DistanceConfig.from_dataset(ds)

        def counted_experiment(train, test, method, arts):
            experiment[0] = (method, arts.seed)
            try:
                return run_experiment(train, test, method, arts)
            finally:
                experiment[0] = None

        for module in (evaluation, predictor):
            monkeypatch.setattr(module, "encode", counted_encode)
            monkeypatch.setattr(module, "DistanceConfig", CountedConfig)
        monkeypatch.setattr(evaluation, "run_experiment", counted_experiment)
        tr, te = halves
        results = run_repeats(tr, te, ALL_METHODS, PlannerConfig(), n=3, forest_params=PARAMS)
        assert {m: len(rs) for m, rs in results.items()} == {m: 3 for m in ALL_METHODS}
        assert calls == {"train_forest": 3, "cluster": 3, "rank_features": 3, "build_tree": 1}
        assert configs == [tr]
        assert sum(rows is tr.rows for rows, _ in encoded) == 1
        assert sum(rows is te.rows for rows, _ in encoded) == 1
        # the changed rows: one encode per experiment, for predict and trust alike
        during = [(exp, len(rows)) for rows, exp in encoded if exp is not None]
        assert sorted(during) == sorted(((m, s), len(te.rows)) for m in ALL_METHODS for s in (1, 2, 3))

    def test_cd_plans_once_per_row_and_rows_encoded_once(self, halves, monkeypatch):
        tr, te = halves
        calls = {"plan_cd": 0, "encode": []}
        plan_cd, encode_rows = evaluation.plan_cd, evaluation.encode

        def counted_plan_cd(*args):
            calls["plan_cd"] += 1
            return plan_cd(*args)

        def counted_encode(rows, cfg):
            calls["encode"].append(rows)
            return encode_rows(rows, cfg)

        monkeypatch.setattr(evaluation, "plan_cd", counted_plan_cd)
        monkeypatch.setattr(evaluation, "encode", counted_encode)
        run_repeats(tr, te, ["cd", "cdfs"], PlannerConfig(), n=2, forest_params=PARAMS)
        assert calls["plan_cd"] == 2 * len(te.rows)
        assert sum(rows is tr.rows for rows in calls["encode"]) == 1
        assert sum(rows is te.rows for rows in calls["encode"]) == 1


class TestTrustReport:
    def test_identity_rows_keep_their_distance(self, halves):
        tr, te = halves
        rep = report(tr, te.rows, [list(r) for r in te.rows])
        dcfg = DistanceConfig.from_dataset(tr)
        measured = nearest_distances(encode(tr.rows, dcfg), encode(te.rows, dcfg))
        assert rep.before_mean == rep.after_mean == float(np.mean(measured))

    def test_training_rows_have_zero_distance(self, halves):
        tr, _ = halves
        rep = report(tr, tr.rows[:5], tr.rows[:5])
        assert rep.before_mean == pytest.approx(0.0, abs=1e-9)

    def test_far_rows_reported_farther(self, halves):
        tr, te = halves
        outliers = []
        for r in te.rows[:10]:
            row = list(r)
            for j, f in enumerate(tr.features):
                if f.role == "independent":
                    row[j] = 10_000.0
            outliers.append(row)
        rep = report(tr, te.rows[:10], outliers)
        assert rep.after_mean > rep.before_mean

    def test_unchanged_rows_keep_measured_distance(self, halves):
        # rows equal to their test row reuse the test distance; the result
        # must equal measuring every changed row from scratch
        tr, te = halves
        changed = [list(r) for r in te.rows[:20]]
        for row in changed[::3]:
            row[0] += 7.0
        rep = report(tr, te.rows[:20], changed)
        dcfg = DistanceConfig.from_dataset(tr)
        measured = nearest_distances(encode(tr.rows, dcfg), encode(changed, dcfg))
        assert rep.after_mean == float(np.mean(measured))


class TestBlockedNearest:
    """``nearest_distances`` takes its minima block by block; every one must
    equal the full kernel matrix's row minimum, bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(schema_and_rows(), st.integers(1, 40))
    def test_blocked_minima_equal_the_full_matrix(self, case, budget):
        # budgets below len(train) give one-row blocks, most others a ragged last block
        ds, probes = case
        train = encode(ds.rows, DistanceConfig.from_dataset(ds))
        with mock.patch.object(evaluation, "_BLOCK_CELLS", budget):
            for rows in (ds.rows, *probes):
                enc = encode(rows, train.cfg)
                nearest = nearest_distances(train, enc)
                assert nearest.shape == (len(rows),)
                if rows:
                    assert (nearest == distance(enc, train).min(axis=1)).all()

    @pytest.mark.parametrize("per_block, sizes", [(1, [1] * 20), (7, [7, 7, 6]), (20, [20])])
    def test_rows_are_measured_in_blocks(self, halves, monkeypatch, per_block, sizes):
        tr, te = halves
        train = encode(tr.rows, DistanceConfig.from_dataset(tr))
        rows = encode(te.rows[:20], train.cfg)
        seen = []

        def spy(a, b):
            seen.append(len(a))
            return distance(a, b)

        monkeypatch.setattr(evaluation, "distance", spy)
        monkeypatch.setattr(evaluation, "_BLOCK_CELLS", (per_block + 1) * len(train) - 1)
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
