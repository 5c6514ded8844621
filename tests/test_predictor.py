import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from xplan import predictor
from xplan.data_model import (
    MINIMIZE_RATE,
    MINIMIZE_VALUE,
    Dataset,
    FeatureSpec,
    SplitSpec,
    split,
)
from xplan.predictor import (
    CLASSIFY,
    REGRESS,
    ClassifierScore,
    ForestParams,
    RegressorScore,
    differential_evolution,
    forest_input,
    gate,
    score_classifier,
    score_regressor,
    smote,
    train_forest,
    tune_de,
)
from xplan.num_core import DistanceConfig, Encoded, encode
from tests import oracle
from tests.conftest import fit_forest


def separable_ds(n=60):
    feats = [FeatureSpec("x"), FeatureSpec("y"), FeatureSpec("bug", role="dependent")]
    rng = random.Random(0)
    rows = []
    for i in range(n):
        x = rng.uniform(0, 10) if i % 2 else rng.uniform(20, 30)
        rows.append([x, rng.random(), x > 15])
    return Dataset(feats, rows, MINIMIZE_RATE)


def runtime_ds(n=240):
    feats = [FeatureSpec("a"), FeatureSpec("b"), FeatureSpec("rt", role="dependent")]
    rng = random.Random(1)
    rows = []
    for _ in range(n):
        a, b = rng.uniform(0, 10), rng.uniform(0, 10)
        rows.append([a, b, 5 + 3 * a + b + rng.gauss(0, 0.1)])
    return Dataset(feats, rows, MINIMIZE_VALUE)


def score_ds(actuals):
    feats = [FeatureSpec("x"), FeatureSpec("bug", role="dependent")]
    return Dataset(feats, [[float(i), a] for i, a in enumerate(actuals)], MINIMIZE_RATE)


class TestForest:
    def test_single_tree_memorizes_separable_data(self):
        ds = separable_ds()
        _, predict = fit_forest(ds, ForestParams(n_trees=1))
        assert predict(ds.rows) == ds.dep_values()

    def test_same_seed_same_predictions(self):
        ds = separable_ds()
        _, p1 = fit_forest(ds, ForestParams(n_trees=10, seed=5))
        _, p2 = fit_forest(ds, ForestParams(n_trees=10, seed=5))
        assert p1(ds.rows) == p2(ds.rows)

    def test_all_true_training_predicts_true(self):
        feats = [FeatureSpec("x"), FeatureSpec("bug", role="dependent")]
        ds = Dataset(feats, [[float(i), True] for i in range(10)], MINIMIZE_RATE)
        _, predict = fit_forest(ds, ForestParams(n_trees=5))
        assert all(predict(ds.rows))

    def test_regressor_tracks_signal(self):
        ds = runtime_ds()
        tr, te = split(ds, SplitSpec(seed=2))
        _, predict = fit_forest(tr, ForestParams(n_trees=30))
        assert score_regressor(te, predict(te.rows)).s > 0.9

    def test_mode_type_checks(self):
        # the objective sets the mode; a dependent of the other type is rejected
        runtime, defects = runtime_ds(), separable_ds()
        with pytest.raises(ValueError, match="classification needs a boolean dependent"):
            fit_forest(Dataset(runtime.features, runtime.rows, MINIMIZE_RATE), ForestParams(n_trees=2))
        with pytest.raises(ValueError, match="regression needs a numeric dependent"):
            fit_forest(Dataset(defects.features, defects.rows, MINIMIZE_VALUE), ForestParams(n_trees=2))

    def test_empty_training_rejected(self):
        feats = [FeatureSpec("x"), FeatureSpec("bug", role="dependent")]
        ds = Dataset(feats, [], MINIMIZE_RATE)
        with pytest.raises(ValueError):
            fit_forest(ds, ForestParams(n_trees=1))


def nested(trees, node):
    """One tree of the flat arrays in the oracle's form: a leaf value or
    (feature, threshold, left, right)."""
    if trees.left[node] == node:
        return float(trees.value[node])
    return (int(trees.feature[node]), trees.threshold[node],
            nested(trees, trees.left[node]), nested(trees, trees.right[node]))


def assert_matches_oracle(X, y, mode, params, queries):
    trees = predictor._grow_trees(X, y, mode, params)
    ref = oracle.grow_forest(X, y, mode, params)
    assert [nested(trees, t) for t in range(params.n_trees)] == ref
    f_total = X.shape[1]  # no gap to fill: the raw matrix is what the trees read
    model = predictor.ForestModel(mode, params, np.zeros(f_total), np.full(f_total, np.nan), trees)
    for Q in (X, queries):
        assert model.predict(Encoded(None, Q.T)) == oracle.predict(ref, Q, mode)


@st.composite
def forest_cases(draw):
    """Small matrices with continuous, tied, constant and discrete-coded
    columns, both modes and the edge parameters of the grower."""
    n = draw(st.integers(1, 40))
    f_total = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cols = []
    for _ in range(f_total):
        kind = draw(st.sampled_from(["continuous", "tied", "constant", "codes"]))
        if kind == "continuous":
            cols.append(rng.normal(size=n))
        elif kind == "tied":
            cols.append(rng.normal(size=n).round(0))
        elif kind == "constant":
            cols.append(np.full(n, 2.5))
        else:
            cols.append(rng.integers(0, 3, n).astype(float))
    X = np.column_stack(cols)
    mode = draw(st.sampled_from([CLASSIFY, REGRESS]))
    if mode == CLASSIFY:
        y = (rng.random(n) < draw(st.sampled_from([0.0, 0.3, 0.5, 1.0]))).astype(float)
    else:
        y = rng.normal(size=n).round(draw(st.integers(0, 3))) * 10
    params = ForestParams(
        n_trees=draw(st.integers(1, 4)),
        max_depth=draw(st.one_of(st.none(), st.integers(0, 5))),
        min_leaf=draw(st.integers(1, 4)),
        features_per_split=draw(st.sampled_from([None, 1, f_total, f_total + 2])),
        seed=draw(st.integers(0, 99)),
    )
    return X, y, mode, params, rng.normal(size=(7, f_total)).round(0)


class TestLockstepForest:
    """The lockstep grower and flat-array predict against the recursive
    oracle: equal trees node for node and equal predictions."""

    @settings(max_examples=300, deadline=None)
    @given(forest_cases())
    def test_matches_recursive_oracle(self, case):
        assert_matches_oracle(*case)

    def test_mixed_sizes_in_one_batched_search(self, monkeypatch):
        # Regression sums are order-sensitive; one batched search here holds
        # nodes of very different sizes, so the padding must leave every
        # node's prefix sums as they are.
        rng = np.random.default_rng(11)
        X = np.column_stack([rng.normal(size=300), rng.integers(0, 4, 300), rng.normal(size=300).round(1)])
        y = np.exp(rng.normal(size=300) * 3)
        spreads = []
        search = predictor._best_splits

        def spy(X, y, idx, inside, feats, size, *rest):
            spreads.append(size.max() / size.min())
            return search(X, y, idx, inside, feats, size, *rest)

        monkeypatch.setattr(predictor, "_best_splits", spy)
        assert_matches_oracle(X, y, REGRESS, ForestParams(n_trees=6, seed=4), rng.normal(size=(50, 3)))
        assert max(spreads) >= 50

    @pytest.mark.parametrize("n", [*range(1, 9), 128, 129, 1500])
    def test_regression_leaf_means_at_pairwise_boundaries(self, n):
        # numpy's pairwise sum adds a run of up to 8 terms one by one, 8
        # partial sums up to 128 terms and halves above that; targets of
        # far-apart magnitudes make each grouping give other bits
        rng = np.random.default_rng(n)
        X = np.column_stack([rng.normal(size=n), rng.integers(0, 3, n)])
        y = np.exp(rng.normal(size=n) * 8)
        for params in (ForestParams(n_trees=1, max_depth=0), ForestParams(n_trees=3, max_depth=0, seed=n),
                       ForestParams(n_trees=2, max_depth=1, min_leaf=max(1, n // 3), seed=n)):
            assert_matches_oracle(X, y, REGRESS, params, rng.normal(size=(5, 2)))

    def test_planted_scale_forest(self, planted):
        train, test = split(planted, SplitSpec(seed=3))
        cfg = DistanceConfig.from_dataset(train)
        _, y, X, fill, unseen = data = forest_input(train, encode(train.rows, cfg))
        model = train_forest(data, ForestParams(n_trees=20, seed=3))
        ref = oracle.grow_forest(X, y, CLASSIFY, model.params)
        assert [nested(model.trees, t) for t in range(20)] == ref
        encoded = encode(test.rows, cfg)
        assert model.predict(encoded) == oracle.predict(ref, predictor._filled(encoded, fill, unseen), CLASSIFY)


def generator(seed, uinteger=None):
    """A generator past a bootstrap-sized draw, as each tree's is when it
    draws its first feature subset. ``uinteger`` sets the buffered high
    half of a 64-bit output (has_uint32); 0 makes the next bounded integer
    reject its first output unless its range is a power of two."""
    rng = np.random.default_rng(seed)
    rng.integers(0, 50, 50)
    if uinteger is not None:
        state = rng.bit_generator.state
        state["has_uint32"], state["uinteger"] = 1, uinteger
        rng.bit_generator.state = state
    return rng


def streams_at(rngs):
    """Replayed streams at the generators' states, their buffered high half included."""
    states = [rng.bit_generator.state for rng in rngs]
    return predictor._Streams(predictor._limbs([s["state"]["state"] for s in states]),
                              predictor._limbs([s["state"]["inc"] for s in states]),
                              [s["uinteger"] if s["has_uint32"] else None for s in states])


class TestStreams:
    """The replayed PCG64 streams against numpy's ``default_rng((seed, t))``."""

    @pytest.mark.parametrize("seed", [0, 1, 2**32, 2**130 + 5])
    def test_raw_outputs(self, seed):
        # 2^130 + 5 has five 32-bit words: one past SeedSequence's pool
        streams = predictor._Streams.seeded(seed, 100)
        trees = np.array([0, 1, 99])
        words = np.concatenate([streams.raw(trees, 300), streams.raw(trees, 1), streams.raw(trees, 700)], axis=1)
        for t, got in zip(trees, words):
            assert got.tolist() == np.random.default_rng((seed, int(t))).bit_generator.random_raw(1001).tolist()

    def test_negative_entropy_rejected_as_numpy_does(self):
        for seed in (-1, -2**40):
            with pytest.raises(ValueError, match="expected non-negative integer"):
                np.random.default_rng((seed, 0))
            with pytest.raises(ValueError, match="expected non-negative integer"):
                predictor._Streams.seeded(seed, 2)

    def test_bounded_draws_with_half_rejected(self):
        # a span of 2^31 + 1 rejects the outputs whose product with it has
        # its low word below 2^31 - 1: about half of them
        rngs = [np.random.default_rng((3, t)) for t in range(4)]
        streams = predictor._Streams.seeded(3, 4)
        trees = np.arange(4)
        for span in (2**31 + 1, 7, 2**31 + 1, 2**32 - 1):
            got = streams.bounded(trees, np.full(64, span, np.uint64))
            assert got.tolist() == [rng.integers(0, span, 64).tolist() for rng in rngs]

    def test_bounded_draws_resume_on_a_buffered_high_half(self):
        rngs = [np.random.default_rng(5), np.random.default_rng(6)]
        for rng, reads in zip(rngs, (3, 4)):
            rng.integers(0, 10, reads)
        streams = streams_at(rngs)
        assert [s["has_uint32"] for s in (rng.bit_generator.state for rng in rngs)] == [1, 0]
        got = streams.bounded(np.arange(2), np.arange(2, 40, dtype=np.uint64))
        assert got.tolist() == [[rng.integers(0, s) for s in range(2, 40)] for rng in rngs]

    @pytest.mark.parametrize("n", [1, 2, 7, 25])
    def test_fit_matches_oracle_on_few_and_odd_rows(self, n):
        # one row draws no bootstrap (numpy's integers(0, 1, 1) reads
        # nothing); an odd n leaves each tree's feature draws starting on
        # the high half of its bootstrap's last output
        rng = np.random.default_rng(n)
        X = np.column_stack([rng.normal(size=n), rng.integers(0, 3, n), rng.normal(size=n)])
        y = (rng.random(n) < 0.5).astype(float)
        for mode, target in ((CLASSIFY, y), (REGRESS, X[:, 0] * 10)):
            assert_matches_oracle(X, target, mode, ForestParams(n_trees=5, features_per_split=1, seed=n),
                                  rng.normal(size=(4, 3)))


class TestFeatureDraws:
    """Batched draws against successive ``rng.choice(f, k, replace=False)``
    calls on each generator, with trees skipping steps."""

    def assert_draws_match(self, f, k, rngs, steps=None):
        draws = predictor._FeatureDraws(streams_at(rngs), f, k)
        for step in range(steps or 3 * draws.calls + 2):  # past two refills of each tree
            trees = np.array([t for t in range(len(rngs)) if (step + t) % 3], dtype=int)
            assert draws.next(trees).tolist() == [rngs[t].choice(f, k, replace=False).tolist()
                                                  for t in trees]

    def test_every_k_up_to_f_40(self):
        for f in range(1, 41):
            for k in range(1, f + 1):
                self.assert_draws_match(f, k, [generator((f, k, 0)), generator((f, k, 1), 0),
                                               generator((f, k, 2), 2**32 - 1)])

    def test_tail_shuffle_branch(self):
        # numpy shuffles the tail of all f indices when f > 10000 and k > f // 50
        self.assert_draws_match(10001, 201, [generator(7), generator(8, 0)], steps=4)


@st.composite
def encoding_cases(draw):
    """Training rows over 1-5 features, numeric or discrete and varied,
    constant or all missing, plus probe rows with missing cells, values
    outside the training range and symbols unseen in training."""
    kinds = draw(st.lists(st.sampled_from(["numeric", "discrete"]), min_size=1, max_size=5))
    shapes = draw(st.lists(st.sampled_from(["varied", "constant", "missing"]),
                           min_size=len(kinds), max_size=len(kinds)))
    numbers = st.one_of(st.integers(-20, 20).map(float), st.floats(-1e3, 1e3))
    symbols = st.sampled_from("dcbae")

    def cell(kind, shape="varied", const=None):
        if shape == "missing":
            return None
        if shape == "constant":
            return const
        return draw(st.none() | (numbers if kind == "numeric" else symbols))

    consts = [draw(numbers if k == "numeric" else symbols) for k in kinds]
    feats = [FeatureSpec(f"f{i}", kind=k) for i, k in enumerate(kinds)]
    feats.append(FeatureSpec("bug", role="dependent"))
    n = draw(st.integers(1, 12))
    rows = [[cell(k, sh, c) for k, sh, c in zip(kinds, shapes, consts)] + [False] for _ in range(n)]
    probes = [[cell(k) for k in kinds] + [True] for _ in range(draw(st.integers(0, 8)))]
    return Dataset(feats, rows, MINIMIZE_RATE), probes


class TestSingleEncoding:
    """The forest reads ``num_core.encode``'s columns with the gaps filled,
    cell for cell as the reference ``oracle.Encoder`` reads the rows. As in
    a run, the probes (the test rows) are encoded with the training rows'
    config before the forest's input is built, so their unseen symbols take
    codes first; those codes must still read as the fill."""

    @settings(max_examples=300, deadline=None)
    @given(encoding_cases())
    def test_forest_matrix_equals_reference_encoder(self, case):
        train, probes = case
        ref = oracle.Encoder(train)
        cfg = DistanceConfig.from_dataset(train)
        encoded = encode(train.rows, cfg)
        early = encode(probes, cfg)
        _, _, X, fill, unseen = forest_input(train, encoded)
        assert np.array_equal(X, ref.transform(train.rows))
        assert np.array_equal(predictor._filled(early, fill, unseen), ref.transform(probes))
        # the probes' new symbols take codes of their own, read as the fill
        both = encode(train.rows + probes, cfg)
        assert np.array_equal(predictor._filled(both, fill, unseen), ref.transform(train.rows + probes))

    def test_codes_follow_sorted_symbols_not_first_seen(self):
        feats = [FeatureSpec("os", kind="discrete"), FeatureSpec("bug", role="dependent")]
        train = Dataset(feats, [["linux", True], ["bsd", False], ["mac", True], [None, False]],
                        MINIMIZE_RATE)
        cfg = DistanceConfig.from_dataset(train)
        encoded = encode(train.rows, cfg)
        probes = encode([["aix", True], ["mac", False]], cfg)  # "aix" takes code 3 here
        _, _, X, fill, unseen = forest_input(train, encoded)
        assert X[:, 0].tolist() == [1.0, 0.0, 2.0, 1.0]  # the gap takes the median code
        assert predictor._filled(probes, fill, unseen)[:, 0].tolist() == [1.0, 2.0]


class TestScores:
    def test_perfect_predictions(self):
        ds = score_ds([True, True, False, False])
        sc = score_classifier(ds, [True, True, False, False])
        assert sc.pd == 100 and sc.pf == 0

    def test_confusion_arithmetic(self):
        # TP=3 FN=1 FP=2 TN=4
        actual = [True] * 4 + [False] * 6
        preds = [True, True, True, False] + [True, True] + [False] * 4
        sc = score_classifier(score_ds(actual), preds)
        assert sc.pd == pytest.approx(75.0)
        assert sc.pf == pytest.approx(100 * 2 / 6)

    def test_always_true_predictor(self):
        ds = score_ds([True, False, True, False])
        sc = score_classifier(ds, [True] * 4)
        assert sc.pd == 100 and sc.pf == 100

    def test_one_class_test_data_gives_nan(self):
        ds = score_ds([True, True])
        sc = score_classifier(ds, [True, True])
        assert math.isnan(sc.pf) and sc.pd == 100

    def test_regressor_formula(self):
        feats = [FeatureSpec("x"), FeatureSpec("rt", role="dependent")]
        ds = Dataset(feats, [[0.0, 100.0], [1.0, 10.0]], MINIMIZE_VALUE)
        sc = score_regressor(ds, [50.0, 10.0])
        assert sc.s == (0.5 + 1.0) / 2  # 1 - |100 - 50| / 100 and 1 - |10 - 10| / 10

    def test_zero_actual_excluded_with_warning(self):
        feats = [FeatureSpec("x"), FeatureSpec("rt", role="dependent")]
        ds = Dataset(feats, [[0.0, 0.0], [1.0, 10.0]], MINIMIZE_VALUE)
        with pytest.warns(UserWarning):
            sc = score_regressor(ds, [5.0, 10.0])
        assert sc.s == pytest.approx(1.0)


class TestGate:
    def test_paper_threshold_examples(self):
        assert gate(ClassifierScore(65, 28))
        assert not gate(ClassifierScore(60, 40))  # strict inequalities

    def test_alarm_ceiling(self):
        assert not gate(ClassifierScore(100, 100))

    def test_nan_rates_not_good(self):
        assert not gate(ClassifierScore(math.nan, 10))

    def test_regressor_threshold(self):
        assert gate(RegressorScore(0.95))
        assert not gate(RegressorScore(0.85))
        assert not gate(RegressorScore(math.nan))


class TestSmote:
    def imbalanced_ds(self, n_maj=10, n_min=2):
        feats = [FeatureSpec("x"), FeatureSpec("y"), FeatureSpec("bug", role="dependent")]
        rows = [[float(i), float(i) * 2, False] for i in range(n_maj)]
        rows += [[0.0, 0.0, True], [1.0, 1.0, True]][:n_min]
        return Dataset(feats, rows, MINIMIZE_RATE)

    def test_balances_to_target(self):
        ds = self.imbalanced_ds()
        out = smote(ds, k=1, rng=random.Random(1))
        dep = out.dep_values()
        assert sum(dep) == 10 and len(dep) - sum(dep) == 10

    def test_synthetics_on_segment(self):
        ds = self.imbalanced_ds()
        out = smote(ds, k=1, rng=random.Random(2))
        for row in out.rows[len(ds.rows):]:
            assert 0.0 <= row[0] <= 1.0
            assert row[0] == pytest.approx(row[1])  # both coords move together
            assert row[2] is True

    def test_balanced_input_unchanged(self):
        feats = [FeatureSpec("x"), FeatureSpec("bug", role="dependent")]
        rows = [[1.0, True], [2.0, False]]
        ds = Dataset(feats, rows, MINIMIZE_RATE)
        assert smote(ds, rng=random.Random(0)) is ds

    def test_singleton_minority_fallback(self):
        ds = self.imbalanced_ds(n_min=1)
        out = smote(ds, rng=random.Random(3))
        assert sum(out.dep_values()) == 10

    def test_synthetics_within_minority_hull(self):
        rng = random.Random(4)
        feats = [FeatureSpec("x"), FeatureSpec("y"), FeatureSpec("bug", role="dependent")]
        rows = [[rng.uniform(0, 100), rng.uniform(0, 100), False] for _ in range(30)]
        minority = [[rng.uniform(40, 60), rng.uniform(10, 20), True] for _ in range(5)]
        ds = Dataset(feats, rows + minority, MINIMIZE_RATE)
        out = smote(ds, rng=random.Random(5))
        for row in out.rows[len(ds.rows):]:
            assert 40 <= row[0] <= 60 and 10 <= row[1] <= 20


class TestDifferentialEvolution:
    def test_sphere_benchmark(self):
        rng = np.random.default_rng(0)
        bounds = [(-5, 5)] * 5
        best, val = differential_evolution(
            lambda x: float(np.sum(np.asarray(x) ** 2)), bounds, rng,
            pop_size=20, generations=60,
        )
        assert val < 1e-2

    def test_init_member_seeds_population(self):
        rng = np.random.default_rng(1)
        calls = []
        fn = lambda x: calls.append(tuple(x)) or float(np.sum(np.asarray(x) ** 2))
        differential_evolution(fn, [(-5, 5)] * 2, rng, pop_size=5, generations=1,
                               init=[[1.0, 2.0]])
        assert calls[0] == (1.0, 2.0)


class TestTuneDe:
    def test_params_within_bounds_and_elitism(self):
        ds = separable_ds(n=80)
        params = tune_de(ds, budget=40, seed=3)
        assert 10 <= params.n_trees <= 150
        assert 1 <= params.max_depth <= 30
        assert 1 <= params.min_leaf <= 20
        assert 1 <= params.features_per_split <= 2

        # elitism: the tuned member can never score worse than the injected
        # default on the same validation split
        from xplan.predictor import score_classifier as sc

        fit, val = split(ds, SplitSpec(seed=3))
        def fitness(p):
            s = sc(val, fit_forest(fit, p)[1](val.rows))
            return (0 if math.isnan(s.pd) else s.pd) - (100 if math.isnan(s.pf) else s.pf)

        default = ForestParams(max_depth=30, features_per_split=2, seed=3)
        assert fitness(params) >= fitness(default) - 1e-9

    def test_tuned_params_pinned(self):
        # the results of the recursive forest, before the encoded matrices
        # were reused across fitness calls
        assert tune_de(separable_ds(n=80), budget=40, seed=3) == ForestParams(
            n_trees=100, max_depth=30, min_leaf=1, features_per_split=2, seed=3)
        assert tune_de(runtime_ds(n=80), budget=40, seed=3) == ForestParams(
            n_trees=108, max_depth=7, min_leaf=1, features_per_split=2, seed=3)

    def test_budget_below_population_rejected(self):
        with pytest.raises(ValueError):
            tune_de(separable_ds(), budget=5)
