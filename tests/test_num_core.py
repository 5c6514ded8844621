import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from xplan.data_model import MINIMIZE_RATE, Dataset, FeatureSpec
from xplan.num_core import DistanceConfig, distance, distance_matrix, encode
from tests import oracle
from tests.oracle import variability


def make_ds(kinds, rows, weights=None):
    feats = [
        FeatureSpec(f"f{i}", kind=k, weight=(weights or [1] * len(kinds))[i])
        for i, k in enumerate(kinds)
    ]
    feats.append(FeatureSpec("bug", role="dependent"))
    return Dataset(feats, [r + [False] for r in rows], MINIMIZE_RATE)


class TestVariability:
    def test_constant_numeric_column(self):
        assert variability([2, 2, 2], "numeric") == 0

    def test_population_sigma(self):
        # direct evaluation of the n-denominator formula on [1, 3]
        assert variability([1, 3], "numeric") == pytest.approx(1.0)

    def test_entropy_of_even_split(self):
        assert variability(["a", "a", "b", "b"], "discrete") == pytest.approx(1.0)

    def test_single_symbol_entropy_zero(self):
        assert variability(["a", "a"], "discrete") == 0

    def test_empty_column_rejected(self):
        with pytest.raises(ValueError):
            variability([], "numeric")

    def test_uniform_entropy_is_log2_k(self):
        col = [str(i) for i in range(8)]
        assert variability(col, "discrete") == pytest.approx(3.0)

    def test_sigma_scales_linearly(self):
        col = [1.0, 4.0, 7.0, 9.0]
        base = variability(col, "numeric")
        scaled = variability([5 * v for v in col], "numeric")
        assert scaled == pytest.approx(5 * base)


def pair(x, y, cfg):
    """Kernel distance between two single rows."""
    return distance(encode([x], cfg), encode([y], cfg))[0, 0]


class TestDistance:
    def test_identity_is_zero(self):
        ds = make_ds(["numeric", "discrete"], [[1.0, "a"], [5.0, "b"]])
        cfg = DistanceConfig.from_dataset(ds)
        assert pair(ds.rows[0], ds.rows[0], cfg) == 0

    def test_bounds_whose_span_overflows(self):
        # hi - lo overflows to inf; each row is still at distance 0 from itself
        ds = make_ds(["numeric"], [[-1.5e308], [1.5e308]])
        cfg = DistanceConfig.from_dataset(ds)
        enc = encode(ds.rows, cfg)
        assert enc.unit.tolist() == [[0.0, 1.0]]
        assert np.diag(distance(enc, enc)).tolist() == [0.0, 0.0]
        assert distance(enc, enc)[0, 1] == 1.0
        assert [oracle.distance(r, r, cfg) for r in ds.rows] == [0.0, 0.0]

    def test_full_range_numeric_is_one(self):
        ds = make_ds(["numeric"], [[0.0], [10.0]])
        cfg = DistanceConfig.from_dataset(ds)
        assert pair(ds.rows[0], ds.rows[1], cfg) == pytest.approx(1.0)

    def test_both_missing_contributes_one(self):
        ds = make_ds(["numeric"], [[0.0], [10.0]])
        cfg = DistanceConfig.from_dataset(ds)
        assert pair([None, False], [None, False], cfg) == pytest.approx(1.0)

    def test_one_missing_numeric_maximizes(self):
        ds = make_ds(["numeric"], [[0.0], [10.0]])
        cfg = DistanceConfig.from_dataset(ds)
        # present value normalizes to 0.3 -> worst case |0.3 - 1| = 0.7
        assert pair([3.0, False], [None, False], cfg) == pytest.approx(0.7)

    def test_discrete_mismatch(self):
        ds = make_ds(["discrete"], [["a"], ["b"]])
        cfg = DistanceConfig.from_dataset(ds)
        assert pair(["a", False], ["b", False], cfg) == 1.0
        assert pair(["a", False], ["a", False], cfg) == 0.0

    def test_weights_scale_contribution(self):
        ds = make_ds(["numeric"], [[0.0], [10.0]], weights=[4.0])
        cfg = DistanceConfig.from_dataset(ds)
        assert pair(ds.rows[0], ds.rows[1], cfg) == pytest.approx(2.0)

    def test_schema_mismatch_rejected(self):
        ds = make_ds(["numeric"], [[0.0], [10.0]])
        cfg = DistanceConfig.from_dataset(ds)
        with pytest.raises(ValueError):
            pair([1.0], [1.0, 2.0, 3.0], cfg)

    def test_dependent_never_influences_distance(self):
        ds = make_ds(["numeric"], [[0.0], [10.0]])
        cfg = DistanceConfig.from_dataset(ds)
        assert pair([5.0, True], [5.0, False], cfg) == 0.0

    @given(st.lists(st.floats(0, 100), min_size=3, max_size=3),
           st.lists(st.floats(0, 100), min_size=3, max_size=3))
    def test_symmetry_and_bound(self, a, b):
        ds = make_ds(["numeric"] * 3, [[0.0] * 3, [100.0] * 3])
        cfg = DistanceConfig.from_dataset(ds)
        x, y = a + [False], b + [False]
        d = pair(x, y, cfg)
        assert d == pytest.approx(pair(y, x, cfg))
        assert 0 <= d <= math.sqrt(3) + 1e-12


class TestDistanceMatrix:
    def test_matches_scalar_distance_on_random_rows(self):
        rng = random.Random(5)
        kinds = ["numeric", "numeric", "discrete"]
        base = [[rng.uniform(0, 10), rng.uniform(-5, 5), rng.choice("abc")] for _ in range(6)]
        ds = make_ds(kinds, base)
        cfg = DistanceConfig.from_dataset(ds)

        def cell(kind):
            if rng.random() < 0.2:
                return None
            return rng.uniform(-2, 12) if kind == "numeric" else rng.choice("abcd")

        rows_a = [[cell(k) for k in kinds] + [False] for _ in range(12)]
        rows_b = [[cell(k) for k in kinds] + [False] for _ in range(9)]
        mat = distance_matrix(rows_a, rows_b, cfg)
        for i, x in enumerate(rows_a):
            for j, y in enumerate(rows_b):
                assert mat[i, j] == oracle.distance(x, y, cfg)


@st.composite
def schema_and_rows(draw):
    """Training rows over 1-5 random features (some constant, some all
    missing, with zero, unit and other weights) plus two probe tables with
    missing cells, values outside the training bounds and unseen symbols."""
    kinds = draw(st.lists(st.sampled_from(["numeric", "discrete"]), min_size=1, max_size=5))
    weights = draw(st.lists(st.sampled_from([0.0, 0.3, 1.0, 2.0, 7.5]),
                            min_size=len(kinds), max_size=len(kinds)))
    shapes = draw(st.lists(st.sampled_from(["varied", "constant", "missing"]),
                           min_size=len(kinds), max_size=len(kinds)))
    numbers = st.one_of(st.integers(-20, 20).map(float), st.floats(-1e3, 1e3))
    symbols = st.sampled_from("abcd")

    def cell(kind):
        return draw(st.none() | (numbers if kind == "numeric" else symbols))

    def train_cell(kind, shape, const):
        if shape == "missing":
            return None
        return const if shape == "constant" else cell(kind)

    consts = [draw(numbers if k == "numeric" else symbols) for k in kinds]
    n = draw(st.integers(1, 6))
    train = [[train_cell(k, sh, c) for k, sh, c in zip(kinds, shapes, consts)] for _ in range(n)]
    probes = [
        [[cell(k) for k in kinds] + [False] for _ in range(draw(st.integers(0, 5)))]
        for _ in range(2)
    ]
    return make_ds(kinds, train, weights), probes


class TestKernelMatchesScalarOracle:
    @settings(max_examples=300, deadline=None)
    @given(schema_and_rows())
    def test_every_cell_equals_the_scalar_distance(self, case):
        ds, (rows_a, rows_b) = case
        cfg = DistanceConfig.from_dataset(ds)
        for a, b in ((rows_a, rows_b), (ds.rows, rows_a), (rows_b, ds.rows)):
            mat = distance(encode(a, cfg), encode(b, cfg))
            assert mat.shape == (len(a), len(b))
            for i, x in enumerate(a):
                for j, y in enumerate(b):
                    assert mat[i, j] == oracle.distance(x, y, cfg)

    def test_taken_rows_keep_their_distances(self):
        rng = random.Random(3)
        ds = make_ds(["numeric", "discrete"],
                     [[rng.uniform(0, 9), rng.choice("xyz")] for _ in range(10)])
        enc = encode(ds.rows, DistanceConfig.from_dataset(ds))
        full = distance(enc, enc)
        picked = [7, 2, 2, 5]
        assert (distance(enc.take(picked), enc) == full[picked]).all()

    @settings(max_examples=100, deadline=None)
    @given(schema_and_rows(), st.data())
    def test_take_slices_the_normalized_view_exactly(self, case, data):
        ds, (extra, _) = case
        rows = ds.rows + extra
        enc = encode(rows, DistanceConfig.from_dataset(ds))
        idx = data.draw(st.lists(st.integers(0, len(rows) - 1), max_size=8))
        lo = data.draw(st.integers(0, len(rows)))
        for pick, taken in ((idx, enc.take(idx)), (range(lo, len(rows)), enc.take(slice(lo, None)))):
            assert "unit" in vars(enc) and "unit" in vars(taken)  # sliced, not rebuilt
            fresh = encode([rows[i] for i in pick], enc.cfg)
            assert np.array_equal(taken.cols, fresh.cols, equal_nan=True)
            assert np.array_equal(taken.unit, fresh.unit, equal_nan=True)
