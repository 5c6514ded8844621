import math
import random

import pytest

from xplan.data_model import MINIMIZE_RATE, MINIMIZE_VALUE, Dataset, FeatureSpec
from xplan.num_core import DistanceConfig, distance, encode
from xplan.where_cluster import (
    centroid_of,
    cluster,
    fastmap_pivots,
    nearest_cluster,
    project,
    resolve_alpha,
)
from tests.conftest import encoded, planted_defect_data
from tests.oracle import distance as scalar_distance


def line_ds(values):
    feats = [FeatureSpec("x"), FeatureSpec("rt", role="dependent")]
    return Dataset(feats, [[v, 1.0] for v in values], MINIMIZE_VALUE)


def pivots_of(ds, seed):
    """FastMap pivots of a whole dataset, as (pivot x row, pivot y row, pivots)."""
    p = fastmap_pivots(encode(ds.rows, DistanceConfig.from_dataset(ds)), random.Random(seed))
    return ds.rows[p.x], ds.rows[p.y], p


def to_centroids(z, leaves, cfg):
    return distance(encode([z], cfg), encode([c.centroid for c in leaves], cfg))[0]


class TestFastmap:
    def test_collinear_points_give_extreme_pivots(self):
        ds = line_ds([0.0, 5.0, 10.0])
        cfg = DistanceConfig.from_dataset(ds)
        # oracle: exhaustive farthest pair
        best = max(
            ((a, b) for a in ds.rows for b in ds.rows),
            key=lambda p: scalar_distance(p[0], p[1], cfg),
        )
        for seed in range(5):
            x, y, _ = pivots_of(ds, seed)
            assert {x[0], y[0]} == {best[0][0], best[1][0]}

    def test_two_rows_are_their_own_pivots(self):
        x, y, _ = pivots_of(line_ds([1.0, 9.0]), 0)
        assert {x[0], y[0]} == {1.0, 9.0}

    def test_identical_rows_give_zero_separation(self):
        _, _, p = pivots_of(line_ds([3.0] * 4), 0)
        assert p.c == 0

    def test_single_row_rejected(self):
        with pytest.raises(ValueError):
            pivots_of(line_ds([3.0]), 0)


class TestProject:
    def setup_method(self):
        # the last row is the midpoint of the pivots 0 and 10
        self.ds = line_ds([0.0, 2.0, 4.0, 10.0, 5.0])
        _, _, self.pivots = pivots_of(self.ds, 1)
        self.proj = project(self.pivots.to_x, self.pivots.to_y, self.pivots.c)

    def test_pivot_x_projects_to_zero(self):
        assert self.proj[self.pivots.x] == pytest.approx(0, abs=1e-12)

    def test_pivot_y_projects_to_c(self):
        assert self.proj[self.pivots.y] == pytest.approx(self.pivots.c, abs=1e-12)

    def test_equidistant_point_projects_to_midpoint(self):
        assert self.proj[4] == pytest.approx(self.pivots.c / 2)

    def test_degenerate_pivots_rejected(self):
        with pytest.raises(ValueError):
            project(0.5, 0.5, 0.0)


class TestCluster:
    def test_blobs_yield_pure_leaves(self, blobs):
        leaves = cluster(blobs, 10, random.Random(0), encoded(blobs))
        for leaf in leaves:
            deps = {blobs.rows[i][-1] for i in leaf.members}
            assert len(deps) == 1  # members come from a single blob

    def test_output_is_a_partition(self, blobs):
        leaves = cluster(blobs, 10, random.Random(3), encoded(blobs))
        seen = sorted(i for leaf in leaves for i in leaf.members)
        assert seen == list(range(len(blobs.rows)))

    def test_small_data_single_cluster(self):
        ds = line_ds([1.0, 2.0, 3.0, 4.0, 5.0])
        leaves = cluster(ds, 10, random.Random(0), encoded(ds))
        assert len(leaves) == 1
        assert len(leaves[0].members) == 5

    def test_identical_rows_single_cluster(self):
        ds = line_ds([7.0] * 40)
        leaves = cluster(ds, 5, random.Random(0), encoded(ds))
        assert len(leaves) == 1

    def test_leaf_sizes_bounded(self, blobs):
        alpha = 10
        leaves = cluster(blobs, alpha, random.Random(0), encoded(blobs))
        assert all(1 <= len(l.members) <= alpha for l in leaves)

    def test_median_split_near_balance(self):
        ds = line_ds([float(i) for i in range(9)])
        leaves = cluster(ds, 4, random.Random(0), encoded(ds))
        sizes = [len(l.members) for l in leaves]
        assert sum(sizes) == 9
        assert all(s <= 4 for s in sizes)

    def test_default_alpha_is_sqrt_n(self, blobs):
        assert resolve_alpha(None, len(blobs.rows)) == math.ceil(math.sqrt(len(blobs.rows)))
        assert resolve_alpha(None, 2) == 2  # floor at 2

    def test_scores_and_best(self, blobs):
        leaves = cluster(blobs, 10, random.Random(0), encoded(blobs))
        for leaf in leaves:
            deps = [blobs.rows[i][-1] for i in leaf.members]
            assert leaf.score == deps[0]  # blob leaves are pure
            assert leaf.best[-1] == min(deps)
            assert leaf.best in [blobs.rows[i] for i in leaf.members]


def mixed_ds(n=120, seed=4):
    """Tied numerics, a weighted column, a discrete and a constant column,
    with missing cells."""
    rng = random.Random(seed)
    feats = [FeatureSpec("a"), FeatureSpec("b", weight=2.5), FeatureSpec("o", kind="discrete"),
             FeatureSpec("k"), FeatureSpec("rt", role="dependent")]
    maybe = lambda v: None if rng.random() < 0.1 else v
    rows = [[maybe(float(rng.randint(0, 6))), maybe(rng.random()), maybe(rng.choice("pqr")),
             3.0, rng.random()] for _ in range(n)]
    return Dataset(feats, rows, MINIMIZE_VALUE)


def scalar_where(ds, alpha, rng):
    """Leaf member lists of the WHERE recursion computed with one scalar
    distance per pair: the reference for the encoded recursion."""
    cfg = DistanceConfig.from_dataset(ds)
    d = lambda p, q: scalar_distance(p, q, cfg)
    leaves = []

    def recurse(ids):
        if len(ids) <= alpha or len(ids) < 2:
            leaves.append(ids)
            return
        rows = [ds.rows[i] for i in ids]
        w = rows[rng.randrange(len(rows))]
        x = max(rows, key=lambda r: d(w, r))
        y = max(rows, key=lambda r: d(x, r))
        c = d(x, y)
        if c <= 0:
            leaves.append(ids)
            return
        proj = [(d(r, x) * d(r, x) + c * c - d(r, y) * d(r, y)) / (2 * c) for r in rows]
        order = sorted(range(len(ids)), key=lambda k: (proj[k], k))
        mid = (len(ids) + 1) // 2
        recurse([ids[k] for k in order[:mid]])
        recurse([ids[k] for k in order[mid:]])

    recurse(list(range(len(ds.rows))))
    return leaves


class TestClusterMatchesScalarWhere:
    @pytest.mark.parametrize("seed", range(3))
    def test_same_leaves(self, seed, blobs):
        for ds, alpha in ((blobs, 10), (mixed_ds(), 7), (line_ds([1.0, 2.0] * 20), 5),
                          (planted_defect_data(n_train=150)[0], None)):
            leaves = cluster(ds, alpha, random.Random(seed), encoded(ds))
            want = scalar_where(ds, resolve_alpha(alpha, len(ds.rows)), random.Random(seed))
            assert [c.members for c in leaves] == want


class TestCentroid:
    def test_mean_and_mode(self):
        feats = [
            FeatureSpec("x"),
            FeatureSpec("o", kind="discrete"),
            FeatureSpec("bug", role="dependent"),
        ]
        rows = [[1.0, "a", True], [3.0, "b", False], [5.0, "b", False]]
        cent = centroid_of(rows, feats)
        assert cent[0] == pytest.approx(3.0)
        assert cent[1] == "b"

    def test_mode_ties_break_lexicographically(self):
        feats = [FeatureSpec("o", kind="discrete"), FeatureSpec("bug", role="dependent")]
        cent = centroid_of([["b", True], ["a", False]], feats)
        assert cent[0] == "a"

    def test_missing_values_ignored(self):
        feats = [FeatureSpec("x"), FeatureSpec("bug", role="dependent")]
        cent = centroid_of([[None, True], [4.0, False]], feats)
        assert cent[0] == 4.0


class TestNearestCluster:
    def test_matches_brute_force_scan(self, blobs):
        leaves = cluster(blobs, 10, random.Random(0), encoded(blobs))
        cfg = DistanceConfig.from_dataset(blobs)
        rng = random.Random(9)
        for _ in range(25):
            z = [rng.uniform(-5, 55), rng.uniform(-5, 55), 0.0]
            got = nearest_cluster(to_centroids(z, leaves, cfg), leaves)
            want = min(leaves, key=lambda c: (scalar_distance(z, c.centroid, cfg), c.index))
            assert got is want

    def test_exact_centroid_match(self, blobs):
        leaves = cluster(blobs, 10, random.Random(0), encoded(blobs))
        cfg = DistanceConfig.from_dataset(blobs)
        assert nearest_cluster(to_centroids(leaves[2].centroid, leaves, cfg), leaves) is leaves[2]

    def test_tie_prefers_lower_index(self):
        ds = line_ds([0.0, 0.0, 10.0, 10.0])
        cfg = DistanceConfig.from_dataset(ds)
        leaves = cluster(ds, 2, random.Random(0), encoded(ds))
        assert len(leaves) == 2
        got = nearest_cluster(to_centroids([5.0, 1.0], leaves, cfg), leaves)
        assert got.index == min(l.index for l in leaves)

    def test_empty_cluster_list_rejected(self):
        with pytest.raises(ValueError):
            nearest_cluster([], [])
