import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from xplan.data_model import (
    DISCRETE,
    META,
    MINIMIZE_RATE,
    MINIMIZE_VALUE,
    NUMERIC,
    Dataset,
    FeatureSpec,
)
from xplan.decision_tree import branch_path, build_tree, locate_leaf, siblings_at_level
from xplan.num_core import DistanceConfig, encode
from xplan.predictor import forest_input
from tests import oracle
from tests.conftest import tree_of
from tests.oracle import variability


def structure(node):
    """Everything a node holds apart from its parent link, with its
    subtree, for comparing two builds."""
    return (node.members, node.score, node.depth, node.split_feature, node.centroid,
            node.leaf_pos, [(cond, structure(child)) for cond, child in node.branches])


def binary_signal_ds(n=40):
    """Dependent fully determined by the discrete feature 'flag'."""
    feats = [
        FeatureSpec("flag", kind="discrete"),
        FeatureSpec("noise"),
        FeatureSpec("bug", role="dependent"),
    ]
    rng = random.Random(0)
    rows = [["on" if i % 2 else "off", rng.random(), bool(i % 2)] for i in range(n)]
    return Dataset(feats, rows, MINIMIZE_RATE)


def depth2_ds():
    """loc splits first; within high loc, wmc splits again."""
    feats = [FeatureSpec("loc"), FeatureSpec("wmc"), FeatureSpec("bug", role="dependent")]
    rows = []
    rng = random.Random(1)
    for i in range(120):
        loc = rng.uniform(0, 100) if i % 2 else rng.uniform(200, 300)
        if loc < 150:
            wmc, bug = rng.uniform(0, 50), False
        else:
            wmc = rng.uniform(0, 10) if i % 4 else rng.uniform(40, 50)
            bug = wmc > 25
        rows.append([loc, wmc, bug])
    return Dataset(feats, rows, MINIMIZE_RATE)


class TestBuildTree:
    def test_perfect_binary_feature_gives_pure_children(self):
        ds = binary_signal_ds()
        tree = tree_of(ds, alpha=5)
        assert tree.split_feature == "flag"
        for _, child in tree.branches:
            deps = [ds.rows[i][-1] for i in child.members]
            assert len(set(deps)) == 1
            assert child.score in (0.0, 1.0)

    def test_chosen_split_minimizes_weighted_variability(self):
        # oracle: score both features by hand and confirm flag wins
        ds = binary_signal_ds()
        tree = tree_of(ds, alpha=5)
        dep = ds.dep_values()
        on = [v for r, v in zip(ds.rows, dep) if r[0] == "on"]
        off = [v for r, v in zip(ds.rows, dep) if r[0] == "off"]
        flag_spread = (
            len(on) / len(dep) * variability(on, "discrete")
            + len(off) / len(dep) * variability(off, "discrete")
        )
        assert flag_spread == 0
        assert tree.split_feature == "flag"

    def test_small_data_single_leaf(self):
        ds = binary_signal_ds(n=6)
        tree = tree_of(ds, alpha=10)
        assert tree.is_leaf
        assert len(tree.members) == 6

    def test_constant_dependent_single_leaf(self):
        feats = [FeatureSpec("x"), FeatureSpec("bug", role="dependent")]
        rows = [[float(i), False] for i in range(50)]
        ds = Dataset(feats, rows, MINIMIZE_RATE)
        assert tree_of(ds, alpha=5).is_leaf

    def test_leaves_partition_training_rows(self):
        ds = depth2_ds()
        tree = tree_of(ds, alpha=15)
        seen = sorted(i for leaf in tree.leaves() for i in leaf.members)
        assert seen == list(range(len(ds.rows)))

    def test_deterministic_given_data(self):
        ds = depth2_ds()
        t1, t2 = tree_of(ds, alpha=15), tree_of(ds, alpha=15)
        assert structure(t1) == structure(t2)
        assert t1.leaf_distances == t2.leaf_distances

    def test_regression_dependent_uses_sigma(self):
        feats = [FeatureSpec("x"), FeatureSpec("rt", role="dependent")]
        rows = [[float(i), 1.0 if i < 25 else 9.0] for i in range(50)]
        ds = Dataset(feats, rows, MINIMIZE_VALUE)
        tree = tree_of(ds, alpha=10)
        assert tree.split_feature == "x"
        scores = {child.score for _, child in tree.branches}
        assert {1.0, 9.0} <= scores or len(scores) >= 2


class TestLocateLeaf:
    def test_training_rows_route_to_their_own_leaf(self):
        ds = depth2_ds()
        tree = tree_of(ds, alpha=15)
        for i, row in enumerate(ds.rows):
            leaf = locate_leaf(tree, row, ds)
            assert i in leaf.members

    def test_missing_split_value_takes_largest_child(self):
        ds = binary_signal_ds()
        tree = tree_of(ds, alpha=5)
        largest = max((c for _, c in tree.branches), key=lambda c: len(c.members))
        got = locate_leaf(tree, [None, 0.5, False], ds)
        assert got in largest.leaves()

    def test_single_leaf_tree(self):
        ds = binary_signal_ds(n=4)
        tree = tree_of(ds, alpha=10)
        assert locate_leaf(tree, ds.rows[0], ds) is tree


class TestSiblings:
    def setup_method(self):
        self.ds = binary_signal_ds()
        self.tree = tree_of(self.ds, alpha=5)
        self.leaf = locate_leaf(self.tree, self.ds.rows[0], self.ds)

    def test_level_zero_has_no_siblings(self):
        assert siblings_at_level(self.tree, self.leaf, 0) == []

    def test_level_one_finds_the_other_leaf(self):
        sibs = siblings_at_level(self.tree, self.leaf, 1)
        assert self.leaf not in sibs
        assert len(sibs) >= 1

    def test_above_root_is_exhausted(self):
        depth = 0
        node = self.leaf
        while node.parent is not None:
            node = node.parent
            depth += 1
        assert siblings_at_level(self.tree, self.leaf, depth + 1) is None


class TestBranchPath:
    def test_path_conditions_select_the_leaf_members(self):
        ds = depth2_ds()
        tree = tree_of(ds, alpha=15)
        for leaf in tree.leaves():
            path = branch_path(leaf)
            assert len(path) >= 1
            for i in leaf.members:
                row = ds.rows[i]
                for fname, cond in path:
                    v = row[ds.index(fname)]
                    if v is None:
                        continue
                    if hasattr(cond, "contains"):
                        assert cond.contains(v)
                    else:
                        assert cond == v

    def test_root_has_empty_path(self):
        ds = binary_signal_ds(4)
        tree = tree_of(ds, alpha=10)
        assert branch_path(tree) == []


@st.composite
def tree_cases(draw):
    """A training table for either objective, with its dependent and a meta
    column at drawn positions, over numeric and discrete columns that are
    varied, tied, gappy, constant, all missing or near the float limit; the
    dependent follows the first column with some noise. Test rows with unseen symbols are encoded
    with the training config before the tree is built, as a run does."""
    kinds = draw(st.lists(st.sampled_from([NUMERIC, DISCRETE]), min_size=1, max_size=4))
    shapes = [draw(st.sampled_from(["varied", "tied", "gappy", "constant", "missing", "huge"]))
              for _ in kinds]
    classify = draw(st.booleans())
    noise = draw(st.sampled_from([0.0, 0.2, 0.5]))
    n = draw(st.integers(1, 40))
    rng = random.Random(draw(st.integers(0, 2**32)))

    def cell(kind, shape):
        if shape == "missing" or (shape == "gappy" and rng.random() < 0.3):
            return None
        if shape == "huge" and kind == NUMERIC:  # a cut between the two largest overflows to inf
            return rng.choice([-1.5e308, 1e308, 1.7e308])
        j = 1 if shape == "constant" else rng.randint(9, 12) if shape == "tied" else rng.randint(0, 40)
        if kind == DISCRETE:
            return "hgfedcba"[j % 8]
        # 5.0 and the next float: the cut between them rounds to 5.0 itself
        return math.nextafter(5.0, 6.0) if j == 11 else j / 2

    rows = [["v1"] + [cell(k, s) for k, s in zip(kinds, shapes)] for _ in range(n)]
    dep_at = draw(st.integers(0, len(kinds) + 1))
    for row in rows:
        signal = row[1] is not None and (row[1] > 5 if kinds[0] == NUMERIC else row[1] in "aceg")
        if rng.random() < noise:
            signal = not signal
        row.insert(dep_at, signal if classify else float(3 * signal + rng.randint(0, 2)))
    feats = [FeatureSpec("version", kind=DISCRETE, role=META)]
    feats += [FeatureSpec(f"f{i}", kind=k) for i, k in enumerate(kinds)]
    feats.insert(dep_at, FeatureSpec("dep", role="dependent"))
    train = Dataset(feats, rows, MINIMIZE_RATE if classify else MINIMIZE_VALUE)
    probes = []
    for _ in range(draw(st.integers(0, 3))):
        probe = [rng.choice(["x", "y", None]) if f.kind == DISCRETE else 1.0 for f in feats]
        probe[dep_at] = rows[0][dep_at]
        probes.append(probe)
    alpha = draw(st.one_of(st.none(), st.integers(2, max(2, n))))
    return train, probes, alpha


class TestTreeMatchesRowListReference:
    """The tree built from the encoded table equals the row-list reference
    field by field: members and their order, scores, depths, conditions,
    centroids, leaf positions and leaf distances."""

    # forest_input's fill median of a column holding 1e308 and 1.7e308
    # overflows; the tree reads only its targets
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @settings(max_examples=150, deadline=None)
    @given(tree_cases())
    def test_equal_trees(self, case):
        train, probes, alpha = case
        cfg = DistanceConfig.from_dataset(train)
        table = encode(train.rows, cfg)
        encode(probes, cfg)  # the test rows' unseen symbols take the next codes
        _, targets, *_ = forest_input(train, table)
        tree = build_tree(train, table, targets, alpha)
        ref = oracle.build_tree(train, alpha)
        assert structure(tree) == structure(ref)
        assert tree.leaf_distances == ref.leaf_distances
