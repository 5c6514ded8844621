import random


from xplan.data_model import MINIMIZE_RATE, MINIMIZE_VALUE, Dataset, FeatureSpec
from xplan.decision_tree import (
    branch_path,
    build_tree,
    locate_leaf,
    siblings_at_level,
)
from xplan.num_core import variability


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
        tree = build_tree(ds, alpha=5)
        assert tree.split_feature == "flag"
        for _, child in tree.branches:
            deps = [ds.rows[i][-1] for i in child.members]
            assert len(set(deps)) == 1
            assert child.score in (0.0, 1.0)

    def test_chosen_split_minimizes_weighted_variability(self):
        # oracle: score both features by hand and confirm flag wins
        ds = binary_signal_ds()
        tree = build_tree(ds, alpha=5)
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
        tree = build_tree(ds, alpha=10)
        assert tree.is_leaf
        assert len(tree.members) == 6

    def test_constant_dependent_single_leaf(self):
        feats = [FeatureSpec("x"), FeatureSpec("bug", role="dependent")]
        rows = [[float(i), False] for i in range(50)]
        ds = Dataset(feats, rows, MINIMIZE_RATE)
        assert build_tree(ds, alpha=5).is_leaf

    def test_leaves_partition_training_rows(self):
        ds = depth2_ds()
        tree = build_tree(ds, alpha=15)
        seen = sorted(i for leaf in tree.leaves() for i in leaf.members)
        assert seen == list(range(len(ds.rows)))

    def test_deterministic_given_data(self):
        ds = depth2_ds()
        t1, t2 = build_tree(ds, alpha=15), build_tree(ds, alpha=15)
        assert structure(t1) == structure(t2)
        assert t1.leaf_distances == t2.leaf_distances

    def test_regression_dependent_uses_sigma(self):
        feats = [FeatureSpec("x"), FeatureSpec("rt", role="dependent")]
        rows = [[float(i), 1.0 if i < 25 else 9.0] for i in range(50)]
        ds = Dataset(feats, rows, MINIMIZE_VALUE)
        tree = build_tree(ds, alpha=10)
        assert tree.split_feature == "x"
        scores = {child.score for _, child in tree.branches}
        assert {1.0, 9.0} <= scores or len(scores) >= 2


class TestLocateLeaf:
    def test_training_rows_route_to_their_own_leaf(self):
        ds = depth2_ds()
        tree = build_tree(ds, alpha=15)
        for i, row in enumerate(ds.rows):
            leaf = locate_leaf(tree, row, ds)
            assert i in leaf.members

    def test_missing_split_value_takes_largest_child(self):
        ds = binary_signal_ds()
        tree = build_tree(ds, alpha=5)
        largest = max((c for _, c in tree.branches), key=lambda c: len(c.members))
        got = locate_leaf(tree, [None, 0.5, False], ds)
        assert got in largest.leaves()

    def test_single_leaf_tree(self):
        ds = binary_signal_ds(n=4)
        tree = build_tree(ds, alpha=10)
        assert locate_leaf(tree, ds.rows[0], ds) is tree


class TestSiblings:
    def setup_method(self):
        self.ds = binary_signal_ds()
        self.tree = build_tree(self.ds, alpha=5)
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
        tree = build_tree(ds, alpha=15)
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
        tree = build_tree(ds, alpha=10)
        assert branch_path(tree) == []

