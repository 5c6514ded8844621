"""Variability-splitting decision tree with navigable leaves.

Each node splits on the independent feature whose candidate split most
reduces the variability of the dependent column: multiway, one child per
MDL bin (numerics) or per symbol (discretes). Leaves keep their member
rows, their centroid and a quality score so planners can compare
branches.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from xplan.data_model import (
    DISCRETE,
    INDEPENDENT,
    MINIMIZE_RATE,
    NUMERIC,
    dependent_score,
)
from xplan.discretize import Bin, mdl_discretize
from xplan.num_core import DistanceConfig, distance_matrix, variability
from xplan.where_cluster import ClusterConfig, centroid_of

MIN_GAIN = 1e-6  # absolute variability reduction needed to keep a split


@dataclass
class TreeNode:
    members: list                      # row indices into the training data
    score: float
    depth: int = 0
    parent: "TreeNode | None" = None
    split_feature: str | None = None
    branches: list = field(default_factory=list)  # (condition, child) pairs
    centroid: list | None = None       # leaves: mean/mode row of the members
    leaf_pos: int | None = None        # leaves: position in the root's leaves()
    leaf_distances: list | None = None  # root: centroid distances, leaf by leaf

    @property
    def is_leaf(self):
        return not self.branches

    def leaves(self):
        if self.is_leaf:
            return [self]
        out = []
        for _, child in self.branches:
            out.extend(child.leaves())
        return out


def _dep_labels(train):
    """Dependent column as class labels for the discretizer."""
    dep = train.dep_values()
    if train.objective == MINIMIZE_RATE:
        return ["t" if v else "f" for v in dep]
    med = dependent_score(dep, train.objective)
    return ["hi" if v > med else "lo" for v in dep]


def _dep_variability(train, ids):
    vals = [train.rows[i][train.dep_index] for i in ids]
    return variability(vals, DISCRETE if train.objective == MINIMIZE_RATE else NUMERIC)


def _candidate_split(train, labels, ids, feat):
    """Partition ids by one feature; returns (conditions, groups) or None.

    Rows with a missing value join the largest group.
    """
    col_i = train.index(feat.name)
    present = [i for i in ids if train.rows[i][col_i] is not None]
    missing = [i for i in ids if train.rows[i][col_i] is None]
    if not present:
        return None
    if feat.kind == NUMERIC:
        vals = [train.rows[i][col_i] for i in present]
        bins = mdl_discretize(vals, [labels[i] for i in present], feat.name)
        if len(bins) < 2:
            return None
        conds = bins
        groups = [[] for _ in bins]
        for i in present:
            v = train.rows[i][col_i]
            for g, b in zip(groups, bins):
                if b.contains(v):
                    g.append(i)
                    break
    else:
        by_sym = {}
        for i in present:
            by_sym.setdefault(train.rows[i][col_i], []).append(i)
        if len(by_sym) < 2:
            return None
        conds = sorted(by_sym)
        groups = [by_sym[s] for s in conds]
    if missing:
        max(groups, key=len).extend(missing)
    pairs = [(c, g) for c, g in zip(conds, groups) if g]
    return ([c for c, _ in pairs], [g for _, g in pairs]) if len(pairs) >= 2 else None


def build_tree(train, alpha=None):
    """Grow the tree top-down; children larger than alpha are re-split."""
    n = len(train.rows)
    if n == 0:
        raise ValueError("empty training data")
    alpha = ClusterConfig(alpha).resolve_alpha(n)
    labels = _dep_labels(train)

    def grow(ids, depth, parent):
        node = TreeNode(
            members=ids,
            score=dependent_score([train.rows[i][train.dep_index] for i in ids], train.objective),
            depth=depth,
            parent=parent,
        )
        here = _dep_variability(train, ids)
        if len(ids) <= alpha or here <= 0:
            return node
        best = None
        for feat in train.features:
            if feat.role != INDEPENDENT:
                continue
            cand = _candidate_split(train, labels, ids, feat)
            if cand is None:
                continue
            conds, groups = cand
            spread = sum(
                len(g) / len(ids) * _dep_variability(train, g) for g in groups
            )
            if best is None or spread < best[0]:
                best = (spread, feat.name, conds, groups)
        if best is None or here - best[0] <= MIN_GAIN:
            return node
        _, fname, conds, groups = best
        node.split_feature = fname
        node.branches = [(c, grow(g, depth + 1, node)) for c, g in zip(conds, groups)]
        return node

    root = grow(list(range(n)), 0, None)
    leaves = root.leaves()
    for pos, leaf in enumerate(leaves):
        leaf.centroid = centroid_of([train.rows[i] for i in leaf.members], train.features)
        leaf.leaf_pos = pos
    centroids = [leaf.centroid for leaf in leaves]
    root.leaf_distances = distance_matrix(centroids, centroids, DistanceConfig.from_dataset(train)).tolist()
    return root


def locate_leaf(tree, row, ds):
    """Route a row down the tree; missing or unseen values take the
    largest child."""
    node = tree
    while not node.is_leaf:
        i = ds.index(node.split_feature)
        v = row[i]
        chosen = None
        if v is not None:
            for cond, child in node.branches:
                if isinstance(cond, Bin):
                    if cond.contains(v):
                        chosen = child
                        break
                elif cond == v:
                    chosen = child
                    break
        if chosen is None:
            chosen = max((child for _, child in node.branches), key=lambda c: len(c.members))
        node = chosen
    return node


def branch_path(leaf):
    """(feature, condition) pairs from the root down to this node."""
    path = []
    node = leaf
    while node.parent is not None:
        parent = node.parent
        for cond, child in parent.branches:
            if child is node:
                path.append((parent.split_feature, cond))
                break
        node = parent
    return list(reversed(path))


def siblings_at_level(tree, leaf, lvl):
    """Leaves reachable from the ancestor lvl levels up, minus the leaf.

    Returns None once lvl would climb above the root (search exhausted).
    """
    node = leaf
    for _ in range(lvl):
        if node.parent is None:
            return None
        node = node.parent
    return [l for l in node.leaves() if l is not leaf]

