"""Variability-splitting decision tree with navigable leaves.

Each node splits on the independent feature whose candidate split most
reduces the variability of the dependent column (class entropy, or the
population std of a numeric dependent): multiway, one child per MDL bin
(numerics) or per symbol (discretes). The tree reads the run's encoded
training table and the forest's targets; a numeric is binned by
``mdl_discretize`` against the classes, or against above/below the
median. Leaves keep their member rows, their centroid and a quality
score so planners can compare branches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from xplan.data_model import MINIMIZE_RATE, NUMERIC, dependent_score
from xplan.discretize import Bin, mdl_discretize
from xplan.num_core import distance_matrix, entropy
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


def build_tree(train, encoded, y, alpha=None):
    """Grow the tree top-down over the training rows' encoded table and
    their targets (``forest_input``'s); children larger than alpha are
    re-split."""
    n = len(y)
    if n == 0:
        raise ValueError("empty training data")
    alpha = ClusterConfig(alpha).resolve_alpha(n)
    classify = train.objective == MINIMIZE_RATE
    # the discretizer's classes: the class itself, or above the median
    labels = y if classify else y > dependent_score(y.tolist(), train.objective)
    # each discrete's symbols by code: codes are handed out in insertion order
    symbols = {name: list(codes) for name, codes in encoded.cfg.codes.items()}

    def variability(ids):
        """Entropy of the classes, or the population std with both sums
        taken left to right, over the members in their order."""
        vals = y[ids]
        if classify:
            hits = int(np.count_nonzero(vals))
            return entropy([hits, len(vals) - hits])
        mean = vals.cumsum()[-1] / len(vals)
        # float_power calls libm's pow, as Python's ** does
        return math.sqrt(np.float_power(vals - mean, 2).cumsum()[-1] / len(vals))

    def partition(ids, name, kind, col):
        """(conditions, groups) of one feature's split of ids, or None. A
        group holds its present members in their order, then, if it is the
        first largest, the members with a missing cell."""
        v = col[ids]
        missing = np.isnan(v)
        present = v[~missing]
        if not len(present):
            return None
        if kind == NUMERIC:
            conds = mdl_discretize(present, labels[ids[~missing]], name)
            group = np.searchsorted([b.hi for b in conds[:-1]], present)  # lo < v <= hi
        else:
            conds, group = symbols[name], present.astype(np.intp)  # by code: sorted symbols
        g = np.full(len(ids), np.argmax(np.bincount(group, minlength=len(conds))))
        g[~missing] = group
        sizes = np.bincount(g, minlength=len(conds))
        kept = np.flatnonzero(sizes)
        if len(kept) < 2:
            return None
        ends = np.cumsum(sizes[kept]).tolist()
        ordered = ids[np.argsort(2 * g + missing, kind="stable")]
        return [conds[k] for k in kept], [ordered[a:b] for a, b in zip([0] + ends, ends)]

    def grow(ids, depth, parent):
        node = TreeNode(
            members=ids.tolist(),
            score=dependent_score(y[ids].tolist(), train.objective),
            depth=depth,
            parent=parent,
        )
        here = variability(ids)
        if len(ids) <= alpha or here <= 0:
            return node
        best = None
        for name, kind, col in zip(encoded.cfg.names, encoded.cfg.kinds, encoded.cols):
            cand = partition(ids, name, kind, col)
            if cand is None:
                continue
            conds, groups = cand
            spread = sum(len(g) / len(ids) * variability(g) for g in groups)
            if best is None or spread < best[0]:
                best = (spread, name, conds, groups)
        if best is None or here - best[0] <= MIN_GAIN:
            return node
        _, fname, conds, groups = best
        node.split_feature = fname
        node.branches = [(c, grow(g, depth + 1, node)) for c, g in zip(conds, groups)]
        return node

    root = grow(np.arange(n), 0, None)
    leaves = root.leaves()
    for pos, leaf in enumerate(leaves):
        leaf.centroid = centroid_of([train.rows[i] for i in leaf.members], train.features)
        leaf.leaf_pos = pos
    centroids = [leaf.centroid for leaf in leaves]
    root.leaf_distances = distance_matrix(centroids, centroids, encoded.cfg).tolist()
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

