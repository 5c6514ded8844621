"""Fayyad-Irani MDL discretization and entropy-based feature ranking.

Numeric columns are cut recursively at the midpoint that most reduces
label entropy; a cut survives only if its information gain beats the MDL
acceptance threshold. Feature ranking scores each column by the expected
label entropy over its bins (lower = more informative) and keeps the top
beta fraction.
"""

from __future__ import annotations

import bisect
import math
from collections import Counter
from dataclasses import dataclass

from xplan.data_model import INDEPENDENT, NUMERIC
from xplan.num_core import entropy


@dataclass
class Bin:
    """Half-open interval (lo, hi]; the outermost bins are unbounded."""

    feature: str
    lo: float
    hi: float
    entropy: float = 0.0
    count: int = 0

    def contains(self, value):
        return self.lo < value <= self.hi

    def __str__(self):
        return f"{self.feature} in ({self.lo:g}, {self.hi:g}]"


@dataclass
class FeatureRanking:
    ranking: list   # (feature name, informativeness score), ascending
    selected: list  # top-beta feature names


def _label_entropy(labels):
    return entropy(Counter(labels).values())


def _mdl_accepts(labels, left, right):
    """Fayyad-Irani acceptance test for one binary cut."""
    n = len(labels)
    e = _label_entropy(labels)
    e1 = _label_entropy(left)
    e2 = _label_entropy(right)
    gain = e - (len(left) / n) * e1 - (len(right) / n) * e2
    k = len(set(labels))
    k1 = len(set(left))
    k2 = len(set(right))
    delta = math.log2(3 ** k - 2) - (k * e - k1 * e1 - k2 * e2)
    threshold = (math.log2(n - 1) + delta) / n
    return gain > threshold


def _find_cuts(pairs):
    """Recursive cut search over (value, label) pairs sorted by value: one
    scan per level moves each label from the right-hand class counts to the
    left-hand ones. Each side sums its entropy terms in the order in which
    labels first appear on it, as ``Counter`` over the slice does, so every
    entropy and cut equals counting afresh."""
    n = len(pairs)
    labels = [lab for _, lab in pairs]
    right = Counter(labels)
    if len(right) < 2:
        return []
    # following[j]: next position after j with the same label (n if none);
    # order: (first position on the right side, label), ascending
    following, first = [n] * n, {}
    for j in range(n - 1, -1, -1):
        following[j], first[labels[j]] = first.get(labels[j], n), j
    order = sorted((j, lab) for lab, j in first.items())
    left = {}
    best = None
    for i in range(1, n):
        lab = labels[i - 1]
        left[lab] = left.get(lab, 0) + 1
        right[lab] -= 1
        order.pop(0)  # position i - 1 was the first on the right
        if following[i - 1] < n:
            bisect.insort(order, (following[i - 1], lab))
        if pairs[i][0] == pairs[i - 1][0]:
            continue
        e = (i / n) * entropy(left.values()) + ((n - i) / n) * entropy([right[k] for _, k in order])
        if best is None or e < best[0]:
            best = (e, i)
    if best is None:
        return []
    _, i = best
    if not _mdl_accepts(labels, labels[:i], labels[i:]):
        return []
    cut = (pairs[i - 1][0] + pairs[i][0]) / 2
    return _find_cuts(pairs[:i]) + [cut] + _find_cuts(pairs[i:])


def mdl_discretize(column, labels, feature=""):
    """Bin a numeric column against class labels; bins tile the real line."""
    if len(column) != len(labels):
        raise ValueError("column and labels differ in length")
    pairs = sorted(zip(column, labels), key=lambda p: p[0])
    cuts = sorted(_find_cuts(pairs))
    edges = [-math.inf] + cuts + [math.inf]
    bins = [Bin(feature, lo, hi) for lo, hi in zip(edges, edges[1:])]
    for b in bins:
        inside = [lab for v, lab in pairs if b.contains(v)]
        b.count = len(inside)
        b.entropy = _label_entropy(inside) if inside else 0.0
    return bins


def bins_for(feature_values, cluster_ids, kind, name=""):
    """Bins of one feature: MDL cuts for numerics, raw symbols for discretes.

    Returns (count, entropy) pairs; rows with a missing value are skipped.
    """
    present = [(v, c) for v, c in zip(feature_values, cluster_ids) if v is not None]
    if not present:
        return []
    if kind == NUMERIC:
        vals = [v for v, _ in present]
        labs = [c for _, c in present]
        return [(b.count, b.entropy) for b in mdl_discretize(vals, labs, name)]
    groups = {}
    for v, c in present:
        groups.setdefault(v, []).append(c)
    return [(len(labs), _label_entropy(labs)) for labs in groups.values()]


def rank_features(train, cluster_ids, beta=0.33):
    """Order features by how tightly their bins select few cluster ids."""
    scored = []
    for f in train.features:
        if f.role != INDEPENDENT:
            continue
        stats = bins_for(train.column(f.name), cluster_ids, f.kind, f.name)
        total = sum(n for n, _ in stats)
        score = sum((n / total) * e for n, e in stats) if total else 0.0
        scored.append((f.name, score))
    ranking = sorted(scored, key=lambda p: p[1])  # stable: ties keep column order
    keep = max(1, round(beta * len(ranking)))
    return FeatureRanking(ranking, [name for name, _ in ranking[:keep]])
