"""Fayyad-Irani MDL discretization and entropy-based feature ranking.

Numeric columns are cut recursively at the midpoint that most reduces
label entropy; a cut survives only if its information gain beats the MDL
acceptance threshold. Each level scores all its cuts at once from
cumulative label counts, with every entropy summed term by term exactly
as counting the slice afresh would (see ``_level_cuts``). Feature ranking
scores each column by the expected label entropy over its bins (lower =
more informative) and keeps the top beta fraction.
"""

from __future__ import annotations

import bisect
import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from xplan.data_model import INDEPENDENT, NUMERIC
from xplan.num_core import entropy, key_dtype


_SCAN_CELLS = 1 << 12  # (cut, label) cells per block of a level's cut scan


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
    """Recursive cut search over (value, label) pairs sorted by value; see
    ``_level_cuts``."""
    index = {}
    codes = np.array([index.setdefault(lab, len(index)) for _, lab in pairs], dtype=np.int64)
    values = [v for v, _ in pairs]
    return _level_cuts(values, codes, np.array([a != b for a, b in zip(values, values[1:])], dtype=bool))


def _level_cuts(values, codes, distinct):
    """The cuts of one level and, below it, of both sides of its best cut.
    ``codes`` are the labels as integers; ``distinct[i - 1]`` tells whether
    values i - 1 and i differ, so that a cut may fall between them.

    One pass over the level scores every cut, in blocks of at most
    ``_SCAN_CELLS`` (cut, label) cells, from cumulative one-hot label
    counts. Each side sums its entropy terms in the order in which labels
    first appear on it, as ``Counter`` over the slice does: the left side
    in the level's order, the right side sorted by each label's next
    position. Every p * log2(p) takes ``math.log2``. So every entropy and
    cut equals counting afresh."""
    n = len(codes)
    seen, first = np.unique(codes, return_index=True)
    k = len(seen)
    if k < 2:
        return []
    order = np.empty(seen[-1] + 1, np.int64)  # labels renumbered by first appearance
    order[seen[np.argsort(first)]] = np.arange(k)
    codes, labels = order[codes], np.arange(k)
    total = np.bincount(codes, minlength=k)
    right = np.zeros(k, np.int64)  # label counts at and after the block's end ...
    after = np.full(k, n)          # ... and each label's first position there (n: none)
    scanned = []
    step = max(1, _SCAN_CELLS // k)
    for end in range(n, 1, -step):  # blocks of cuts i (before position i), right to left
        i = np.arange(max(1, end - step), end)
        hot = codes[i, None] == labels
        r_counts = np.cumsum(hot[::-1], axis=0)[::-1] + right
        nxt = np.minimum(np.minimum.accumulate(np.where(hot, i[:, None], n)[::-1], axis=0)[::-1], after)
        right, after = r_counts[0], nxt[0]
        between = distinct[i - 1]  # cuts that fall between distinct values
        if between.any():
            i, r_counts, nxt = i[between], r_counts[between], nxt[between]
            l_counts = total - r_counts
            # unique keys, so a plain sort orders each cut's labels by next position
            keys = (nxt * k + labels).astype(key_dtype(n * k + k))
            r_counts = np.take_along_axis(r_counts, np.sort(keys, axis=1) % k, axis=1)
            terms = _plogp(np.stack([l_counts, r_counts]), np.stack([i, n - i])[:, :, None])
            ent = np.zeros((2, len(i)))
            for column in terms.transpose(2, 0, 1):
                ent -= column
            scanned.append((i, (i / n) * ent[0] + ((n - i) / n) * ent[1]))
    if not scanned:
        return []
    i, e = (np.concatenate(a[::-1]) for a in zip(*scanned))
    i = int(i[np.argmin(e)])  # the first best cut
    level = codes.tolist()
    if not _mdl_accepts(level, level[:i], level[i:]):
        return []
    cut = (values[i - 1] + values[i]) / 2
    return (_level_cuts(values[:i], codes[:i], distinct[:i - 1]) + [cut]
            + _level_cuts(values[i:], codes[i:], distinct[i:]))


def _plogp(counts, totals):
    """p * log2(p) of each p = count / total, 0.0 where the count is 0;
    ``math.log2`` runs once per distinct p."""
    p = counts / totals
    distinct, inverse = np.unique(p, return_inverse=True)
    logs = np.zeros(len(distinct))
    some = int(distinct[0] == 0)  # a zero count sorts first
    logs[some:] = np.fromiter(map(math.log2, distinct[some:].tolist()), float, len(distinct) - some)
    return p * logs[inverse.reshape(p.shape)]


def mdl_discretize(column, labels, feature=""):
    """Bin a numeric column against class labels; bins tile the real line."""
    if len(column) != len(labels):
        raise ValueError("column and labels differ in length")
    pairs = sorted(zip(column, labels), key=lambda p: p[0])
    cuts = sorted(_find_cuts(pairs))
    edges = [-math.inf] + cuts + [math.inf]
    bins = [Bin(feature, lo, hi) for lo, hi in zip(edges, edges[1:])]
    values = [v for v, _ in pairs]
    ends = [0] + [bisect.bisect_right(values, cut) for cut in cuts] + [len(pairs)]
    for b, start, end in zip(bins, ends, ends[1:]):  # the sorted pairs that b contains
        inside = [lab for _, lab in pairs[start:end]]
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
