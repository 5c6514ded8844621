"""Fayyad-Irani MDL discretization and entropy-based feature ranking.

Numeric columns are cut recursively at the midpoint that most reduces
label entropy; a cut survives only if its information gain beats the MDL
acceptance threshold. Each level scores all its cuts at once from
cumulative label counts, with every entropy summed term by term exactly
as counting the slice afresh would (see ``_level_cuts``).
``mdl_discretize`` is the one binner: xtree's tree and the feature
ranking both call it on arrays cut from the run's encoded table. Feature
ranking scores each column by the expected label entropy over its bins
(lower = more informative) and keeps the top beta fraction.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from xplan.data_model import NUMERIC
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
    """Bin a numeric column (no missing cells) against class labels; bins
    tile the real line, and each counts the values it holds and their
    label entropy."""
    if len(column) != len(labels):
        raise ValueError("column and labels differ in length")
    values = np.asarray(column, dtype=float)
    order = np.argsort(values, kind="stable")
    values, codes = values[order], np.unique(np.asarray(labels), return_inverse=True)[1][order]
    # Python floats, so that each cut point is one too
    cuts = sorted(_level_cuts(values.tolist(), codes, values[1:] != values[:-1]))
    edges = [-math.inf] + cuts + [math.inf]
    ends = [0] + np.searchsorted(values, cuts, side="right").tolist() + [len(values)]
    return [Bin(feature, lo, hi, _label_entropy(codes[start:end].tolist()), end - start)
            for lo, hi, start, end in zip(edges, edges[1:], ends, ends[1:])]


def rank_features(encoded, cluster_ids, beta=0.33):
    """Order the encoded table's features by how tightly their bins select
    few cluster ids: MDL bins for numerics, one bin per symbol for
    discretes (in order of first appearance); missing cells are skipped."""
    ids = np.asarray(cluster_ids)
    scored = []
    for name, kind, col in zip(encoded.cfg.names, encoded.cfg.kinds, encoded.cols):
        present = ~np.isnan(col)
        values, labels = col[present], ids[present]
        if kind == NUMERIC:
            stats = [(b.count, b.entropy) for b in mdl_discretize(values, labels, name)]
        else:
            _, first, group = np.unique(values, return_index=True, return_inverse=True)
            stats = [(len(labs), _label_entropy(labs.tolist()))
                     for labs in (labels[group == g] for g in np.argsort(first))]
        total = sum(n for n, _ in stats)
        score = sum((n / total) * e for n, e in stats) if total else 0.0
        scored.append((name, score))
    ranking = sorted(scored, key=lambda p: p[1])  # stable: ties keep column order
    keep = max(1, round(beta * len(ranking)))
    return FeatureRanking(ranking, [name for name, _ in ranking[:keep]])
