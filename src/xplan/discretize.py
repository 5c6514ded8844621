"""Fayyad-Irani MDL discretization and entropy-based feature ranking.

Numeric columns are cut recursively at the midpoint that most reduces
label entropy; a cut survives only if its information gain beats the MDL
acceptance threshold. Each level scores all its cuts in one float scan
of cumulative label counts, whose every score lies within
``_SCORE_SLACK`` of the exact one, then scores again exactly the few
cuts that can still be its best. Every score that decides a cut, and
every bin's entropy, sums ``math.log2`` terms in the order labels first
appear, as counting the slice afresh does (see ``_level_cuts``).
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
from xplan.num_core import entropy


_SCAN_CELLS = 1 << 12  # (cut, label) cells per block of a level's cut scan
_SCORE_SLACK = 1e-9    # bounds a scanned score's error: 2e-13 at most seen up to 1,000 labels


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


def _scan(codes, distinct):
    """Every cut of a level that falls between distinct values (cut i falls
    before position i; ``distinct[i - 1]`` tells whether values i - 1 and i
    differ) and its scanned score, (i/n)·H(left) + ((n-i)/n)·H(right).

    One pass scores the cuts in blocks of at most ``_SCAN_CELLS`` (cut,
    label) cells, from cumulative label counts and a table of c·log2(c)
    taken by ``np.log2``, so each score lies within ``_SCORE_SLACK`` of the
    exact one. A level of fewer than two labels has no cut worth scoring."""
    n = len(codes)
    total = np.bincount(codes)
    labels = np.flatnonzero(total)
    if len(labels) < 2:
        return np.empty(0, np.int64), np.empty(0)
    total = total[labels]
    c = np.arange(n + 1)
    clogc = c * np.log2(np.maximum(c, 1))
    left = 0  # label counts before the block
    cuts, scores = [], []
    step = max(1, _SCAN_CELLS // len(labels))
    for start in range(1, n, step):
        i = np.arange(start, min(n, start + step))
        l_counts = np.cumsum(codes[i - 1, None] == labels, axis=0) + left
        left = l_counts[-1]
        between = distinct[i - 1]
        i, l_counts = i[between], l_counts[between]
        cuts.append(i)
        scores.append((clogc[i] - clogc[l_counts].sum(axis=1)
                       + clogc[n - i] - clogc[total - l_counts].sum(axis=1)) / n)
    return np.concatenate(cuts), np.concatenate(scores)


def _level_cuts(values, codes, distinct):
    """The cuts of one level and, below it, of both sides of its best cut.
    ``codes`` are the labels as integers; ``distinct`` is as in ``_scan``.

    ``_scan`` scores every cut within ``_SCORE_SLACK``; only the cuts that
    score within twice that of its best can be the exact best, and those
    are scored again as counting each side afresh does: ``_label_entropy``
    sums its ``math.log2`` terms in the order labels first appear on the
    side. The first exact minimum wins, so every cut equals the quadratic
    search's."""
    cuts, scores = _scan(codes, distinct)
    if not len(cuts):
        return []
    level, n = codes.tolist(), len(codes)
    near = cuts[scores <= scores.min() + 2 * _SCORE_SLACK].tolist()
    i = min(near, key=lambda i: (i / n) * _label_entropy(level[:i])
            + ((n - i) / n) * _label_entropy(level[i:]))  # min keeps the first of equals
    if not _mdl_accepts(level, level[:i], level[i:]):
        return []
    cut = (values[i - 1] + values[i]) / 2
    return (_level_cuts(values[:i], codes[:i], distinct[:i - 1]) + [cut]
            + _level_cuts(values[i:], codes[i:], distinct[i:]))


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
