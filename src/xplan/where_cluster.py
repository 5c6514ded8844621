"""WHERE: recursive top-down bi-clustering via the FastMap heuristic.

Pick two distant pivot rows in O(2N) comparisons, project everything onto
the pivot axis, split at the median projection, recurse on halves bigger
than alpha. Leaves are summarized as centroid + best-in-cluster + score.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from xplan.data_model import NUMERIC, dependent_score
from xplan.num_core import distance


@dataclass
class PivotPair:
    x: int            # positions of the pivot rows in the encoded table
    y: int
    c: float          # distance(x, y)
    to_x: np.ndarray  # distance of every row to x
    to_y: np.ndarray  # distance of every row to y


@dataclass
class ClusterConfig:
    alpha: int | None = None  # None -> ceil(sqrt(N)), floor 2

    def resolve_alpha(self, n):
        """The split size on n rows: the one alpha rule of WHERE and xtree's tree."""
        a = self.alpha if self.alpha is not None else math.ceil(math.sqrt(n))
        return max(2, a)


@dataclass
class ClusterSummary:
    index: int
    members: list      # row indices into the training dataset
    centroid: list     # synthetic row: mean numerics, mode discretes
    best: list         # member row with the best dependent value
    score: float


def fastmap_pivots(rows, rng):
    """Random row W -> X farthest from W -> Y farthest from X, over encoded rows."""
    if len(rows) < 2:
        raise ValueError("need at least 2 rows to pick pivots")
    w = rng.randrange(len(rows))
    x = int(distance(rows.take([w]), rows)[0].argmax())
    to_x = distance(rows.take([x]), rows)[0]
    y = int(to_x.argmax())
    return PivotPair(x, y, float(to_x[y]), to_x, distance(rows.take([y]), rows)[0])


def project(a, b, c):
    """Position on the X->Y axis by the cosine rule, from the distances a
    to X and b to Y (scalars or arrays) and the pivot separation c."""
    if c <= 0:
        raise ValueError("degenerate pivots (zero separation)")
    return (a * a + c * c - b * b) / (2 * c)


def centroid_of(rows, features):
    """Feature-wise mean/mode row; mode ties break by sorted symbol order."""
    cent = []
    for i, f in enumerate(features):
        vals = [r[i] for r in rows if r[i] is not None]
        if not vals:
            cent.append(None)
        elif f.kind == NUMERIC and not isinstance(vals[0], bool):
            cent.append(sum(vals) / len(vals))
        else:
            counts = Counter(vals)
            top = max(counts.values())
            cent.append(min(v for v, c in counts.items() if c == top))
    return cent


def _summarize(index, member_ids, ds, rng):
    rows = [ds.rows[i] for i in member_ids]
    dep = [r[ds.dep_index] for r in rows]
    score = dependent_score(dep, ds.objective)
    best_val = min(dep)
    candidates = [i for i, v in zip(member_ids, dep) if v == best_val]
    best = ds.rows[candidates[rng.randrange(len(candidates))]] if len(candidates) > 1 else ds.rows[candidates[0]]
    return ClusterSummary(index, list(member_ids), centroid_of(rows, ds.features), best, score)


def cluster(train, cfg, rng, rows):
    """Recursively bisect the training rows, encoded as ``rows``; returns
    leaf summaries."""
    alpha = cfg.resolve_alpha(len(train.rows))
    leaves = []

    def recurse(ids):
        if len(ids) <= alpha or len(ids) < 2:
            leaves.append(ids)
            return
        pivots = fastmap_pivots(rows.take(ids), rng)
        if pivots.c <= 0:
            leaves.append(ids)  # zero-diameter cloud, nothing to split
            return
        proj = project(pivots.to_x, pivots.to_y, pivots.c)
        order = ids[np.argsort(proj, kind="stable")]  # ties keep their order in ids
        mid = (len(ids) + 1) // 2
        recurse(order[:mid])
        recurse(order[mid:])

    recurse(np.arange(len(train.rows)))
    return [_summarize(i, ids.tolist(), train, rng) for i, ids in enumerate(leaves)]


def nearest_cluster(to_centroids, clusters):
    """Cluster with the closest centroid, from a row's distance to each
    centroid in cluster order; ties go to the lowest index."""
    return clusters[int(np.argmin(to_centroids))]  # ValueError when there are none
