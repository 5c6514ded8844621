"""Reference implementations that the fast paths in ``xplan`` must match
exactly: the scalar row distance that the encoded kernel replaced, and
the quadratic MDL cut search that the one-scan search replaced."""

import math
from collections import Counter

from xplan.data_model import NUMERIC, normalize_bounds
from xplan.discretize import _mdl_accepts
from xplan.num_core import entropy


def _norm(cfg, name, value):
    lo, hi = cfg.bounds.get(name, (0.0, 0.0))
    return normalize_bounds(value, lo, hi)


def _feature_delta(a, b, kind, cfg, name):
    if a is None and b is None:
        return 1.0
    if kind == NUMERIC:
        if a is None or b is None:
            v = _norm(cfg, name, b if a is None else a)
            return max(v, 1.0 - v)  # worst-case substitution for the gap
        return abs(_norm(cfg, name, a) - _norm(cfg, name, b))
    if a is None or b is None:
        return 1.0  # a differing symbol always exists in the worst case
    return 0.0 if a == b else 1.0


def distance(x, y, cfg):
    """Weighted Euclidean distance between two rows (independents only)."""
    if len(x) != len(y):
        raise ValueError("rows from different schemas")
    total = 0.0
    for name, i, kind, w in zip(cfg.names, cfg.indices, cfg.kinds, cfg.weights):
        d = _feature_delta(x[i], y[i], kind, cfg, name)
        total += w * d * d
    return math.sqrt(total)


def find_cuts(pairs):
    """Recursive cut search over (value, label) pairs sorted by value,
    counting both sides afresh at every candidate cut."""
    n = len(pairs)
    if n < 2:
        return []
    labels = [lab for _, lab in pairs]
    if len(set(labels)) < 2:
        return []
    ent = lambda labs: entropy(Counter(labs).values())
    best = None
    for i in range(1, n):
        if pairs[i][0] == pairs[i - 1][0]:
            continue
        e = (i / n) * ent(labels[:i]) + ((n - i) / n) * ent(labels[i:])
        if best is None or e < best[0]:
            best = (e, i)
    if best is None:
        return []
    _, i = best
    if not _mdl_accepts(labels, labels[:i], labels[i:]):
        return []
    cut = (pairs[i - 1][0] + pairs[i][0]) / 2
    return find_cuts(pairs[:i]) + [cut] + find_cuts(pairs[i:])
