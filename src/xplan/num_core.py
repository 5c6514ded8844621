"""Shared numeric primitives: base-2 entropy, the row encoding, row
distance and the dtype of integer sort keys.

``encode`` is the one row encoding, which the forest, xtree's tree and
the feature ranking also read: a float column per independent feature
with raw numeric values, symbol codes and NaN for missing cells.
Distance is a weighted Euclidean over these columns, with numerics
normalized to [0,1] by the training bounds, discrete mismatch counting
1, and missing values resolved pessimistically (a fully-missing pair
contributes 1). Each encoded table normalizes its numerics once, into a
cached ``unit`` array that ``distance`` reads and ``take`` slices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from xplan.data_model import DISCRETE, INDEPENDENT, NUMERIC


def entropy(counts):
    """Base-2 entropy of a frequency table (iterable of counts)."""
    total = sum(counts)
    e = 0.0
    for c in counts:
        if c > 0:
            p = c / total
            e -= p * math.log2(p)
    return e


def key_dtype(top):
    """The unsigned dtype of integer sort keys up to ``top``: 32 bits at
    least, as each further sort kernel numpy runs adds its code to the
    process's resident memory."""
    return np.promote_types(np.min_scalar_type(top), np.uint32)


@dataclass
class DistanceConfig:
    """Feature metadata needed to compare two rows of one schema."""

    names: list
    indices: list        # column positions of the independent features
    kinds: list
    weights: list
    bounds: dict         # per numeric feature: (min, max) from training
    arity: int           # cells per row, dependent and meta columns included
    codes: dict = field(repr=False)  # per discrete: symbol -> code

    @classmethod
    def from_dataset(cls, ds):
        """The config of ds's schema. The training symbols of each discrete
        take the codes 0, 1, ... in sorted order; symbols first seen by a
        later ``encode`` take the next codes."""
        feats = [(i, f) for i, f in enumerate(ds.features) if f.role == INDEPENDENT]
        codes = {f.name: {s: j for j, s in enumerate(sorted({r[i] for r in ds.rows} - {None}))}
                 for i, f in feats if f.kind == DISCRETE}
        return cls([f.name for _, f in feats], [i for i, _ in feats], [f.kind for _, f in feats],
                   [f.weight for _, f in feats], dict(ds.bounds), len(ds.features), codes)


@dataclass
class Encoded:
    """Rows as a (features, rows) float array of raw values and symbol
    codes (NaN = missing). Tables encoded with one config share the codes."""

    cfg: DistanceConfig
    cols: np.ndarray

    def __len__(self):
        return self.cols.shape[1]

    @cached_property
    def unit(self):
        """What ``distance`` compares: ``cols`` with numerics mapped into
        [0,1] by the training bounds, clamped (a constant column is 0). A
        span that overflows the float range is taken over halved operands."""
        unit = self.cols.copy()
        for col, name, kind in zip(unit, self.cfg.names, self.cfg.kinds):
            if kind == NUMERIC:
                lo, hi = self.cfg.bounds.get(name, (0.0, 0.0))
                if hi > lo and math.isinf(hi - lo):
                    col[:] = np.clip((col / 2 - lo / 2) / (hi / 2 - lo / 2), 0.0, 1.0)
                else:
                    col[:] = (np.clip((col - lo) / (hi - lo), 0.0, 1.0) if hi > lo
                              else np.where(np.isnan(col), col, 0.0))
        return unit

    def take(self, idx):
        """The rows at the given positions, as a new table whose ``unit`` is
        sliced from this one's: every caller takes rows to measure them."""
        taken = Encoded(self.cfg, self.cols[:, idx])
        taken.unit = self.unit[:, idx]
        return taken


def encode(rows, cfg):
    """Encode rows of cfg's schema (see the module docstring)."""
    if any(len(r) != cfg.arity for r in rows):
        raise ValueError("rows from different schemas")
    cols = np.empty((len(cfg.indices), len(rows)))
    for col, name, i, kind in zip(cols, cfg.names, cfg.indices, cfg.kinds):
        if kind == NUMERIC:
            col[:] = [math.nan if r[i] is None else r[i] for r in rows]
        else:
            codes = cfg.codes[name]
            col[:] = [math.nan if r[i] is None else codes.setdefault(r[i], len(codes)) for r in rows]
    return Encoded(cfg, cols)


def distance(a, b):
    """All pairwise distances between two encoded tables, as a
    (len(a), len(b)) array. Each cell is summed feature by feature in
    schema order, exactly as a scalar loop over one pair would sum it: a
    weight of 1 multiplies nothing, and a signed difference squares as its
    absolute value does."""
    cfg = a.cfg
    total = np.zeros((len(a), len(b)))
    for kind, w, ca, cb in zip(cfg.kinds, cfg.weights, a.unit, b.unit):
        if kind == NUMERIC:
            d = ca[:, None] - cb[None, :]
            miss_a, miss_b = np.isnan(ca), np.isnan(cb)
            if miss_a.any() or miss_b.any():
                # a one-sided gap takes the far end of [0,1] from the value
                # that is present; a two-sided gap counts 1
                d = np.where(miss_b[None, :], np.maximum(ca, 1.0 - ca)[:, None], d)
                d = np.where(miss_a[:, None], np.maximum(cb, 1.0 - cb)[None, :], d)
                d[miss_a[:, None] & miss_b[None, :]] = 1.0
        else:
            # a missing symbol differs in the worst case: NaN != every code and NaN
            d = (ca[:, None] != cb[None, :]).astype(float)
        if w == 1.0:
            d *= d
            total += d
        else:
            term = w * d
            term *= d
            total += term
    return np.sqrt(total, out=total)


def distance_matrix(rows_a, rows_b, cfg):
    """All pairwise distances between two lists of rows."""
    return distance(encode(rows_a, cfg), encode(rows_b, cfg))
