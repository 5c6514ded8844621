"""Shared numeric primitives: base-2 entropy, the row encoding, row
distance, nearest-row distance and the dtype of integer sort keys.

``encode`` is the one row encoding, which the forest, xtree's tree and
the feature ranking also read: a float column per independent feature
with raw numeric values, symbol codes and NaN for missing cells.
Distance is a weighted Euclidean over these columns, with numerics
normalized to [0,1] by the training bounds, discrete mismatch counting
1, and missing values resolved pessimistically (a fully-missing pair
contributes 1). Each encoded table normalizes its numerics once, into a
cached ``unit`` array that the kernel reads and ``take`` slices. Every
distance matrix is built by one block loop, in blocks of at most 2^14
distances (``_BLOCK_CELLS``). It adds the features' terms in schema order,
through one block-sized terms array that every block and feature reuses,
so no matrix needs a temporary of its own size. ``squared_distance`` and
``distance`` write each block's sums into their result, and
``nearest_distances`` keeps only each block's row minima; no caller
manages a buffer, and no block size changes a sum, bit for bit.
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


# Distances per block of the kernel, which sizes its block buffers. On a
# 2-core VM the nearest distances over a 1000x3000 planted matrix took 0.068,
# 0.048, 0.038, 0.028, 0.033 and 0.044 s at 2^13 ... 2^18 cells (median of
# 7). Larger blocks are faster, but the buffers arrive while a seed's
# artifacts are resident: 2^15's 0.5 MB found no free heap and mapped fresh
# pages, raising a planted-600 eval's peak RSS by 0.4-0.5 MB, at 5 of 10
# checkout path lengths tried; 2^14's 0.25 MB at none.
_BLOCK_CELLS = 1 << 14


def _squared_blocks(a, b, out=None):
    """The squared distances of a's rows to b's, in blocks of at most
    ``_BLOCK_CELLS`` distances (or one row), as ``(first row, sums)`` pairs.
    One feature's terms live in a block buffer that every block and feature
    reuses; the sums go into out's rows when out is given, else into a
    second block buffer, allocated with the first, that every block reuses.
    Each cell is summed feature by feature in schema order, exactly as a
    scalar loop over one pair would sum it: a weight of 1 multiplies
    nothing, and a signed difference squares as its absolute value does."""
    step = max(1, _BLOCK_CELLS // max(1, len(b)))
    buffers = np.empty((1 if out is not None else 2, min(step, len(a)), len(b)))
    for lo in range(0, len(a), step):
        units = a.unit[:, lo:lo + step]
        rows = units.shape[1]
        scratch = buffers[0, :rows]
        sums = buffers[1, :rows] if out is None else out[lo:lo + rows]
        sums.fill(0.0)
        for kind, w, ca, cb in zip(a.cfg.kinds, a.cfg.weights, units, b.unit):
            if kind == NUMERIC:
                np.subtract(ca[:, None], cb[None, :], out=scratch)
                miss_a, miss_b = np.isnan(ca), np.isnan(cb)
                if miss_a.any() or miss_b.any():
                    # a one-sided gap takes the far end of [0,1] from the value
                    # that is present; a two-sided gap counts 1
                    np.copyto(scratch, np.maximum(ca, 1.0 - ca)[:, None], where=miss_b[None, :])
                    far_b = np.where(miss_b, 1.0, np.maximum(cb, 1.0 - cb))
                    np.copyto(scratch, far_b[None, :], where=miss_a[:, None])
            else:
                # a missing symbol differs in the worst case: NaN != every code and NaN
                np.not_equal(ca[:, None], cb[None, :], out=scratch)
            if w == 1.0:
                scratch *= scratch
                sums += scratch
            else:
                term = w * scratch
                term *= scratch
                sums += term
        yield lo, sums


def squared_distance(a, b):
    """All pairwise squared distances between two encoded tables, as a
    (len(a), len(b)) array, built block by block (see ``_squared_blocks``)."""
    out = np.empty((len(a), len(b)))
    for _ in _squared_blocks(a, b, out):
        pass
    return out


def distance(a, b):
    """All pairwise distances between two encoded tables: the roots of
    ``squared_distance``."""
    total = squared_distance(a, b)
    return np.sqrt(total, out=total)


def distance_matrix(rows_a, rows_b, cfg):
    """All pairwise distances between two lists of rows."""
    return distance(encode(rows_a, cfg), encode(rows_b, cfg))


def nearest_distances(train, rows):
    """Distance from each encoded row to its nearest encoded training row:
    the full matrix's minima, taken block by block. Only the minima are
    rooted: the root is monotone and correctly rounded, so the root of a
    minimum is the minimum of the roots."""
    nearest = np.empty(len(rows))
    for lo, sums in _squared_blocks(rows, train):
        nearest[lo:lo + len(sums)] = sums.min(axis=1)
    return np.sqrt(nearest, out=nearest)
