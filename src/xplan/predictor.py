"""Random-forest oracle built from scratch, plus SMOTE, differential
evolution for hyperparameter tuning, and the predictor quality gate.

The forest grows CART trees on bootstrap samples with a random feature
subset per split. Classification aggregates tree votes by majority;
regression averages tree means. Nothing here ever reads test rows during
training or tuning. The trees split the columns of ``num_core.encode``:
raw numeric values and sorted symbol codes, with each gap filled by its
column's training median. The forest encodes no rows itself: it reads
tables encoded with the training rows' config (see ``forest_input``).

Tree t draws its bootstrap sample, numpy's ``rng.integers(0, n, n)``, then
one feature subset per splittable node in depth-first preorder, the values
of one ``rng.choice(f, k, replace=False)``, from its own generator ``rng =
default_rng((seed, t))``. None of these generators is made: ``_Streams``
replays their seeding (``SeedSequence`` and PCG64) and their outputs for
all trees at once, and ``_FeatureDraws`` the ``choice`` calls for many
trees and nodes at once, so a fit loads no ``numpy.random`` (nor the
OpenSSL library it brings in, several MB of resident memory).
The trees grow in lockstep, the next node of each per step, with exact
splits: each step is array work over all trees (their stacks, the split
search over rows sorted by dense value ranks, the partitions), with no
Python loop over nodes. Level-wise growth (another draw order) or
histogram splits (as in LightGBM: binned thresholds) would change the
forest.
"""

from __future__ import annotations

import functools
import math
import random
import warnings
from dataclasses import dataclass, replace

import numpy as np

from xplan.data_model import (
    DISCRETE,
    INDEPENDENT,
    MINIMIZE_RATE,
    NUMERIC,
    DataError,
    SplitSpec,
    split,
)
from xplan.num_core import DistanceConfig, distance, encode, key_dtype

CLASSIFY = "classify"
REGRESS = "regress"


@dataclass
class ForestParams:
    n_trees: int = 100
    max_depth: int | None = None
    min_leaf: int = 1
    features_per_split: int | None = None  # None -> ceil(sqrt(F))
    seed: int = 1

    def __post_init__(self):
        if self.n_trees < 1:
            raise ValueError("need at least one tree")


@dataclass
class ClassifierScore:
    pd: float  # recall, percent
    pf: float  # false alarm, percent


@dataclass
class RegressorScore:
    s: float  # mean of 1 - |a - p| / a


_CELL_CAP = 4096  # padded cells per batched search, walk, leaf sum or block of draws: bounds temporaries


def _rank_keys(X):
    """Each cell's dense rank among its column's distinct values, in the
    smallest unsigned dtype that also holds ``pad``, the rank that sorts
    after every value; and per column the values by rank (NaN at ``pad``
    and beyond)."""
    columns = [np.unique(col, return_inverse=True) for col in X.T]
    pad = max((len(v) for v, _ in columns), default=0)
    keys = np.empty(X.shape, np.min_scalar_type(pad))
    values = np.full((X.shape[1], pad + 1), np.nan)
    for j, (v, inverse) in enumerate(columns):
        keys[:, j], values[j, :len(v)] = inverse, v
    return keys, values


def _best_splits(keys, y, idx, inside, feats, size, mode, min_leaf, values):
    """(found, feature, threshold) of each node's best split.
    Line i of ``idx`` holds node i's rows, padded after ``size[i]`` cells.
    Each line sorts by (rank, position) keys: unique, so any sort gives the
    order of a stable sort by value. Padding sorts last and adds 0 to the
    cumsums, so every prefix sum, impurity, tie-break and midpoint equals a
    search over the node alone."""
    (n_nodes, k), width = feats.shape, idx.shape[1]
    pad, shift = values.shape[1] - 1, (width - 1).bit_length()
    dtype = key_dtype((pad << shift) | (width - 1))
    ranks = np.where(inside[:, None], keys[idx[:, None], feats[:, :, None]], pad)
    sorted_keys = np.sort((ranks.astype(dtype) << shift | np.arange(width, dtype=dtype))
                          .reshape(n_nodes * k, width), axis=1)
    order, ranks = sorted_keys & (1 << shift) - 1, sorted_keys >> shift
    line = np.arange(n_nodes * k)
    ys = np.where(inside, y[idx], 0.0)[np.arange(n_nodes).repeat(k)[:, None], order]
    csum = np.cumsum(ys, axis=1)
    s2 = np.cumsum(ys * ys, axis=1) if mode == REGRESS else None
    del sorted_keys, order, ys  # freed early: these temporaries set the peak memory of a fit
    n = size.repeat(k)[:, None]
    pos = np.arange(1, width)  # cut before sorted position pos
    nl = pos.astype(float)
    nr = n - nl
    l1 = csum[:, :-1]
    r1 = csum[line, n[:, 0] - 1][:, None] - l1
    with np.errstate(divide="ignore", invalid="ignore"):  # cuts past a node's end
        if mode == CLASSIFY:
            pl = l1 / nl
            pr = r1 / nr
            gini_l = 1.0 - pl * pl - (1 - pl) * (1 - pl)
            gini_r = 1.0 - pr * pr - (1 - pr) * (1 - pr)
            del pl, pr, r1
            imp = (nl * gini_l + nr * gini_r) / n
        else:
            s2l = s2[:, :-1]
            s2r = s2[line, n[:, 0] - 1][:, None] - s2l
            imp = (s2l - l1 * l1 / nl) + (s2r - r1 * r1 / nr)  # total SSE
    # candidate boundaries between distinct values, honoring min_leaf
    invalid = (ranks[:, 1:] == ranks[:, :-1]) | (pos < min_leaf) | (pos > n - min_leaf) | (pos >= n)
    imp[invalid] = np.inf
    cut = np.argmin(imp, axis=1)
    j = np.argmin(imp[line, cut].reshape(n_nodes, k), axis=1)
    best = np.arange(n_nodes) * k + j  # first best feature in drawn order
    p, feat = cut[best] + 1, feats[np.arange(n_nodes), j]
    return (~invalid[best].all(axis=1), feat,
            (values[feat, ranks[best, p - 1]] + values[feat, ranks[best, p]]) / 2)


def _side_stats(y_rows, side):
    """Per split, the sum of one side's targets and whether all equal its first."""
    first = y_rows[np.arange(len(side)), side.argmax(axis=1)][:, None]
    return np.where(side, y_rows, 0.0).sum(axis=1), ((y_rows == first) | ~side).all(axis=1)


@dataclass
class Trees:
    """All trees of a forest as flat node arrays; tree t's root is node t.
    A leaf is its own left and right child, so a walk may step past it."""

    feature: np.ndarray    # int32 split column
    threshold: np.ndarray  # rows with x <= threshold go left
    left: np.ndarray       # int32 node ids
    right: np.ndarray
    value: np.ndarray      # leaf value: majority class 0.0/1.0, or mean
    depth: int = 0         # most splits on a root-to-leaf path
    size: int = 0          # nodes in use; the arrays may hold more

    def add(self, count):
        """Ids of ``count`` new leaves."""
        ids = np.arange(self.size, self.size + count, dtype=np.int32)
        self.size += count
        if self.size > len(self.value):
            self.resize(self.size * 3 // 2)
        self.left[ids] = self.right[ids] = ids
        return ids

    def resize(self, capacity):  # in place: no view of these arrays is kept
        for a in (self.feature, self.threshold, self.left, self.right, self.value):
            a.resize(capacity, refcheck=False)


_MASK32, _MASK128 = 2**32 - 1, 2**128 - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645  # PCG64's 128-bit LCG multiplier


def _limbs(values):
    """128-bit ints as a (4, len(values)) uint64 array of 32-bit limbs, low first."""
    return np.array([[v >> 32 * i & _MASK32 for v in values] for i in range(4)], np.uint64)


def _seed_streams(seed, n_trees):
    """The state and increment limbs of ``default_rng((seed, t))``'s PCG64
    for t < n_trees, each t a lane of numpy's ``SeedSequence``: it hashes
    the entropy's little-endian 32-bit words (a 0 is one word) into a pool
    of four, mixes the words past the pool in last and draws four 64-bit
    words from it, the seed and the stream of PCG64's ``srandom``. The
    hashes' constants do not depend on the entropy, so every lane takes
    the same steps."""
    if seed < 0:
        raise ValueError("expected non-negative integer")
    words = [seed & _MASK32]
    while seed := seed >> 32:
        words.append(seed & _MASK32)
    words.append(np.arange(n_trees, dtype=np.uint64))
    hash_const = 0x43B0D7E5  # INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * 0x931E8875 & _MASK32  # MULT_A
        value = value * hash_const & _MASK32
        return value ^ value >> 16

    def mix(x, y):
        result = (0xCA01F9DD * x - 0x4973F715 * y) & _MASK32  # MIX_MULT_L, MIX_MULT_R; wraps mod 2^64
        return result ^ result >> 16

    pool = [hashmix(np.full(n_trees, words[i] if i < len(words) else 0, np.uint64)) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    hash_const, out = 0x8B51F9DD, []  # INIT_B: generate_state(4, uint64)
    for i in range(8):
        value = pool[i % 4] ^ hash_const
        hash_const = hash_const * 0x58F38DED & _MASK32  # MULT_B
        value = value * hash_const & _MASK32
        out.append(value ^ value >> 16)
    # the 64-bit words are out[0:2], ..., out[6:8]; seed = w0 w1, stream = w2 w3
    seed, stream = np.stack([out[2], out[3], out[0], out[1]]), np.stack([out[6], out[7], out[4], out[5]])
    inc = stream << 1 & _MASK32  # stream << 1 | 1
    inc[0] |= 1
    inc[1:] |= stream[:3] >> 31
    # srandom: state 0, step, add the seed, step: M seed + (M + 1) inc
    return _mul_add(_limbs([_PCG_MULT]), seed, _mul_add(_limbs([_PCG_MULT + 1]), inc)), inc


@functools.cache
def _jumps():
    """The limbs of M^j and of 1 + M + ... + M^(j-1) mod 2^128 for j = 1..256,
    M the multiplier: j steps take a state s to M^j s + (1 + ... + M^(j-1)) inc."""
    power, total, powers, totals = 1, 0, [], []
    for _ in range(256):
        power, total = power * _PCG_MULT & _MASK128, (total * _PCG_MULT + 1) & _MASK128
        powers.append(power)
        totals.append(total)
    return _limbs(powers), _limbs(totals)


def _mul_add(a, x, d=(0, 0, 0, 0)):
    """a x + d mod 2^128 over broadcast 32-bit limbs (first axis, low first).
    Each column sums the halves of its limb products and d's limb, at most 8
    terms below 2^32; the top column keeps only its low 32 bits, so its sum
    may wrap."""
    col = list(d)
    for i in range(4):
        for j in range(4 - i):
            prod = a[i] * x[j]
            if i + j == 3:
                col[3] = col[3] + prod
            else:
                col[i + j] = col[i + j] + (prod & _MASK32)
                col[i + j + 1] = col[i + j + 1] + (prod >> 32)
    for i in range(3):
        col[i + 1] = col[i + 1] + (col[i] >> 32)
    return np.stack([c & _MASK32 for c in col])


class _Streams:
    """Each tree's PCG64 stream, read as numpy's ``Generator`` reads it, for
    many trees at once: the raw 64-bit outputs and, over them, one cursor
    per tree through the 32-bit outputs (the low half of each raw output,
    then its high half) that bounded integers take.

    State j steps on is M^j s + (1 + ... + M^(j-1)) inc mod 2^128. The
    first term's constants are cached for each j (``_jumps``), the second
    term for each tree and j up to ``step``, so a block of ``step`` outputs
    of every tree is a few array operations; each output is PCG64's
    XSL-RR, the state's two 64-bit halves xor-ed and rotated right by its
    top 6 bits."""

    def __init__(self, state, inc, buffered=()):
        """Streams at the given state and increment limbs (4 x trees, see
        ``_limbs``); ``buffered[t]``, if given and not None, is tree t's
        unread high half of a raw output."""
        n_trees = state.shape[1]
        self.step = max(1, min(256, _CELL_CAP // n_trees))  # raw outputs per tree and block
        self.state, self.offset = state, _mul_add(_jumps()[1][:, None, :self.step], inc[:, :, None])
        self.buf = np.zeros((n_trees, 2 * self.step), np.uint32)  # each tree's unread outputs from ``at``
        self.at = np.zeros(n_trees, int)  # the cursor: first unread output per tree
        self.filled = np.zeros(n_trees, int)  # end of the buffered outputs per tree
        for t, value in enumerate(buffered):
            if value is not None:
                self.buf[t, 0], self.filled[t] = value, 1

    @classmethod
    def seeded(cls, seed, n_trees):
        """The streams of ``default_rng((seed, t))`` for t < n_trees."""
        return cls(*_seed_streams(seed, n_trees))

    def raw(self, trees, count):
        """The next ``count`` raw outputs of each of ``trees``, bypassing the
        cursor: a (len(trees), count) uint64 array."""
        powers = _jumps()[0]
        out = np.empty((len(trees), count), np.uint64)
        state, offset = self.state[:, trees, None], self.offset[:, trees]
        for lo in range(0, count, self.step):
            j = min(self.step, count - lo)
            s = _mul_add(powers[:, None, :j], state, offset[:, :, :j])
            x = (s[3] ^ s[1]) << 32 | s[2] ^ s[0]
            rot = s[3] >> 26
            out[:, lo:lo + j] = x >> rot | x << (64 - rot & 63)
            state = s[:, :, -1:]
        self.state[:, trees] = state[:, :, 0]
        return out

    def bounded(self, trees, span):
        """Each tree's next draws, one in [0, span[d]) for each d, as numpy's
        bounded integers for spans of 2 to 2^32 - 1 (Lemire's method): an
        output whose product with the span has its low 32 bits below
        2^32 mod span is rejected, and the next output read instead."""
        if not len(span):
            return np.empty((len(trees), 0), np.int64)
        limit, d = np.uint64(2**32) % span, np.arange(len(span))
        skip = np.zeros((len(trees), len(span)), int)  # outputs rejected before each draw
        while True:  # each pass moves each tree's first rejected draw one output on
            self._reserve(trees, len(span) + skip[:, -1])
            at = self.at[trees][:, None] + d + skip
            m = self.buf[trees[:, None], at].astype(np.uint64) * span
            rejected = (m & np.uint64(_MASK32)) < limit
            if not rejected.any():
                break
            hit = rejected.any(axis=1)
            skip[hit] += d >= rejected[hit].argmax(axis=1)[:, None]
        self.at[trees] = at[:, -1] + 1
        return (m >> np.uint64(32)).astype(np.int64)

    def _reserve(self, trees, count):
        """Buffer at least ``count`` unread outputs of each of ``trees``: the
        short ones move their unread outputs to the front and fill the
        buffer's width with new raw outputs, all by the same number."""
        kept = self.filled[trees] - self.at[trees]
        short = kept < count
        if not short.any():
            return
        trees, kept, count = trees[short], kept[short], count[short]
        words, front = int((count - kept).max() + 1) // 2, int(kept.max())
        while front + 2 * words > self.buf.shape[1]:
            self.buf = np.concatenate([self.buf, np.zeros_like(self.buf)], axis=1)
        words = (self.buf.shape[1] - front) // 2
        line = trees[:, None]
        if front:
            self.buf[line, np.arange(front)] = self.buf[line, np.minimum(
                self.at[trees, None] + np.arange(front), self.buf.shape[1] - 1)]
        x, at = self.raw(trees, words), kept[:, None] + np.arange(0, 2 * words, 2)
        self.buf[line, at], self.buf[line, at + 1] = x & np.uint64(_MASK32), x >> np.uint64(32)
        self.at[trees], self.filled[trees] = 0, kept + 2 * words


class _FeatureDraws:
    """What successive ``rng.choice(f, k, replace=False)`` calls return on
    each tree's generator, drawn for many trees and calls at once.

    numpy's ``choice`` reads bounded integers off the generator's 32-bit
    outputs (``_Streams.bounded``). It runs Floyd's sampling loop, a
    drawn value already taken giving way to j, and then a Fisher-Yates
    shuffle of the sample; for f > 10000 and k > f // 50 it instead runs
    the last k steps of a Fisher-Yates shuffle of all f indices. Both are
    replayed here on each tree's stream, ``calls`` subsets per tree at a
    time."""

    def __init__(self, streams, f, k):
        self.streams, self.f, self.k = streams, f, k
        self.tail = f > 10000 and k > f // 50
        # the shuffle's positions, and the inclusive bound of each integer
        # one call draws, in draw order; Floyd's j = 0 draws nothing, as its
        # one value is 0
        self.swaps = np.arange(f - 1, max(f - k, 1) - 1, -1) if self.tail else np.arange(k - 1, 0, -1)
        bounds = self.swaps if self.tail else np.r_[np.arange(max(f - k, 1), f), self.swaps]
        self.per_call, self.calls = len(bounds), max(1, 64 // max(1, len(bounds)))
        self.span = np.tile(bounds.astype(np.uint64) + 1, self.calls)
        self.subsets = np.zeros((len(streams.at), self.calls, k), np.int64)
        self.used = np.full(len(streams.at), self.calls)  # subsets taken of ``subsets``

    def next(self, trees):
        """The next subset of each of ``trees``, as a (len(trees), k) array."""
        spent = trees[self.used[trees] == self.calls]
        if len(spent):
            self.subsets[spent] = self._choices(spent)
            self.used[spent] = 0
        picks = self.subsets[trees, self.used[trees]]
        self.used[trees] += 1
        return picks

    def _choices(self, trees):
        """The next ``calls`` subsets of each tree, (len(trees), calls, k)."""
        f, k, lines = self.f, self.k, len(trees) * self.calls
        # one line per call: Floyd's integers (none for j = 0), then the shuffle's
        u = self.streams.bounded(trees, self.span).reshape(lines, self.per_call)
        if self.tail:
            picks = np.tile(np.arange(f), (lines, 1))
        else:
            picks = np.empty((lines, k), np.int64)
            for d, j in enumerate(range(f - k, f)):
                v = u[:, d - (f == k)] if j else np.zeros(lines, np.int64)
                picks[:, d] = np.where((picks[:, :d] == v[:, None]).any(axis=1), j, v)
        line = np.arange(lines)
        for i, j in zip(self.swaps.tolist(), u[:, self.per_call - len(self.swaps):].T):
            swap = picks[line, j]
            picks[line, j] = picks[:, i]
            picks[:, i] = swap
        return picks[:, picks.shape[1] - k:].reshape(len(trees), self.calls, k)


def _grow_trees(X, y, mode, params):
    """Grow all trees on the encoded matrix ``X`` in lockstep (see the module
    docstring). Tree t's sample is one slice of ``rows``, reordered in place
    so that each node owns a part of it, in parent order; each tree's stack
    of nodes to grow is one line of ``stack``, ``top[t]`` entries deep. A
    regression leaf's slice of ``rows`` stays as it is, so the leaf means
    are taken once all trees are grown."""
    n, f_total = X.shape
    n_trees, min_leaf = params.n_trees, params.min_leaf
    k = min(params.features_per_split or math.ceil(math.sqrt(f_total)), f_total)
    min_size = max(2, 2 * min_leaf) if k else n + 1  # no feature, no split
    # unlimited depth stays below n: a split leaves rows on both sides
    max_depth = n if params.max_depth is None else params.max_depth
    rows, streams = np.empty(n_trees * n, np.int32), _Streams.seeded(params.seed, n_trees)
    samples = rows.reshape(n_trees, n)
    if n_trees > 1 and n > 1:  # the bootstrap: numpy's integers(0, 1, 1) reads nothing
        span = np.full(max(1, _CELL_CAP // n_trees), n, np.uint64)
        for lo in range(0, n, len(span)):
            samples[:, lo:lo + len(span)] = streams.bounded(np.arange(n_trees), span[:n - lo])
    else:
        samples[:] = np.arange(n)
    total = y[samples].sum(axis=1)  # of each root
    pure = (y[samples] == y[samples[:, :1]]).all(axis=1)
    draws = _FeatureDraws(streams, f_total, k)
    keys, values = _rank_keys(X)
    trees = Trees(*(np.zeros(0, dtype) for dtype in (np.int32, float, np.int32, np.int32, float)))
    stack, top = np.zeros((4, n_trees, 8), int), np.zeros(n_trees, int)  # node, start, size, depth
    leaves = []  # regression leaves: node, first cell in rows, size

    def settle(node, tree, start, size, depth, total, pure):
        """Give the nodes that are leaves their value; stack the others.
        Each tree is named at most once."""
        nonlocal stack
        leaf = pure | (size < min_size) | (depth >= max_depth)
        if mode == CLASSIFY:
            trees.value[node[leaf]] = np.where(total[leaf] / size[leaf] >= 0.5, 1.0, 0.0)
        else:
            leaves.append((node[leaf], (tree * n + start)[leaf], size[leaf]))
        keep = ~leaf
        tree = tree[keep]
        if len(tree) and top[tree].max() == stack.shape[2]:
            stack = np.concatenate([stack, np.zeros_like(stack)], axis=2)
        stack[:, tree, top[tree]] = node[keep], start[keep], size[keep], depth[keep]
        top[tree] += 1

    zero = np.zeros(n_trees, int)
    settle(trees.add(n_trees), np.arange(n_trees), zero, zero + n, zero, total, pure)
    while len(tree := np.flatnonzero(top)):  # one step: the next node of each tree
        top[tree] -= 1
        node, start, size, depth = stack[:, tree, top[tree]]
        by_size = np.argsort(-size, kind="stable")  # for chunks of similar sizes
        node, tree, start, size, depth = (a[by_size] for a in (node, tree, start, size, depth))
        feats = draws.next(tree)
        sides, lo = [], 0
        while lo < len(tree):  # chunks under the cell cap
            width = int(size[lo])
            c = np.arange(lo, min(lo + max(1, _CELL_CAP // (k * width)), len(tree)))
            lo += len(c)
            at = np.arange(width)
            inside = at < size[c, None]
            cell = np.where(inside, (tree[c] * n + start[c])[:, None] + at, 0)
            idx = rows[cell]
            found, feat, thr = _best_splits(keys, y, idx, inside, feats[c], size[c], mode, min_leaf, values)
            go = (X[idx, feat[:, None]] <= thr[:, None]) & inside & found[:, None]
            right = inside & ~go
            # stable partition of each node's slice: left child first, both in
            # parent order (a node left unsplit keeps its order)
            to_left = np.cumsum(go, axis=1)
            n_left = to_left[:, -1]
            dest = np.where(go, to_left, n_left[:, None] + np.cumsum(right, axis=1)) - 1
            rows[(cell[:, :1] + dest)[inside]] = idx[inside]
            y_rows = y[idx]
            sides.append((found, n_left, *_side_stats(y_rows, go), *_side_stats(y_rows, right)))
            parent = node[c[found]]
            trees.feature[parent], trees.threshold[parent] = feat[found], thr[found]
            trees.left[parent], trees.right[parent] = trees.add(len(parent)), trees.add(len(parent))
        found, n_left, l_total, l_pure, r_total, r_pure = (np.concatenate(a) for a in zip(*sides))
        trees.depth = max(trees.depth, int(depth[found].max(initial=-1)) + 1)
        # right before left on each stack, so the left subtree is grown first;
        # a node left unsplit is its own right child, a leaf of all its rows
        settle(trees.right[node], tree, start + n_left, size - n_left, depth + 1, r_total, r_pure | ~found)
        settle(trees.left[node[found]], tree[found], start[found], n_left[found], depth[found] + 1,
               l_total[found], l_pure[found])
    if mode == REGRESS:  # each leaf's mean: a row sum sums pairwise, as np.mean does
        node, first, size = (np.concatenate(a) for a in zip(*leaves))
        for m in np.unique(size).tolist():
            group, step = np.flatnonzero(size == m), max(1, _CELL_CAP // m)
            for g in (group[lo:lo + step] for lo in range(0, len(group), step)):
                trees.value[node[g]] = y[rows[first[g, None] + np.arange(m)]].sum(axis=1) / m
    trees.resize(trees.size)
    return trees


@dataclass
class ForestModel:
    """Trees over the training rows' encoding, where a missing cell or an
    unseen symbol reads as its column's fill (see ``forest_input``)."""

    mode: str
    params: ForestParams
    fill: np.ndarray     # per column
    unseen: np.ndarray   # per column: the training symbols' count (NaN: numeric)
    trees: Trees

    def predict(self, table):
        """Predictions for a table encoded with the training rows' config:
        every tree walks a block of rows at once, one level per pass."""
        X, t, n_trees = _filled(table, self.fill, self.unseen), self.trees, self.params.n_trees
        votes = np.zeros(len(X))
        step = max(1, _CELL_CAP // n_trees)
        for lo in range(0, len(X), step):
            at = np.arange(lo, min(lo + step, len(X)))
            node = np.repeat(np.arange(n_trees, dtype=np.int32)[:, None], len(at), axis=1)
            for _ in range(t.depth):
                node = np.where(X[at, t.feature[node]] <= t.threshold[node], t.left[node], t.right[node])
            block = votes[lo:lo + step]
            for leaf_values in t.value[node]:  # in tree order, as the regression mean sums
                block += leaf_values
        if self.mode == CLASSIFY:
            return [v * 2 > n_trees for v in votes]  # majority of trees
        return [v / n_trees for v in votes]


def _filled(table, fill, unseen):
    """The (rows x features) matrix the trees split."""
    X = table.cols.T
    return np.where(np.isnan(X) | (X >= unseen), fill, X)


def forest_input(train, encoded):
    """What every fit on ``train`` reads, from its rows ``encoded`` with
    ``DistanceConfig.from_dataset(train)``: the mode its objective sets,
    targets, the matrix the trees split and each column's fill (median of
    the present cells, else 0.0) and unseen limit (the training symbols
    hold the lowest codes)."""
    mode = CLASSIFY if train.objective == MINIMIZE_RATE else REGRESS
    if not train.rows:
        raise ValueError("empty training data")
    dep = train.dep_values()
    if mode == CLASSIFY and not all(isinstance(v, bool) for v in dep):
        raise ValueError("classification needs a boolean dependent")
    if mode == REGRESS and any(isinstance(v, bool) for v in dep):
        raise ValueError("regression needs a numeric dependent")
    present = ~np.isnan(encoded.cols)
    fill = np.array([float(np.median(c[p])) if p.any() else 0.0 for c, p in zip(encoded.cols, present)])
    unseen = np.array([(c[p].max() + 1 if p.any() else 0.0) if kind == DISCRETE else math.nan
                       for c, p, kind in zip(encoded.cols, present, encoded.cfg.kinds)])
    y = np.array([float(v) for v in dep])
    return mode, y, _filled(encoded, fill, unseen), fill, unseen


def train_forest(data, params):
    """A forest grown on ``data``, a ``forest_input``."""
    mode, y, X, fill, unseen = data
    return ForestModel(mode, params, fill, unseen, _grow_trees(X, y, mode, params))


def score_classifier(test, predicted):
    """Recall and false alarms of the predictions for test's rows."""
    actual = test.dep_values()
    tp = sum(1 for a, p in zip(actual, predicted) if a and p)
    fn = sum(1 for a, p in zip(actual, predicted) if a and not p)
    fp = sum(1 for a, p in zip(actual, predicted) if not a and p)
    tn = sum(1 for a, p in zip(actual, predicted) if not a and not p)
    pd = 100 * tp / (tp + fn) if tp + fn else math.nan
    pf = 100 * fp / (fp + tn) if fp + tn else math.nan
    return ClassifierScore(pd, pf)


def score_regressor(test, predicted):
    """Mean closeness of the predictions for test's rows to their values."""
    actual = test.dep_values()
    items = []
    for a, p in zip(actual, predicted):
        if a == 0:
            warnings.warn("skipping test item with zero actual value")
            continue
        items.append(1 - abs(a - p) / a)
    return RegressorScore(sum(items) / len(items) if items else math.nan)


def gate(score, s_threshold=0.9):
    """True when the predictor is trustworthy enough to judge plans."""
    if isinstance(score, ClassifierScore):
        if math.isnan(score.pd) or math.isnan(score.pf):
            return False
        return score.pd > 60 and score.pf < 40
    return not math.isnan(score.s) and score.s > s_threshold


# --- SMOTE ------------------------------------------------------------------

def smote(train, k=5, target=1.0, rng=None):
    """Oversample the minority class with synthetic rows on segments to
    k nearest minority neighbors, until minority/majority reaches target."""
    rng = rng or random.Random(1)
    if train.objective != MINIMIZE_RATE:
        raise DataError("SMOTE needs a boolean dependent (class mode boolean-from-count)")
    dep = train.dep_values()
    pos = [i for i, v in enumerate(dep) if v]
    neg = [i for i, v in enumerate(dep) if not v]
    minority, majority = (pos, neg) if len(pos) <= len(neg) else (neg, pos)
    want = math.ceil(target * len(majority)) - len(minority)
    if want <= 0 or not minority:
        return train
    min_rows = [train.rows[i] for i in minority]
    encoded = encode(min_rows, DistanceConfig.from_dataset(train))
    synthetic = []
    for step in range(want):
        p = step % len(min_rows)
        base = min_rows[p]
        if len(min_rows) < 2:
            nn = base  # duplicate-with-jitter fallback
        else:
            others = np.delete(np.arange(len(min_rows)), p)
            d = distance(encoded.take([p]), encoded.take(others))[0]
            near = others[np.argsort(d, kind="stable")[:k]]  # stable: ties keep row order
            nn = min_rows[near[rng.randrange(len(near))]]
        u = rng.random()
        row = []
        for i, f in enumerate(train.features):
            a, b = base[i], nn[i]
            if f.role != INDEPENDENT:
                row.append(a)
            elif f.kind == NUMERIC and a is not None and b is not None:
                if nn is base:
                    lo, hi = train.bounds.get(f.name, (a, a))
                    row.append(a + (rng.random() - 0.5) * 0.02 * (hi - lo))
                else:
                    row.append(a + u * (b - a))
            else:
                row.append(a if rng.random() < 0.5 else b)
        synthetic.append(row)
    return train.replace_rows(train.rows + synthetic)


# --- differential evolution -------------------------------------------------

def differential_evolution(fn, bounds, rng, pop_size=20, generations=30,
                           f=0.75, cr=0.3, init=None):
    """DE/rand/1/bin minimizer over box bounds; returns (best_x, best_val).

    ``init`` seeds known-good members into the initial population.
    """
    dim = len(bounds)
    lo = np.array([b[0] for b in bounds], dtype=float)
    hi = np.array([b[1] for b in bounds], dtype=float)
    pop = [lo + rng.random(dim) * (hi - lo) for _ in range(pop_size)]
    for j, member in enumerate(init or []):
        if j < pop_size:
            pop[j] = np.clip(np.asarray(member, dtype=float), lo, hi)
    vals = [fn(p) for p in pop]
    for _ in range(generations):
        for i in range(pop_size):
            a, b, c = rng.choice(pop_size, size=3, replace=False)
            mutant = pop[a] + f * (pop[b] - pop[c])
            cross = rng.random(dim) < cr
            cross[rng.integers(dim)] = True
            trial = np.clip(np.where(cross, mutant, pop[i]), lo, hi)
            tv = fn(trial)
            if tv <= vals[i]:
                pop[i] = trial
                vals[i] = tv
    best = int(np.argmin(vals))
    return pop[best], vals[best]


def _params_from_vector(vec, f_total):
    return ForestParams(
        n_trees=int(round(vec[0])),
        max_depth=int(round(vec[1])),
        min_leaf=int(round(vec[2])),
        features_per_split=max(1, min(f_total, int(round(vec[3])))),
    )


def tune_de(train, budget=200, rng=None, seed=1):
    """Tune forest hyperparameters by DE on a held-out validation half.

    Fitness is pd - pf for classifiers and mean s for regressors; the
    default parameters join the initial population, so the tuned result
    never scores worse than the defaults on the validation split.
    """
    pop_size = 20
    if budget < pop_size:
        raise ValueError(f"budget {budget} below population size {pop_size}")
    rng = rng or np.random.default_rng(seed)
    if len(train.rows) < 2:
        raise DataError(f"the tuning validation half is empty: the training split has "
                        f"{len(train.rows)} row{'' if len(train.rows) == 1 else 's'}")
    fit, val = split(train, SplitSpec(mode="random-half", seed=seed))
    f_total = len(fit.independent)
    bounds = [(10, 150), (1, 30), (1, 20), (1, f_total)]
    default = ForestParams(seed=seed)
    cfg = DistanceConfig.from_dataset(fit)
    data = forest_input(fit, encode(fit.rows, cfg))
    encoded_val = encode(val.rows, cfg)

    def fitness(vec):
        model = train_forest(data, replace(_params_from_vector(vec, f_total), seed=seed))
        predicted = model.predict(encoded_val)
        if model.mode == CLASSIFY:
            sc = score_classifier(val, predicted)
            quality = (0 if math.isnan(sc.pd) else sc.pd) - (100 if math.isnan(sc.pf) else sc.pf)
        else:
            quality = score_regressor(val, predicted).s
        return -quality  # DE minimizes

    init = [[default.n_trees, 30, default.min_leaf, math.ceil(math.sqrt(f_total))]]
    generations = max(1, budget // pop_size - 1)
    best, _ = differential_evolution(fitness, bounds, rng, pop_size, generations, init=init)
    return replace(_params_from_vector(best, f_total), seed=seed)
