"""Random-forest oracle built from scratch, plus SMOTE, differential
evolution for hyperparameter tuning, and the predictor quality gate.

The forest grows CART trees on bootstrap samples with a random feature
subset per split. Classification aggregates tree votes by majority;
regression averages tree means. Nothing here ever reads test rows during
training or tuning.
"""

from __future__ import annotations

import math
import random
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from xplan.data_model import (
    DISCRETE,
    INDEPENDENT,
    MINIMIZE_RATE,
    NUMERIC,
    SplitSpec,
    split,
)
from xplan.num_core import DistanceConfig, distance, encode

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
    predicted: list = field(default=None, repr=False)  # the scored predictions


@dataclass
class RegressorScore:
    s: float              # mean of 1 - |a - p| / a
    per_item: list = None
    predicted: list = field(default=None, repr=False)  # the scored predictions


class _Encoder:
    """Raw rows -> float matrix: discretes coded, missings median-imputed."""

    def __init__(self, ds):
        self.indices = [i for i, f in enumerate(ds.features) if f.role == INDEPENDENT]
        self.kinds = [ds.features[i].kind for i in self.indices]
        self.codes = []
        self.fill = []
        for i, kind in zip(self.indices, self.kinds):
            col = [r[i] for r in ds.rows]
            if kind == DISCRETE:
                mapping = {v: float(j) for j, v in enumerate(sorted(set(c for c in col if c is not None)))}
                self.codes.append(mapping)
                vals = [mapping[c] for c in col if c is not None]
            else:
                self.codes.append(None)
                vals = [c for c in col if c is not None]
            self.fill.append(float(np.median(vals)) if vals else 0.0)

    def transform(self, rows):
        out = np.empty((len(rows), len(self.indices)))
        for j, (i, mapping, fill) in enumerate(zip(self.indices, self.codes, self.fill)):
            for k, r in enumerate(rows):
                v = r[i]
                if v is None:
                    out[k, j] = fill
                elif mapping is not None:
                    out[k, j] = mapping.get(v, fill)
                else:
                    out[k, j] = v
        return out


def _best_split(x, y, order, mode, min_leaf):
    """Best threshold on one sorted column; returns (impurity, thr) or None."""
    xs = x[order]
    ys = y[order]
    n = len(ys)
    # candidate boundaries between distinct values, honoring min_leaf
    diff = xs[1:] != xs[:-1]
    pos = np.nonzero(diff)[0] + 1
    pos = pos[(pos >= min_leaf) & (pos <= n - min_leaf)]
    if len(pos) == 0:
        return None
    if mode == CLASSIFY:
        ones = np.cumsum(ys)
        nl = pos.astype(float)
        l1 = ones[pos - 1]
        r1 = ones[-1] - l1
        nr = n - nl
        pl = l1 / nl
        pr = r1 / nr
        gini_l = 1.0 - pl * pl - (1 - pl) * (1 - pl)
        gini_r = 1.0 - pr * pr - (1 - pr) * (1 - pr)
        imp = (nl * gini_l + nr * gini_r) / n
    else:
        s = np.cumsum(ys)
        s2 = np.cumsum(ys * ys)
        nl = pos.astype(float)
        nr = n - nl
        sl = s[pos - 1]
        sr = s[-1] - sl
        s2l = s2[pos - 1]
        s2r = s2[-1] - s2l
        imp = (s2l - sl * sl / nl) + (s2r - sr * sr / nr)  # total SSE
    k = int(np.argmin(imp))
    p = pos[k]
    thr = (xs[p - 1] + xs[p]) / 2
    return float(imp[k]), thr


def _grow(X, y, mode, params, rng, depth=0):
    """Returns a leaf value (float) or a (feature, threshold, left, right) tuple.

    Classifier leaves hold the majority class as 0.0/1.0."""
    n = len(y)
    if mode == CLASSIFY:
        leaf_value = 1.0 if float(np.mean(y)) >= 0.5 else 0.0
    else:
        leaf_value = float(np.mean(y))
    pure = bool(np.all(y == y[0]))
    if (
        pure
        or n < 2 * params.min_leaf
        or n < 2
        or (params.max_depth is not None and depth >= params.max_depth)
    ):
        return leaf_value
    f_total = X.shape[1]
    m = params.features_per_split or math.ceil(math.sqrt(f_total))
    feats = rng.choice(f_total, size=min(m, f_total), replace=False)
    best = None
    for j in feats:
        order = np.argsort(X[:, j], kind="stable")
        found = _best_split(X[:, j], y, order, mode, params.min_leaf)
        if found is not None and (best is None or found[0] < best[0]):
            best = (found[0], int(j), found[1])
    if best is None:
        return leaf_value
    _, j, thr = best
    mask = X[:, j] <= thr
    left = _grow(X[mask], y[mask], mode, params, rng, depth + 1)
    right = _grow(X[~mask], y[~mask], mode, params, rng, depth + 1)
    return (j, thr, left, right)


def _predict_tree(node, X):
    if not isinstance(node, tuple):
        return np.full(len(X), node, dtype=float)
    j, thr, left, right = node
    out = np.empty(len(X), dtype=float)
    mask = X[:, j] <= thr
    out[mask] = _predict_tree(left, X[mask])
    out[~mask] = _predict_tree(right, X[~mask])
    return out


@dataclass
class ForestModel:
    mode: str
    params: ForestParams
    encoder: _Encoder
    trees: list

    def predict(self, rows):
        X = self.encoder.transform(rows)
        votes = np.zeros(len(rows))
        for tree in self.trees:
            votes += _predict_tree(tree, X)
        if self.mode == CLASSIFY:
            return [v * 2 > len(self.trees) for v in votes]  # majority of trees
        return [v / len(self.trees) for v in votes]

    def summary(self):
        return {
            "mode": self.mode,
            "n_trees": self.params.n_trees,
            "max_depth": self.params.max_depth,
            "min_leaf": self.params.min_leaf,
            "features_per_split": self.params.features_per_split,
            "seed": self.params.seed,
        }


def train_forest(train, params=None, mode=None):
    params = params or ForestParams()
    if mode is None:
        mode = CLASSIFY if train.objective == MINIMIZE_RATE else REGRESS
    if not train.rows:
        raise ValueError("empty training data")
    dep = train.dep_values()
    if mode == CLASSIFY and not all(isinstance(v, bool) for v in dep):
        raise ValueError("classification needs a boolean dependent")
    if mode == REGRESS and any(isinstance(v, bool) for v in dep):
        raise ValueError("regression needs a numeric dependent")
    encoder = _Encoder(train)
    X = encoder.transform(train.rows)
    y = np.array([float(v) for v in dep])
    trees = []
    for t in range(params.n_trees):
        rng = np.random.default_rng((params.seed, t))
        boot = rng.integers(0, len(y), len(y)) if params.n_trees > 1 else np.arange(len(y))
        trees.append(_grow(X[boot], y[boot], mode, params, rng))
    return ForestModel(mode, params, encoder, trees)


def score_classifier(model, test):
    actual = test.dep_values()
    predicted = model.predict(test.rows)
    tp = sum(1 for a, p in zip(actual, predicted) if a and p)
    fn = sum(1 for a, p in zip(actual, predicted) if a and not p)
    fp = sum(1 for a, p in zip(actual, predicted) if not a and p)
    tn = sum(1 for a, p in zip(actual, predicted) if not a and not p)
    pd = 100 * tp / (tp + fn) if tp + fn else math.nan
    pf = 100 * fp / (fp + tn) if fp + tn else math.nan
    return ClassifierScore(pd, pf, predicted)


def score_regressor(model, test):
    actual = test.dep_values()
    predicted = model.predict(test.rows)
    items = []
    for a, p in zip(actual, predicted):
        if a == 0:
            warnings.warn("skipping test item with zero actual value")
            continue
        items.append(1 - abs(a - p) / a)
    return RegressorScore(sum(items) / len(items) if items else math.nan, items, predicted)


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
        raise ValueError("SMOTE needs a boolean dependent")
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


def tune_de(train, budget=200, rng=None, mode=None, seed=1):
    """Tune forest hyperparameters by DE on a held-out validation half.

    Fitness is pd - pf for classifiers and mean s for regressors; the
    default parameters join the initial population, so the tuned result
    never scores worse than the defaults on the validation split.
    """
    pop_size = 20
    if budget < pop_size:
        raise ValueError(f"budget {budget} below population size {pop_size}")
    rng = rng or np.random.default_rng(seed)
    if mode is None:
        mode = CLASSIFY if train.objective == MINIMIZE_RATE else REGRESS
    fit, val = split(train, SplitSpec(mode="random-half", seed=seed))
    f_total = len(fit.independent)
    bounds = [(10, 150), (1, 30), (1, 20), (1, f_total)]
    default = ForestParams(seed=seed)

    def fitness(vec):
        params = replace(_params_from_vector(vec, f_total), seed=seed)
        model = train_forest(fit, params, mode)
        if mode == CLASSIFY:
            sc = score_classifier(model, val)
            quality = (0 if math.isnan(sc.pd) else sc.pd) - (100 if math.isnan(sc.pf) else sc.pf)
        else:
            quality = score_regressor(model, val).s
        return -quality  # DE minimizes

    init = [[default.n_trees, 30, default.min_leaf, math.ceil(math.sqrt(f_total))]]
    generations = max(1, budget // pop_size - 1)
    best, _ = differential_evolution(fitness, bounds, rng, pop_size, generations, init=init)
    return replace(_params_from_vector(best, f_total), seed=seed)
