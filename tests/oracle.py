"""Reference implementations that the fast paths in ``xplan`` must match
exactly: the scalar row distance that the encoded kernel replaced, the
allocating kernel that the buffered one replaced, the forest's own row
encoder that ``num_core.encode`` replaced, the quadratic MDL cut search
that the scan-and-recount search must match, the CSV loader that parsed
one cell at a time, the recursive CART grower and predictor that the
lockstep forest replaced, the row-list xtree tree
and feature ranking that now read the encoded table, the xtree planner
that searched each row's target again for every seed, the cd planner that
built each row's deltas again, and the experiment that encoded every
changed row to find the moved ones."""

import csv
import math
from collections import Counter

import numpy as np

from xplan.data_model import (
    DEPENDENT,
    DISCRETE,
    INDEPENDENT,
    MINIMIZE_RATE,
    MINIMIZE_VALUE,
    NUMERIC,
    DataError,
    Dataset,
    _parse_cell,
    dependent_score,
    read_lines,
)
from xplan.decision_tree import MIN_GAIN, TreeNode, branch_path, locate_leaf, siblings_at_level
from xplan.discretize import Bin, _mdl_accepts
from xplan.evaluation import ExperimentResult
from xplan.num_core import DistanceConfig, distance_matrix, encode, entropy, nearest_distances
from xplan.planners import SAMPLE, SET, SHIFT, Delta, Plan, apply_plan, check_constraints
from xplan.predictor import CLASSIFY
from xplan.where_cluster import centroid_of, nearest_cluster, resolve_alpha


def load_csv(path, schema, class_mode="boolean-from-count"):
    """``data_model.load_csv`` as it parsed each record as soon as it was
    read, one ``_parse_cell`` call per cell."""
    features = list(schema)
    if class_mode not in ("boolean-from-count", "numeric"):
        raise DataError(f"bad class mode {class_mode!r}")
    counted = class_mode == "boolean-from-count"
    counts = [counted and f.role == DEPENDENT for f in features]
    reader = csv.reader(read_lines(path))
    header = next(reader, None)
    if header is None:
        raise DataError(f"{path}: empty file")
    if [h.strip() for h in header] != [f.name for f in features]:
        raise DataError(f"{path}: header does not match schema names")
    rows = []
    symbols = {}
    for lineno, rec in enumerate(reader, start=2):
        if not rec:
            continue
        if len(rec) != len(features):
            raise DataError(f"{path}:{lineno}: expected {len(features)} cells, got {len(rec)}")
        rows.append([_parse_cell(c, f, symbols, k) for c, f, k in zip(rec, features, counts)])
    return Dataset(features, rows, MINIMIZE_RATE if counted else MINIMIZE_VALUE)


def normalize_bounds(value, lo, hi):
    """Map a numeric value into [0,1] by the bounds (lo, hi), clamped.

    Degenerate bounds (constant column) normalize to 0 so the column
    contributes nothing to any distance. A span that overflows the float
    range is taken over halved operands.
    """
    if hi <= lo:
        return 0.0
    if math.isinf(hi - lo):
        x = (value / 2 - lo / 2) / (hi / 2 - lo / 2)
    else:
        x = (value - lo) / (hi - lo)
    return min(1.0, max(0.0, x))


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


def squared_distance(a, b):
    """All pairwise squared distances between two encoded tables, with
    fresh full-size temporaries for every feature: the kernel that
    ``num_core``'s block loop replaced."""
    cfg = a.cfg
    total = np.zeros((len(a), len(b)))
    for kind, w, ca, cb in zip(cfg.kinds, cfg.weights, a.unit, b.unit):
        if kind == NUMERIC:
            d = ca[:, None] - cb[None, :]
            miss_a, miss_b = np.isnan(ca), np.isnan(cb)
            if miss_a.any() or miss_b.any():
                d = np.where(miss_b[None, :], np.maximum(ca, 1.0 - ca)[:, None], d)
                d = np.where(miss_a[:, None], np.maximum(cb, 1.0 - cb)[None, :], d)
                d[miss_a[:, None] & miss_b[None, :]] = 1.0
        else:
            d = (ca[:, None] != cb[None, :]).astype(float)
        if w == 1.0:
            d *= d
            total += d
        else:
            term = w * d
            term *= d
            total += term
    return total


class Encoder:
    """Raw rows -> the forest's float matrix: discretes coded in sorted
    symbol order, missing cells and unseen symbols median-imputed."""

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


def cut_score(labels, i):
    """The expected label entropy of the cut before position i, counting
    both sides afresh."""
    n = len(labels)
    ent = lambda labs: entropy(Counter(labs).values())
    return (i / n) * ent(labels[:i]) + ((n - i) / n) * ent(labels[i:])


def find_cuts(pairs):
    """Recursive cut search over (value, label) pairs sorted by value,
    scoring every candidate cut by ``cut_score``."""
    n = len(pairs)
    if n < 2:
        return []
    labels = [lab for _, lab in pairs]
    if len(set(labels)) < 2:
        return []
    best = None
    for i in range(1, n):
        if pairs[i][0] == pairs[i - 1][0]:
            continue
        e = cut_score(labels, i)
        if best is None or e < best[0]:
            best = (e, i)
    if best is None:
        return []
    _, i = best
    if not _mdl_accepts(labels, labels[:i], labels[i:]):
        return []
    cut = (pairs[i - 1][0] + pairs[i][0]) / 2
    return find_cuts(pairs[:i]) + [cut] + find_cuts(pairs[i:])


def best_split(x, y, order, mode, min_leaf):
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


def grow(X, y, mode, params, rng, depth=0):
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
        found = best_split(X[:, j], y, order, mode, params.min_leaf)
        if found is not None and (best is None or found[0] < best[0]):
            best = (found[0], int(j), found[1])
    if best is None:
        return leaf_value
    _, j, thr = best
    mask = X[:, j] <= thr
    left = grow(X[mask], y[mask], mode, params, rng, depth + 1)
    right = grow(X[~mask], y[~mask], mode, params, rng, depth + 1)
    return (j, thr, left, right)


def grow_forest(X, y, mode, params):
    """Each tree on its bootstrap sample, grown recursively."""
    trees = []
    for t in range(params.n_trees):
        rng = np.random.default_rng((params.seed, t))
        boot = rng.integers(0, len(y), len(y)) if params.n_trees > 1 else np.arange(len(y))
        trees.append(grow(X[boot], y[boot], mode, params, rng))
    return trees


def predict_tree(node, X):
    if not isinstance(node, tuple):
        return np.full(len(X), node, dtype=float)
    j, thr, left, right = node
    out = np.empty(len(X), dtype=float)
    mask = X[:, j] <= thr
    out[mask] = predict_tree(left, X[mask])
    out[~mask] = predict_tree(right, X[~mask])
    return out


def predict(trees, X, mode):
    votes = np.zeros(len(X))
    for tree in trees:
        votes += predict_tree(tree, X)
    if mode == CLASSIFY:
        return [v * 2 > len(trees) for v in votes]  # majority of trees
    return [v / len(trees) for v in votes]


def tree_depths(trees, n_trees):
    """Each tree's most splits on a root-to-leaf path, walked on the flat
    node arrays of ``predictor.Trees`` (tree t's root is node t, a leaf is
    its own left child)."""
    def depth(node):
        if trees.left[node] == node:
            return 0
        return 1 + max(depth(trees.left[node]), depth(trees.right[node]))

    return [depth(t) for t in range(n_trees)]


def variability(column, kind):
    """Standard deviation (numeric) or entropy (discrete) of a column."""
    if not column:
        raise ValueError("variability of an empty column")
    if kind == NUMERIC:
        vals = [v for v in column if v is not None]
        if not vals:
            return 0.0
        mean = sum(vals) / len(vals)
        return math.sqrt(sum((v - mean) ** 2 for v in vals) / len(vals))
    if kind == DISCRETE:
        return entropy(Counter(column).values())
    raise ValueError(f"bad kind {kind!r}")


def mdl_bins(column, labels, feature=""):
    """MDL bins of a numeric column by the quadratic cut search, each with
    the count and label entropy of the values it contains."""
    pairs = sorted(zip(column, labels), key=lambda p: p[0])
    edges = [-math.inf] + find_cuts(pairs) + [math.inf]
    bins = []
    for lo, hi in zip(edges, edges[1:]):
        inside = [lab for v, lab in pairs if lo < v <= hi]
        bins.append(Bin(feature, lo, hi, entropy(Counter(inside).values()) if inside else 0.0,
                        len(inside)))
    return bins


def rank_features(train, cluster_ids, beta=0.33):
    """Features by the expected cluster-id entropy of their bins, from the
    rows: MDL bins for numerics, one bin per symbol for discretes."""
    scored = []
    for f in train.features:
        if f.role != INDEPENDENT:
            continue
        present = [(v, c) for v, c in zip(train.column(f.name), cluster_ids) if v is not None]
        if f.kind == NUMERIC:
            stats = [(b.count, b.entropy) for b in mdl_bins(*zip(*present), f.name)] if present else []
        else:
            groups = {}
            for v, c in present:
                groups.setdefault(v, []).append(c)
            stats = [(len(labs), entropy(Counter(labs).values())) for labs in groups.values()]
        total = sum(n for n, _ in stats)
        scored.append((f.name, sum((n / total) * e for n, e in stats) if total else 0.0))
    ranking = sorted(scored, key=lambda p: p[1])
    keep = max(1, round(beta * len(ranking)))
    return ranking, [name for name, _ in ranking[:keep]]


def _dep_labels(train):
    """Dependent column as class labels for the discretizer."""
    dep = train.dep_values()
    if train.objective == MINIMIZE_RATE:
        return ["t" if v else "f" for v in dep]
    med = dependent_score(dep, train.objective)
    return ["hi" if v > med else "lo" for v in dep]


def _dep_variability(train, ids):
    vals = [train.rows[i][train.dep_index] for i in ids]
    return variability(vals, DISCRETE if train.objective == MINIMIZE_RATE else NUMERIC)


def _candidate_split(train, labels, ids, feat):
    """Partition ids by one feature; returns (conditions, groups) or None.

    Rows with a missing value join the largest group.
    """
    col_i = train.index(feat.name)
    present = [i for i in ids if train.rows[i][col_i] is not None]
    missing = [i for i in ids if train.rows[i][col_i] is None]
    if not present:
        return None
    if feat.kind == NUMERIC:
        vals = [train.rows[i][col_i] for i in present]
        bins = mdl_bins(vals, [labels[i] for i in present], feat.name)
        if len(bins) < 2:
            return None
        conds = bins
        groups = [[] for _ in bins]
        for i in present:
            v = train.rows[i][col_i]
            for g, b in zip(groups, bins):
                if b.contains(v):
                    g.append(i)
                    break
    else:
        by_sym = {}
        for i in present:
            by_sym.setdefault(train.rows[i][col_i], []).append(i)
        if len(by_sym) < 2:
            return None
        conds = sorted(by_sym)
        groups = [by_sym[s] for s in conds]
    if missing:
        max(groups, key=len).extend(missing)
    pairs = [(c, g) for c, g in zip(conds, groups) if g]
    return ([c for c, _ in pairs], [g for _, g in pairs]) if len(pairs) >= 2 else None


def build_tree(train, alpha=None):
    """xtree's tree grown top-down from the rows; children larger than
    alpha are re-split."""
    n = len(train.rows)
    if n == 0:
        raise ValueError("empty training data")
    alpha = resolve_alpha(alpha, n)
    labels = _dep_labels(train)

    def grow(ids, depth, parent):
        node = TreeNode(
            members=ids,
            score=dependent_score([train.rows[i][train.dep_index] for i in ids], train.objective),
            depth=depth,
            parent=parent,
        )
        here = _dep_variability(train, ids)
        if len(ids) <= alpha or here <= 0:
            return node
        best = None
        for feat in train.features:
            if feat.role != INDEPENDENT:
                continue
            cand = _candidate_split(train, labels, ids, feat)
            if cand is None:
                continue
            conds, groups = cand
            spread = sum(
                len(g) / len(ids) * _dep_variability(train, g) for g in groups
            )
            if best is None or spread < best[0]:
                best = (spread, feat.name, conds, groups)
        if best is None or here - best[0] <= MIN_GAIN:
            return node
        _, fname, conds, groups = best
        node.split_feature = fname
        node.branches = [(c, grow(g, depth + 1, node)) for c, g in zip(conds, groups)]
        return node

    root = grow(list(range(n)), 0, None)
    leaves = root.leaves()
    for pos, leaf in enumerate(leaves):
        leaf.centroid = centroid_of([train.rows[i] for i in leaf.members], train.features)
        leaf.leaf_pos = pos
    centroids = [leaf.centroid for leaf in leaves]
    root.leaf_distances = distance_matrix(centroids, centroids, DistanceConfig.from_dataset(train)).tolist()
    return root


def plan_cd(clusters, between, to_centroids, ds):
    """cd's plan for one row as it was built for each row of each seed: the
    nearest cluster's closest strictly better cluster (lowest index on
    ties), by the centroids' distances ``between``, and the deltas from the
    one centroid to the other."""
    here = nearest_cluster(to_centroids, clusters)
    better = [o for o in clusters if o.score < here.score]
    if not better:
        return Plan([], "cd", {"source": here.index})
    target = min(better, key=lambda o: (between[here.index][o.index], o.index))
    deltas = []
    for i, f in enumerate(ds.features):
        a, b = here.centroid[i], target.centroid[i]
        if f.role != INDEPENDENT or a is None or b is None or a == b:
            continue
        deltas.append(Delta(f.name, SHIFT, b - a) if f.kind == NUMERIC else Delta(f.name, SET, b))
    return Plan(deltas, "cd", {"source": here.index, "target": target.index})


def plan_xtree(tree, z, cfg, rng, ds):
    """xtree's plan for row z as it was searched for each row of each seed:
    climb from the row's leaf until a much-better sibling leaf exists, then
    emit the branch-condition set difference, each range condition drawn
    from rng."""
    current = locate_leaf(tree, z, ds)
    lvl = 0
    while True:
        siblings = siblings_at_level(current, lvl)
        if siblings is None:
            return Plan([], "xtree", {"exhausted": True})
        better = [s for s in siblings if s.score < cfg.gamma * current.score]
        if better:
            near = tree.leaf_distances[current.leaf_pos]
            desired = min(better, key=lambda s: near[s.leaf_pos])  # leftmost on ties
            break
        lvl += 1

    def key(cond):
        return (cond.lo, cond.hi) if isinstance(cond, Bin) else cond

    cur_set = {(f, key(c)) for f, c in branch_path(current)}
    picked = {}
    for fname, cond in branch_path(desired):
        if (fname, key(cond)) in cur_set:
            continue
        picked[fname] = cond  # deepest condition per feature wins
    deltas = []
    for fname, cond in picked.items():
        if not isinstance(cond, Bin):
            deltas.append(Delta(fname, SET, cond))
            continue
        lo, hi = cond.lo, cond.hi
        blo, bhi = ds.bounds.get(fname, (0.0, 0.0))
        if lo == -math.inf:
            lo = min(blo, hi)
        if hi == math.inf:
            hi = max(bhi, lo)
        value = lo if hi <= lo else rng.uniform(lo, hi)
        deltas.append(Delta(fname, SAMPLE, value, lo=lo, hi=hi))
    provenance = {"lvl": lvl, "current_score": current.score, "desired_score": desired.score}
    return Plan(deltas, "xtree", provenance)


def moved_rows(test, changed):
    """Positions of the encoded changed rows that differ from their encoded
    test rows (a missing cell equals a missing cell)."""
    same = (test.cols == changed.cols) | (np.isnan(test.cols) & np.isnan(changed.cols))
    return np.flatnonzero(~same.all(axis=0))


def run_experiment(train, test, method, arts):
    """``evaluation.run_experiment`` as it found the moved rows before:
    copy every row whose plan is empty or culled, encode all the changed
    rows, diff that encoding against the encoded test rows, then predict
    and measure the rows that differ."""
    run = arts.run
    changed = []
    emitted = empty = 0
    touched = set()
    for i, z in enumerate(test.rows):
        plan = arts.planners[method](i)
        if not plan.empty:
            candidate = apply_plan(z, plan, train)
            if run.fm is not None and check_constraints(candidate, run.fm, train):
                plan, candidate = Plan([], plan.method), list(z)  # culled
            else:
                emitted += 1
                touched.update(
                    d.feature for d in plan.deltas if candidate[train.index(d.feature)] != z[train.index(d.feature)]
                )
        else:
            candidate = list(z)
        if plan.empty:
            empty += 1
        changed.append(candidate)

    before, predicted = arts.before, list(arts.predicted)
    encoded = encode(changed, run.dcfg)
    moved = moved_rows(run.encoded_test, encoded)
    rows = encoded.take(moved)
    if len(moved):
        for i, p in zip(moved.tolist(), arts.forest.predict(rows)):
            predicted[i] = p
    if arts.forest.mode == CLASSIFY:
        after = float(sum(1 for p in predicted if p))
    else:
        after = float(sum(predicted))
    nearest = run.nearest.copy()
    nearest[moved] = nearest_distances(run.encoded_train, rows)
    return ExperimentResult(
        method=method,
        seed=arts.seed,
        ratio=after / before if before > 0 else math.nan,
        before=before,
        after=after,
        plans_emitted=emitted,
        empty_plans=empty,
        changed_features=sorted(touched),
        trust_before=float(np.mean(run.nearest)),
        trust_after=float(np.mean(nearest)),
        ratio_defined=before > 0,
    )
