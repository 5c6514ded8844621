"""The four planning methods, plan application, and constraint culling.

Every planner takes training-time artifacts plus one test row and returns
a Plan: a set of per-feature deltas (numeric shift, discrete set-to, or a
range sample resolved to one seeded draw). An empty plan means "no change
recommended". cd's move is built once per cluster and its frozen deltas are
shared by the cluster's rows; xtree's clipped ranges once per leaf, so a
row's plan only finds its cluster or draws its samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from xplan.data_model import INDEPENDENT, NUMERIC, DataError, read_lines
from xplan.decision_tree import branch_path, siblings_at_level
from xplan.discretize import Bin
from xplan.where_cluster import nearest_cluster

SHIFT = "shift"    # numeric: add delta, clamp to training bounds
SET = "set"        # discrete: replace the symbol
SAMPLE = "sample"  # numeric: value drawn from (lo, hi] at plan time


@dataclass(frozen=True)
class Delta:
    feature: str
    kind: str
    value: object = None      # shift amount, symbol, or the drawn sample (None until drawn)
    lo: float | None = None   # sample range, for provenance
    hi: float | None = None

    def to_json(self):
        out = {"feature": self.feature, "kind": self.kind, "value": self.value}
        if self.kind == SAMPLE:
            out["lo"] = self.lo
            out["hi"] = self.hi
        return out


@dataclass
class Plan:
    deltas: list | tuple  # the rows of a cd cluster share its tuple
    method: str = ""
    provenance: dict = field(default_factory=dict)

    @property
    def empty(self):
        return not self.deltas

    def features(self):
        return [d.feature for d in self.deltas]

    def to_json(self):
        return {
            "method": self.method,
            "deltas": [d.to_json() for d in self.deltas],
            "provenance": self.provenance,
        }


@dataclass
class PlannerConfig:
    alpha: int | None = None  # cluster/tree split size; None -> ceil(sqrt(N))
    beta: float = 0.33        # fraction of most-informative features kept
    gamma: float = 0.5        # sibling qualifies when score < gamma * current


def _centroid_deltas(src, dst, ds):
    """Per-feature deltas moving a row from src toward dst."""
    deltas = []
    for i, f in enumerate(ds.features):
        a, b = src[i], dst[i]
        if f.role != INDEPENDENT or a is None or b is None or a == b:
            continue
        deltas.append(Delta(f.name, SHIFT, b - a) if f.kind == NUMERIC else Delta(f.name, SET, b))
    return deltas


# cd and bic take the clusters in index order, as ``cluster`` returns them,
# and their centroids' distances to each other or a row's distances to them
# in that order.

def cd_moves(clusters, d, ds):
    """Method1's move of each cluster: None when no cluster scores strictly
    better, else the closest such cluster (lowest index on ties) with the
    deltas from this centroid to its centroid, as a tuple. d holds the
    centroids' distances to each other, as lists."""
    moves = []
    for c in clusters:
        target = min((o for o in clusters if o.score < c.score),
                     key=lambda o: (d[c.index][o.index], o.index), default=None)
        moves.append(None if target is None else
                     (target, tuple(_centroid_deltas(c.centroid, target.centroid, ds))))
    return moves


def plan_cd(clusters, moves, to_centroids):
    """Method1: the move (from ``cd_moves``) of the row's nearest cluster."""
    here = nearest_cluster(to_centroids, clusters)
    move = moves[here.index]
    if move is None:
        return Plan([], "cd", {"source": here.index})
    target, deltas = move
    return Plan(deltas, "cd", {"source": here.index, "target": target.index})


def plan_cdfs(base, ranking):
    """Method2: a Method1 plan restricted to the most informative features."""
    keep = set(ranking.selected)
    return Plan([d for d in base.deltas if d.feature in keep], "cdfs", dict(base.provenance))


def bic_gradients(clusters, d):
    """Method3's inter-centroid gradients: each cluster paired with its
    nearest neighbour cluster (by d, as ``cd_moves`` takes it) as
    (bottom, top), worse end first; pairs of equal score are skipped."""
    gradients = []
    for c in clusters:
        others = (o for o in clusters if o is not c)
        nn = min(others, key=lambda o: (d[c.index][o.index], o.index), default=None)
        if nn is None or c.score == nn.score:
            continue
        bottom, top = (c, nn) if c.score > nn.score else (nn, c)
        gradients.append((bottom, top))
    return gradients


def plan_bic(gradients, ranking, z, to_centroids, ds):
    """Method3: ride the inter-centroid gradient (from ``bic_gradients``)
    with the end nearest the row up to its best end, then copy that
    cluster's best-in-cluster example."""
    if not gradients:
        return Plan([], "bic")
    bottom, top = min(
        gradients,
        key=lambda g: (min(to_centroids[g[0].index], to_centroids[g[1].index]), g[0].index),
    )
    keep = set(ranking.selected)
    deltas = [d for d in _centroid_deltas(z, top.best, ds) if d.feature in keep]
    return Plan(deltas, "bic", {"bottom": bottom.index, "top": top.index})


def xtree_targets(tree, gamma, ds):
    """Method4's search, which no seed changes: for each leaf, in
    ``leaf_pos`` order, climb until a much-better sibling leaf exists and
    keep the branch conditions of its path that the leaf's path lacks (the
    deepest per feature) as deltas, with the search's provenance, as
    ``(deltas, provenance)``; None when the climb passes the root. A
    symbol condition is a SET; a range is a SAMPLE clipped to ds's
    training bounds, valued lo when the clipped range is empty and None
    when ``plan_xtree`` is to draw it."""
    targets = []
    for current in tree.leaves():
        lvl = 0
        while (siblings := siblings_at_level(current, lvl)) is not None:
            better = [s for s in siblings if s.score < gamma * current.score]
            if better:
                break
            lvl += 1
        if siblings is None:
            targets.append(None)
            continue
        near = tree.leaf_distances[current.leaf_pos]
        desired = min(better, key=lambda s: near[s.leaf_pos])  # leftmost on ties
        cur_set = {(f, _cond_key(c)) for f, c in branch_path(current)}
        # the deepest condition per feature wins
        picked = {f: c for f, c in branch_path(desired) if (f, _cond_key(c)) not in cur_set}
        provenance = {"lvl": lvl, "current_score": current.score, "desired_score": desired.score}
        targets.append(([_cond_delta(f, c, ds) for f, c in picked.items()], provenance))
    return targets


def _drawn(delta):
    return delta.kind == SAMPLE and delta.value is None


def xtree_draws(target):
    """Whether ``plan_xtree`` draws from its rng for a target of ``xtree_targets``."""
    return target is not None and any(map(_drawn, target[0]))


def plan_xtree(target, rng):
    """Method4: the row's leaf's target from ``xtree_targets`` as a plan,
    each SAMPLE valued None drawn from rng, in the target's order; rng may
    be None when the target does not draw (``xtree_draws``)."""
    if target is None:
        return Plan([], "xtree", {"exhausted": True})
    deltas, provenance = target
    drawn = [replace(d, value=rng.uniform(d.lo, d.hi)) if _drawn(d) else d for d in deltas]
    return Plan(drawn, "xtree", dict(provenance))


def _cond_key(cond):
    return (cond.lo, cond.hi) if isinstance(cond, Bin) else cond


def _cond_delta(fname, cond, ds):
    if not isinstance(cond, Bin):
        return Delta(fname, SET, cond)
    lo, hi = cond.lo, cond.hi
    blo, bhi = ds.bounds.get(fname, (0.0, 0.0))
    if lo == -math.inf:
        lo = min(blo, hi)
    if hi == math.inf:
        hi = max(bhi, lo)
    return Delta(fname, SAMPLE, None if lo < hi else lo, lo=lo, hi=hi)


def apply_plan(z, plan, ds):
    """New row with the deltas applied; numeric shifts clamp to the
    training bounds, the dependent cell is never touched."""
    row = list(z)
    for d in plan.deltas:
        i = ds.index(d.feature)
        if ds.features[i].role != INDEPENDENT:
            raise DataError(f"plan touches non-independent feature {d.feature!r}")
        if d.kind == SHIFT:
            if row[i] is None:
                continue
            lo, hi = ds.bounds.get(d.feature, (-math.inf, math.inf))
            row[i] = min(hi, max(lo, row[i] + d.value))
        elif d.kind in (SET, SAMPLE):
            row[i] = d.value
        else:
            raise DataError(f"bad delta kind {d.kind!r}")
    return row


# --- feature-model constraints ---------------------------------------------

_TRUTHY = {"1", "on", "true", "yes", "y"}


def _is_on(cell):
    if cell is None:
        return False
    if isinstance(cell, bool):
        return cell
    return str(cell).strip().lower() in _TRUTHY


@dataclass
class FeatureModel:
    """Boolean validity rules over discrete configuration options."""

    requires: list = field(default_factory=list)     # (a, b): a on -> b on
    excludes: list = field(default_factory=list)     # (a, b): not both on
    exactly_one: list = field(default_factory=list)  # groups
    at_least_one: list = field(default_factory=list)

    def referenced(self):
        names = set()
        for a, b in self.requires + self.excludes:
            names.update((a, b))
        for group in self.exactly_one + self.at_least_one:
            names.update(group)
        return names


def load_feature_model(path, ds=None):
    """Line-oriented rules: ``requires A B``, ``excludes A B``,
    ``xor A B C``, ``or A B C``. Blank lines and ``#`` comments ignored."""
    fm = FeatureModel()
    for lineno, line in enumerate(read_lines(path), start=1):
        parts = line.split("#", 1)[0].split()
        if not parts:
            continue
        op, args = parts[0].lower(), parts[1:]
        if op == "requires" and len(args) == 2:
            fm.requires.append(tuple(args))
        elif op == "excludes" and len(args) == 2:
            fm.excludes.append(tuple(args))
        elif op == "xor" and len(args) >= 2:
            fm.exactly_one.append(args)
        elif op == "or" and len(args) >= 2:
            fm.at_least_one.append(args)
        else:
            raise DataError(f"{path}:{lineno}: bad rule {line.strip()!r}")
    if ds is not None:
        known = {f.name for f in ds.features}
        unknown = fm.referenced() - known
        if unknown:
            raise DataError(f"{path}: rules reference unknown features {sorted(unknown)}")
    return fm


def check_constraints(row, fm, ds):
    """All violated rules, by name; an empty list means the row is valid."""
    if fm is None:
        return []
    cell = lambda name: row[ds.index(name)]
    violations = []
    for a, b in fm.requires:
        if _is_on(cell(a)) and not _is_on(cell(b)):
            violations.append(f"requires {a} {b}")
    for a, b in fm.excludes:
        if _is_on(cell(a)) and _is_on(cell(b)):
            violations.append(f"excludes {a} {b}")
    for group in fm.exactly_one:
        if sum(_is_on(cell(g)) for g in group) != 1:
            violations.append("xor " + " ".join(group))
    for group in fm.at_least_one:
        if not any(_is_on(cell(g)) for g in group):
            violations.append("or " + " ".join(group))
    return violations
