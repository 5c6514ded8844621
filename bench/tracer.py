"""In-memory span tracer that wraps xplan's public functions from outside.

Each wrapped call records one span (name, start, end, parent) in flat
arrays; self time is derived afterwards as span duration minus the time
covered by its child spans. Nothing under ``src/`` is edited: a function
is replaced in every ``xplan`` module namespace that holds it, which is
where callers look it up.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import Counter

import numpy as np

# (span name, module, function). Several functions may share one span name.
SPANS = (
    ("data_model.load_csv", "xplan.data_model", "load_csv"),
    ("data_model.split", "xplan.data_model", "split"),
    ("predictor.train_forest", "xplan.predictor", "train_forest"),
    ("predictor.gate", "xplan.predictor", "score_classifier"),
    ("predictor.gate", "xplan.predictor", "score_regressor"),
    ("where_cluster.cluster", "xplan.where_cluster", "cluster"),
    ("where_cluster.nearest_cluster", "xplan.where_cluster", "nearest_cluster"),
    ("num_core.distance", "xplan.num_core", "distance"),
    ("discretize.mdl_discretize", "xplan.discretize", "mdl_discretize"),
    ("discretize.rank_features", "xplan.discretize", "rank_features"),
    ("decision_tree.build_tree", "xplan.decision_tree", "build_tree"),
    ("decision_tree.locate_leaf", "xplan.decision_tree", "locate_leaf"),
    ("planners.plan_cd", "xplan.planners", "plan_cd"),
    ("planners.plan_cdfs", "xplan.planners", "plan_cdfs"),
    ("planners.plan_bic", "xplan.planners", "plan_bic"),
    ("planners.plan_xtree", "xplan.planners", "plan_xtree"),
    ("evaluation.trust_report", "xplan.evaluation", "trust_report"),
    ("scott_knott.scott_knott_rank", "xplan.scott_knott", "scott_knott_rank"),
)


class Tracer:
    """Spans as parallel arrays; span i's parent is an index or -1."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts = Counter()  # work counters keyed by metric name
        self.method = None       # method of the run_experiment in progress

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def call(self, nid, fn, args, kwargs):
        i = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        try:
            return fn(*args, **kwargs)
        finally:
            self.end[i] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name, fn, after=None):
        """Traced stand-in for fn; ``after(args, kwargs, result)`` updates
        counters outside the span."""
        nid = self._id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = self.call(nid, fn, args, kwargs)
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    # --- installation ---------------------------------------------------------

    def install(self):
        """Replace the traced functions wherever xplan modules hold them."""
        import xplan.cli  # noqa: F401  (loads every xplan module)
        from xplan import evaluation, num_core, planners, predictor

        swaps = {}
        for name, module, attr in SPANS:
            fn = getattr(sys.modules[module], attr)
            swaps[fn] = self.wrap(name, fn)

        def count_predict(args, kwargs, result):
            self.counts["predictor.predict.rows"] += len(result)

        def count_cells(args, kwargs, result):
            self.counts["num_core.distance_matrix.cells"] += result.size

        def count_applied(args, kwargs, result):
            self.counts[f"planners.nonempty.{self.method}"] += 1

        def count_culled(args, kwargs, result):
            if result:
                self.counts[f"planners.culled.{self.method}"] += 1

        for fn, name, after in (
            (num_core.distance_matrix, "num_core.distance_matrix", count_cells),
            (planners.apply_plan, "planners.apply_plan", count_applied),
            (planners.check_constraints, "planners.check_constraints", count_culled),
        ):
            swaps[fn] = self.wrap(name, fn, after)
        swaps[evaluation.run_experiment] = self._wrap_run_experiment(evaluation.run_experiment)

        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "xplan" or mod_name.startswith("xplan."):
                for attr, value in list(vars(mod).items()):
                    if callable(value) and value in swaps:
                        setattr(mod, attr, swaps[value])
        predictor.ForestModel.predict = self.wrap(
            "predictor.predict", predictor.ForestModel.predict, count_predict)

    def _wrap_run_experiment(self, fn):
        """One span per experiment, named by method; plan counters made
        while it runs are charged to that method."""

        @functools.wraps(fn)
        def traced(train, test, method, *args, **kwargs):
            self.method = method
            self.counts[f"planners.rows.{method}"] += len(test.rows)
            try:
                return self.call(self._id(f"evaluation.run_experiment.{method}"), fn,
                                 (train, test, method) + args, kwargs)
            finally:
                self.method = None

        return traced

    # --- summary --------------------------------------------------------------

    def summary(self):
        """Per span name: calls, inclusive and self seconds, and per-call
        durations (seconds) for percentiles."""
        spans = self.spans()
        nid, parent = spans["name_id"], spans["parent"]
        dur = spans["end"] - spans["start"]
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_time = dur - child
        k = len(self.names)
        calls = np.bincount(nid, minlength=k)
        total = np.bincount(nid, weights=dur, minlength=k)
        own = np.bincount(nid, weights=self_time, minlength=k)
        order = np.argsort(nid, kind="stable")
        bounds = np.concatenate(([0], np.cumsum(calls)))
        out = {}
        for j, name in enumerate(self.names):
            out[name] = {
                "calls": int(calls[j]),
                "total_s": float(total[j]),
                "self_s": float(own[j]),
                "durations": dur[order[bounds[j]:bounds[j + 1]]],
            }
        return out

    def spans(self):
        """Raw spans as arrays, for writing out after the run."""
        return {
            "names": np.array(self.names, dtype=str),
            "name_id": np.array(self.name_id, dtype=np.int64),
            "parent": np.array(self.parent, dtype=np.int64),
            "start": np.array(self.start, dtype=float),
            "end": np.array(self.end, dtype=float),
        }
