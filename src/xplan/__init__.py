"""xplan: learn per-example change plans from tabular software-project data.

The pipeline: load a dataset, split into train/test, train a quality
predictor (random forest), cluster or tree the training data, emit a plan
per test row, re-predict the rows the plans changed, and report
after/before ratios ranked with a Scott-Knott test.
"""

from xplan.data_model import Dataset, FeatureSpec, SplitSpec, load_csv, load_schema, split
from xplan.planners import Delta, Plan, PlannerConfig

__all__ = [
    "Dataset",
    "FeatureSpec",
    "SplitSpec",
    "load_csv",
    "load_schema",
    "split",
    "Delta",
    "Plan",
    "PlannerConfig",
]

__version__ = "0.1.0"
