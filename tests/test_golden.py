"""Golden results: ``results.jsonl`` must stay byte-identical.

Two fixed runs are compared, byte for byte, with the files under
``tests/golden``:

- ``planted.jsonl``: ``run_repeats`` on the planted-defect data, all five
  methods, 3 seeds, a 15-tree forest;
- ``config.jsonl``: ``xplan eval`` on a small configuration table with a
  rule file, so constraint culling is part of the output.

Both runs are checked once more with every distance matrix built in
one-row and in ragged blocks. A change that must not move any result
has to pass all of them unchanged. To
regenerate the files from the code of the current checkout (only when a
change of results is intended and explained):

    PYTHONPATH=src:. python3 -m tests.test_golden
"""

import json
from pathlib import Path

import pytest

from xplan import evaluation, num_core
from xplan.evaluation import ALL_METHODS, run_repeats, write_jsonl
from xplan.planners import PlannerConfig
from xplan.predictor import ForestParams
from tests.conftest import config_runtime_data, planted_defect_data, run_cli, save_csv

GOLDEN = Path(__file__).parent / "golden"

# The rules of ``config_runtime_data``, as a rule file.
RULES = """\
requires cache backend
excludes ssl legacy
xor fast small
or logging metrics
"""


def write_planted(path):
    train, test = planted_defect_data()
    results = run_repeats(train, test, ALL_METHODS, PlannerConfig(), n=3,
                          base_seed=1, forest_params=ForestParams(n_trees=15))
    write_jsonl(results, path)


def config_inputs(root, n_rows=240, seed=0):
    """CSV, schema and rule file of ``config_runtime_data``'s table."""
    ds, _ = config_runtime_data(n_rows, seed)
    save_csv(ds, root / "data.csv")
    schema = {"class_mode": "numeric",
              "features": [{"name": f.name, "kind": f.kind, "role": f.role} for f in ds.features]}
    (root / "schema.json").write_text(json.dumps(schema))
    (root / "rules.txt").write_text(RULES)


def write_config(root):
    """Run ``xplan eval`` on the configuration inputs; returns the path of
    its results.jsonl."""
    config_inputs(root)
    out = root / "out"
    res = run_cli([
        "eval", "--data", str(root / "data.csv"), "--schema", str(root / "schema.json"),
        "--constraints", str(root / "rules.txt"), "--methods", ",".join(ALL_METHODS),
        "--repeats", "3", "--trees", "15", "--seed", "1", "--gamma", "0.9",
        "--out", str(out), "--format", "json"])
    assert res.exit_code == 0, res.output
    return out / "results.jsonl"


def test_planted_matches_golden(tmp_path):
    write_planted(tmp_path / "results.jsonl")
    assert (tmp_path / "results.jsonl").read_bytes() == (GOLDEN / "planted.jsonl").read_bytes()


def test_config_with_rules_matches_golden(tmp_path, monkeypatch):
    culled = []
    check = evaluation.check_constraints

    def counting(row, fm, ds):
        violations = check(row, fm, ds)
        culled.extend(violations[:1])
        return violations

    monkeypatch.setattr(evaluation, "check_constraints", counting)
    path = write_config(tmp_path)
    assert culled, "the golden run must cull at least one plan"
    assert path.read_bytes() == (GOLDEN / "config.jsonl").read_bytes()


@pytest.mark.parametrize("budget", [1, 4500])
def test_goldens_hold_in_small_trust_blocks(tmp_path, monkeypatch, budget):
    """Every distance matrix in one-row blocks, and in ragged ones. For the
    trust distances, 4,500 cells are 7 of the planted run's 600 training
    rows (its 200 test rows make 28 blocks and 4 rows) and 37 of the config
    run's 120 (3 blocks and 9 rows)."""
    monkeypatch.setattr(num_core, "_BLOCK_CELLS", budget)
    write_planted(tmp_path / "results.jsonl")
    assert (tmp_path / "results.jsonl").read_bytes() == (GOLDEN / "planted.jsonl").read_bytes()
    assert write_config(tmp_path).read_bytes() == (GOLDEN / "config.jsonl").read_bytes()


if __name__ == "__main__":
    import shutil
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    write_planted(GOLDEN / "planted.jsonl")
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copy(write_config(Path(tmp)), GOLDEN / "config.jsonl")
