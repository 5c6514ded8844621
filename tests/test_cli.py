import json
import math
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from xplan import evaluation
from xplan.data_model import Dataset
from xplan.evaluation import read_jsonl
from xplan.predictor import GateError
from tests.conftest import config_runtime_data, planted_defect_data, run_cli, save_csv, with_gaps
from tests.test_golden import RULES, config_inputs


@pytest.fixture(scope="module")
def workdir(tmp_path_factory, planted):
    """Planted dataset written out as the CSV + schema the CLI consumes."""
    root = tmp_path_factory.mktemp("cli")
    save_csv(planted, root / "data.csv")
    schema = {
        "class_mode": "boolean-from-count",
        "features": [
            {"name": f.name, "kind": f.kind, "role": f.role}
            for f in planted.features
        ],
    }
    (root / "schema.json").write_text(json.dumps(schema))
    return root


def base_args(workdir, *extra):
    return [
        "--data", str(workdir / "data.csv"),
        "--schema", str(workdir / "schema.json"),
        "--trees", "15",
        "--seed", "1",
        *extra,
    ]


def heavy_modules_loaded_by_eval(workdir, tmp_path, *extra):
    """The modules an eval of identity and xtree on ``workdir``'s inputs
    should never load but did, as the child process prints their list."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    script = ("import sys\n"
              "from xplan.cli import main\n"
              "try:\n"
              "    main(sys.argv[1:])\n"
              "except SystemExit as exc:\n"
              "    assert not exc.code, exc.code\n"
              "print(sorted({'numpy.random', 'secrets', '_hashlib', 'statistics', 'fractions',\n"
              "              'decimal', 'numpy.ma', 'click'} & set(sys.modules)))\n")
    proc = subprocess.run([sys.executable, "-c", script, "eval", *base_args(
        workdir, "--methods", "identity,xtree", "--out", str(tmp_path / "r"), *extra)],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip().splitlines()[-1]


def versioned(workdir):
    """The planted CSV with a meta ``version`` column: train or test."""
    lines = (workdir / "data.csv").read_text().splitlines()
    half = len(lines) // 2
    body = [f"{row},{'train' if i < half else 'test'}" for i, row in enumerate(lines[1:])]
    (workdir / "versioned.csv").write_text("\n".join([lines[0] + ",version", *body]) + "\n")
    schema = json.loads((workdir / "schema.json").read_text())
    schema["features"].append({"name": "version", "kind": "discrete", "role": "meta"})
    (workdir / "versioned.json").write_text(json.dumps(schema))
    return ["--data", str(workdir / "versioned.csv"),
            "--schema", str(workdir / "versioned.json"),
            "--split-mode", "by-version", "--train-versions", "train"]


class TestPlan:
    def test_emits_json_per_row(self, workdir):
        res = run_cli(["plan"] + base_args(workdir, "--method", "xtree", "--rows", "0,1,2"))
        assert res.exit_code == 0, res.output
        lines = res.output.strip().splitlines()
        assert len(lines) == 3
        for i, line in enumerate(lines):
            blob = json.loads(line)
            assert blob["row"] == i
            assert blob["method"] == "xtree"
            assert isinstance(blob["deltas"], list)

    def test_all_methods(self, workdir):
        res = run_cli(["plan"] + base_args(workdir, "--method", "all", "--rows", "0"))
        assert res.exit_code == 0, res.output
        methods = [json.loads(l)["method"] for l in res.output.strip().splitlines()]
        assert methods == ["cd", "cdfs", "bic", "xtree"]

    def test_deterministic_output(self, workdir):
        args = ["plan"] + base_args(workdir, "--method", "cd", "--rows", "0,5")
        out1 = run_cli(args).output
        out2 = run_cli(args).output
        assert out1 == out2

    def test_missing_data_file_is_usage_error(self, workdir):
        res = run_cli([
            "plan", "--data", str(workdir / "nope.csv"),
            "--schema", str(workdir / "schema.json"),
        ])
        assert res.exit_code == 1

    def test_parser_usage_errors_exit_1(self, workdir, tmp_path):
        # usage errors of the parser and the option converters: a bad option
        # type, a missing required option, an option value from --config, an
        # unknown command or option, an option's prefix
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"trees": "abc"}))
        for args in (["plan"] + base_args(workdir, "--trees", "abc"),
                     ["plan", "--schema", str(workdir / "schema.json")],
                     ["plan", "--config", str(cfg)] + base_args(workdir)[:4],
                     ["planz"], ["--bogus"],
                     ["plan"] + base_args(workdir)[:4] + ["--tree", "15"]):
            res = run_cli(args)
            assert res.exit_code == 1, args
            assert res.exception is None or isinstance(res.exception, SystemExit)
            [line] = res.stderr.strip().splitlines()  # no usage text nor hint
            assert line.startswith("Error: "), args

    def test_usage_error_exits_1_as_a_module(self, workdir):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
        proc = subprocess.run([sys.executable, "-m", "xplan.cli", "plan", *base_args(workdir, "--trees", "abc")],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 1
        assert "Invalid value for '--trees'" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_gamma_above_1_is_allowed(self, workdir):
        # a worse sibling qualifies
        res = run_cli(["plan"] + base_args(workdir, "--gamma", "1.2", "--rows", "0"))
        assert res.exit_code == 0, res.stderr
        assert json.loads(res.output)["row"] == 0

    def test_alpha_below_2_is_usage_error(self, workdir):
        res = run_cli(["plan"] + base_args(workdir, "--alpha", "1"))
        assert res.exit_code == 1
        assert res.stderr.strip().splitlines() == ["--alpha must be at least 2, not 1"]

    def test_non_utf8_inputs_exit_1(self, workdir, tmp_path):
        data = tmp_path / "latin1.csv"
        data.write_bytes((workdir / "data.csv").read_bytes() + b"caf\xe9\n")
        rules = tmp_path / "rules.txt"
        rules.write_bytes(b"# caf\xe9\n")
        for path, args in ((data, ["--data", str(data), "--schema", str(workdir / "schema.json")]),
                           (rules, base_args(workdir, "--constraints", str(rules)))):
            res = run_cli(["plan"] + args)
            assert res.exit_code == 1
            assert res.exception is None or isinstance(res.exception, SystemExit)
            assert res.stderr.strip().splitlines() == [f"{path}: not UTF-8 text"]

    @pytest.mark.parametrize("rows", ["999", "x", "0,-1"])
    def test_bad_rows_is_usage_error(self, workdir, rows):
        res = run_cli(["plan"] + base_args(workdir, "--rows", rows))
        assert res.exit_code == 1
        assert res.exception is None or isinstance(res.exception, SystemExit)
        assert len(res.stderr.strip().splitlines()) == 1
        assert "--rows" in res.stderr

    @pytest.mark.parametrize("trees", ["0", "-3"])
    def test_bad_trees_is_usage_error(self, workdir, trees):
        res = run_cli(["plan"] + base_args(workdir, "--trees", trees))
        assert res.exit_code == 1
        assert res.exception is None or isinstance(res.exception, SystemExit)
        assert res.stderr.strip().splitlines() == [f"--trees must be at least 1, not {trees}"]


class TestEval:
    def test_text_report_and_artifacts(self, workdir, tmp_path):
        out = tmp_path / "res"
        res = run_cli(["eval"] + base_args(
            workdir, "--methods", "identity,xtree", "--repeats", "2",
            "--out", str(out)))
        assert res.exit_code == 0, res.output
        assert "Rank" in res.output and "xtree" in res.output
        assert (out / "results.jsonl").exists()
        assert (out / "results.csv").exists()
        assert len((out / "results.jsonl").read_text().strip().splitlines()) == 4

    def test_json_format(self, workdir, tmp_path):
        res = run_cli(["eval"] + base_args(
            workdir, "--methods", "identity,xtree", "--repeats", "2",
            "--out", str(tmp_path / "r"), "--format", "json"))
        assert res.exit_code == 0, res.output
        ranked = json.loads(res.output.strip().splitlines()[-1])
        assert {e["method"] for e in ranked} == {"identity", "xtree"}
        assert all({"rank", "median", "iqr"} <= set(e) for e in ranked)

    def test_byte_identical_reruns(self, workdir, tmp_path):
        args1 = ["eval"] + base_args(workdir, "--methods", "xtree", "--repeats", "2",
                                     "--out", str(tmp_path / "a"))
        args2 = ["eval"] + base_args(workdir, "--methods", "xtree", "--repeats", "2",
                                     "--out", str(tmp_path / "b"))
        out1 = run_cli(args1)
        out2 = run_cli(args2)
        assert out1.output == out2.output
        assert (tmp_path / "a/results.jsonl").read_bytes() == \
               (tmp_path / "b/results.jsonl").read_bytes()

    def test_infinite_csv_cell_exits_1(self, workdir, tmp_path):
        header, first, *rest = (workdir / "data.csv").read_text().splitlines()
        (tmp_path / "inf.csv").write_text("\n".join([header, "inf" + first[first.index(","):], *rest]))
        res = run_cli(["eval", "--data", str(tmp_path / "inf.csv"),
                       "--schema", str(workdir / "schema.json"),
                       "--out", str(tmp_path / "r")])
        assert res.exit_code == 1
        assert res.exception is None or isinstance(res.exception, SystemExit)
        assert res.stderr.strip().splitlines() == ["infinite cell 'inf' in numeric column 'n0'"]
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("trees", ["0", "-3"])
    def test_bad_trees_is_usage_error(self, workdir, tmp_path, trees):
        res = run_cli(["eval"] + base_args(
            workdir, "--trees", trees, "--out", str(tmp_path / "r")))
        assert res.exit_code == 1
        assert res.exception is None or isinstance(res.exception, SystemExit)
        assert res.stderr.strip().splitlines() == [f"--trees must be at least 1, not {trees}"]
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("option, value", [("trees", math.inf), ("trees", 2.5),
                                               ("seed", -math.inf), ("alpha", math.nan),
                                               ("repeats", math.inf)])
    def test_config_integer_that_is_not_whole_is_usage_error(self, workdir, tmp_path, option, value):
        # int() would raise OverflowError on Infinity and truncate 2.5 to 2
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({option: value}))
        res = run_cli(["eval", "--config", str(cfg), *base_args(workdir)[:4],
                       "--out", str(tmp_path / "r")])
        assert res.exit_code == 1
        assert res.exception is None or isinstance(res.exception, SystemExit)
        assert res.stderr.strip().splitlines() == [
            f"Error: Invalid value for '--{option}': {value!r} is not a valid integer."]
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("option, value, kind", [
        ("trees", True, "integer"), ("seed", False, "integer"), ("trees", [1], "integer"),
        ("beta", True, "float"), ("gamma", False, "float"), ("tune", 1, "boolean"),
        ("methods", 3, "string")])
    def test_config_value_of_the_wrong_json_type_is_usage_error(self, workdir, tmp_path,
                                                                 option, value, kind):
        # a boolean is no number: {"trees": true} would grow a one-tree forest
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({option: value}))
        res = run_cli(["eval", "--config", str(cfg), *base_args(workdir)[:4],
                       "--out", str(tmp_path / "r")])
        assert res.exit_code == 1
        assert res.exception is None
        assert res.stderr.strip().splitlines() == [
            f"Error: Invalid value for '--{option}': {value!r} is not a valid {kind}."]
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("repeats", ["0", "-2"])
    def test_bad_repeats_is_usage_error(self, workdir, tmp_path, repeats):
        res = run_cli(["eval"] + base_args(
            workdir, "--repeats", repeats, "--out", str(tmp_path / "r")))
        assert res.exit_code == 1
        assert res.stderr.strip().splitlines() == [f"--repeats must be at least 1, not {repeats}"]
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("command", ["eval", "plan"])
    def test_negative_seed_is_usage_error(self, workdir, tmp_path, command):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": -1}))
        args = base_args(workdir)
        flag = args[:args.index("--seed")] + args[args.index("--seed") + 2:]  # --seed from --config
        out = ["--out", str(tmp_path / "r")] if command == "eval" else []
        for argv in (base_args(workdir, "--seed", "-1"), ["--config", str(cfg)] + flag):
            res = run_cli([command] + argv + out)
            assert res.exit_code == 1
            assert res.exception is None or isinstance(res.exception, SystemExit)
            assert res.stderr.strip().splitlines() == ["--seed must be at least 0, not -1"]
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("command", [["eval", "--methods", "cdfs"], ["plan", "--method", "cdfs"]])
    @pytest.mark.parametrize("option, value, why", [
        *(("beta", v, "in (0, 1]") for v in (math.nan, math.inf, -math.inf, 0.0, -1.0, 5.0)),
        *(("gamma", v, "finite and above 0") for v in (-1.0, 0.0, math.nan, math.inf, -math.inf)),
    ])
    def test_bad_beta_or_gamma_is_usage_error(self, workdir, tmp_path, command, option, value, why):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({option: value}))  # NaN and Infinity are JSON to Python
        out = ["--out", str(tmp_path / "r")] if command[0] == "eval" else []
        for argv in (base_args(workdir, f"--{option}", str(value)),
                     ["--config", str(cfg)] + base_args(workdir)):
            res = run_cli(command + argv + out)
            assert res.exit_code == 1
            assert res.exception is None or isinstance(res.exception, SystemExit)
            assert res.stderr.strip().splitlines() == [f"--{option} must be {why}, not {value}"]
        assert not (tmp_path / "r").exists()

    def test_eval_loads_no_numpy_random_nor_openssl(self, workdir, tmp_path):
        # the forest replays each tree's PCG64 stream itself: numpy.random
        # would load secrets, hashlib and OpenSSL's libcrypto, several MB
        # of resident memory; Scott-Knott takes its means and quartiles
        # itself: statistics would load fractions and decimal; a bare
        # np.unique loads numpy.ma, about 1 MB; argparse parses the command
        # line, where click and its commands would add about 1 MB
        assert heavy_modules_loaded_by_eval(workdir, tmp_path) == "[]"

    def test_numeric_dependent_eval_loads_no_numpy_ma(self, tmp_path):
        # the regression forest's leaf means and the rule file's culling
        # run only on a numeric dependent
        config_inputs(tmp_path)
        assert heavy_modules_loaded_by_eval(
            tmp_path, tmp_path, "--constraints", str(tmp_path / "rules.txt")) == "[]"

    def test_unknown_method_exits_1(self, workdir, tmp_path):
        res = run_cli(["eval"] + base_args(
            workdir, "--methods", "magic", "--out", str(tmp_path / "r")))
        assert res.exit_code == 1

    def test_weak_predictor_exits_2(self, workdir, tmp_path):
        import csv
        import random

        noisy = tmp_path / "noise.csv"
        rng = random.Random(0)
        with open(noisy, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["n0", "n1", "n2", "n3", "n4", "n5", "n6", "n7", "loc", "bug"])
            for _ in range(120):
                w.writerow([round(rng.random(), 3) for _ in range(9)]
                           + [int(rng.random() < 0.5)])
        res = run_cli([
            "eval", "--data", str(noisy), "--schema", str(workdir / "schema.json"),
            "--trees", "15", "--methods", "identity", "--repeats", "1",
            "--out", str(tmp_path / "r"),
        ])
        assert res.exit_code == 2
        err = res.output + res.stderr
        assert "gate" in err

    @pytest.mark.parametrize("objective", ["defects", "runtime"])
    def test_gate_failure_prints_the_gate_error(self, workdir, tmp_path, monkeypatch, objective):
        # the gate is made to fail on the seed's own score, a classifier's
        # (pd, pf) or a regressor's s; the line is GateError's message, with
        # the thresholds of the gate
        if objective == "runtime":
            config_inputs(tmp_path)
            workdir = tmp_path
        scores = []

        def failing(score):
            scores.append(score)
            return False

        monkeypatch.setattr(evaluation, "gate", failing)
        res = run_cli(["eval"] + base_args(
            workdir, "--methods", "identity", "--repeats", "1", "--out", str(tmp_path / "r")))
        assert res.exit_code == 2
        [score] = scores
        if objective == "defects":
            line = f"predictor gate failed: pd={score.pd:.1f} pf={score.pf:.1f} (need pd > 60 and pf < 40)"
        else:
            line = f"predictor gate failed: s={score.s:.3f} (need s > 0.9)"
        assert res.stderr == str(GateError(score)) + "\n" == line + "\n"

    def test_empty_test_split_is_data_error(self, workdir, tmp_path):
        for command in (["eval", "--out", str(tmp_path / "r")], ["plan"]):
            res = run_cli(command + versioned(workdir)
                                + ["--test-versions", "nope", "--trees", "15"])
            assert res.exit_code == 1
            err = res.stderr
            assert "test split is empty" in err and "gate" not in err

    def test_tune_on_one_training_row_names_its_validation_half(self, workdir, tmp_path):
        # one training row leaves tune_de's validation half empty, while the
        # test split holds 20 rows
        lines = (workdir / "data.csv").read_text().splitlines()
        body = [f"{row},{'train' if i == 0 else 'test'}" for i, row in enumerate(lines[1:22])]
        data = tmp_path / "one_train.csv"
        data.write_text("\n".join([lines[0] + ",version", *body]) + "\n")
        versioned(workdir)
        args = ["--data", str(data), "--schema", str(workdir / "versioned.json"), "--tune",
                "--split-mode", "by-version", "--train-versions", "train", "--test-versions", "test"]
        for command in (["eval", "--out", str(tmp_path / "r")], ["plan"]):
            res = run_cli(command + args)
            assert res.exit_code == 1
            assert res.stderr.strip().splitlines() == [
                "the tuning validation half is empty: the training split has 1 row"]

    def test_config_file_defaults_with_flag_override(self, workdir, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "data": str(workdir / "data.csv"),
            "schema": str(workdir / "schema.json"),
            "trees": 15,
            "repeats": 1,
            "methods": "identity",
            "out": str(tmp_path / "from_cfg"),
        }))
        res = run_cli(["eval", "--config", str(cfg),
                       "--out", str(tmp_path / "override")])
        assert res.exit_code == 0, res.output
        assert (tmp_path / "override" / "results.jsonl").exists()
        assert not (tmp_path / "from_cfg").exists()

    def test_null_config_values_leave_the_defaults(self, workdir, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(dict.fromkeys(["alpha", "beta", "gamma", "seed", "trees"])))
        args = ["plan", "--method", "all", "--rows", "0"] + base_args(workdir)
        res = run_cli(args + ["--config", str(cfg)])
        assert res.exit_code == 0, res.stderr
        assert res.output == run_cli(args).output

    def test_unknown_config_keys_exit_1(self, workdir, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"treez": 3, "split-mode": "x", "trees": 15}))
        for command in (["eval", "--out", str(tmp_path / "r")], ["plan"]):
            res = run_cli(command + ["--config", str(cfg)] + base_args(workdir))
            assert res.exit_code == 1
            assert res.stderr.strip() == f"--config {cfg}: unknown keys: split-mode, treez"
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("schema", [
        "{not json",
        "[1, 2]",
        "{}",
        '{"features": {"name": "loc"}}',
        '{"features": [{"kind": "numeric"}]}',
        '{"features": [{"name": "loc", "weight": "heavy"}]}',
    ])
    def test_malformed_schema_exits_1(self, workdir, tmp_path, schema):
        path = tmp_path / "schema.json"
        path.write_text(schema)
        res = run_cli(["eval", "--data", str(workdir / "data.csv"),
                       "--schema", str(path), "--out", str(tmp_path / "r")])
        assert res.exit_code == 1
        assert res.exception is None or isinstance(res.exception, SystemExit)
        err = res.stderr.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(f"{path}: ")

    @pytest.mark.parametrize("weight", [math.nan, math.inf, -math.inf])
    def test_schema_weight_that_is_not_finite_exits_1(self, workdir, tmp_path, weight):
        schema = json.loads((workdir / "schema.json").read_text())
        schema["features"][1]["weight"] = weight  # NaN and Infinity are JSON to Python
        path = tmp_path / "schema.json"
        path.write_text(json.dumps(schema))
        res = run_cli(["eval", "--data", str(workdir / "data.csv"), "--schema", str(path),
                       "--out", str(tmp_path / "r")])
        assert res.exit_code == 1
        assert res.exception is None or isinstance(res.exception, SystemExit)
        name = schema["features"][1]["name"]
        assert res.stderr.strip().splitlines() == [
            f"{path}: bad feature entry: weight of feature {name!r} must be finite and >= 0, not {weight}"]
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("class_mode, kind, role, cells, message", [
        ("boolean-from-count", "numeric", "independent", "0 1 0 2", "need exactly one dependent feature, got 0"),
        ("boolean-from-count", "discrete", "dependent", "no yes no yes",
         "classification needs a boolean dependent; 'bug' is discrete"),
        ("boolean-from-count", "discrete", "dependent", "0 1 0 2",
         "classification needs a boolean dependent; 'bug' is discrete"),
        ("numeric", "discrete", "dependent", "slow fast slow fast",
         "regression needs a numeric dependent; 'bug' is discrete"),
        ("numeric", "discrete", "dependent", "1.5 20 3 8",
         "regression needs a numeric dependent; 'bug' is discrete"),
    ])
    def test_dependent_that_is_missing_or_discrete_exits_1(self, tmp_path, class_mode, kind, role,
                                                           cells, message):
        data = tmp_path / "data.csv"
        data.write_text("loc,bug\n" + "".join(f"{10 * i},{c}\n" for i, c in enumerate(cells.split())))
        schema = tmp_path / "schema.json"
        schema.write_text(json.dumps({"class_mode": class_mode, "features": [
            {"name": "loc"}, {"name": "bug", "kind": kind, "role": role}]}))
        for command in ("eval", "plan"):
            res = run_cli([command, "--data", str(data), "--schema", str(schema), "--trees", "3"]
                          + (["--out", str(tmp_path / "r")] if command == "eval" else []))
            assert res.exit_code == 1, (command, res.exception)
            assert res.exception is None or isinstance(res.exception, SystemExit), repr(res.exception)
            assert res.stderr.strip().splitlines() == [message]
        assert not (tmp_path / "r").exists()

    def test_smote_with_numeric_dependent_exits_1(self, workdir, tmp_path):
        schema = json.loads((workdir / "schema.json").read_text())
        schema["class_mode"] = "numeric"
        (tmp_path / "numeric.json").write_text(json.dumps(schema))
        res = run_cli(["eval", "--data", str(workdir / "data.csv"),
                       "--schema", str(tmp_path / "numeric.json"), "--smote",
                       "--out", str(tmp_path / "r")])
        assert res.exit_code == 1
        assert res.exception is None or isinstance(res.exception, SystemExit)
        assert res.stderr.strip().splitlines() == [
            "SMOTE needs a boolean dependent (class mode boolean-from-count)"]

    def test_out_that_cannot_be_created_exits_1(self, workdir, tmp_path):
        (tmp_path / "file").write_text("")
        out = tmp_path / "file" / "res"
        res = run_cli(["eval"] + base_args(
            workdir, "--methods", "identity", "--repeats", "1", "--out", str(out)))
        assert res.exit_code == 1
        assert res.exception is None or isinstance(res.exception, SystemExit)
        err = res.stderr.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(f"--out {out}: cannot write results")

    def test_config_that_is_not_an_object_exits_1(self, workdir, tmp_path):
        for text in ("[1, 2]", "{not json", None):
            cfg = tmp_path / "cfg.json"
            if text is None:
                cfg = tmp_path  # a directory
            else:
                cfg.write_text(text)
            res = run_cli(["plan", "--config", str(cfg)] + base_args(workdir))
            assert res.exit_code == 1
            assert "not a readable JSON object" in res.stderr


def drawn_inputs(root, source, n_rows, data_seed, gaps, constant, single_class):
    """CSV and schema of a small table from a conftest generator: "planted"
    defects or "config" runtimes (with its rule file), with about ``gaps``
    of its independent cells missing, its first feature ``constant`` and
    its dependent a ``single_class``, as asked. Returns the CLI arguments
    that name the files."""
    if source == "planted":
        train, test = planted_defect_data(n_rows, 0, data_seed)
        ds, fill, mode = train, (50.0, False), "boolean-from-count"
    else:
        ds, _ = config_runtime_data(n_rows, data_seed)
        fill, mode = ("on", 150.0), "numeric"
    rows = [[fill[0] if constant and i == 0 else c for i, c in enumerate(r[:-1])]
            + [fill[1] if single_class else r[-1]] for r in ds.rows]
    ds = with_gaps(Dataset(ds.features, rows, ds.objective), random.Random(data_seed), gaps)
    save_csv(ds, root / "data.csv")
    schema = {"class_mode": mode,
              "features": [{"name": f.name, "kind": f.kind, "role": f.role} for f in ds.features]}
    (root / "schema.json").write_text(json.dumps(schema))
    args = ["--data", str(root / "data.csv"), "--schema", str(root / "schema.json")]
    if source == "config":
        (root / "rules.txt").write_text(RULES)
        args += ["--constraints", str(root / "rules.txt")]
    return args


# Valid and bad values of each drawn option: non-finite, zero, negative,
# fractional for an integer, a boolean, and a seed past 32 bits.
OPTION_VALUES = {
    "alpha": ([2, 5, 12], [-1, 0, 1, math.nan, math.inf, 2.5, False]),
    "beta": ([0.05, 0.33, 1.0], [math.nan, math.inf, -math.inf, 0.0, -0.5, 1.5, True]),
    "gamma": ([1e-3, 0.5, 1.2], [math.nan, math.inf, -math.inf, 0.0, -1.0, True]),
    "trees": ([1, 2, 3], [-1, 0, math.nan, math.inf, 2.5, True]),
    "seed": ([0, 1, 2**32 + 5], [-1, math.nan, -math.inf, True, False]),
    "repeats": ([1, 2], [-1, 0, math.nan, math.inf, True]),
}


@st.composite
def drawn_options(draw):
    """Some options at valid values, and at most one at a bad value."""
    options = draw(st.fixed_dictionaries({}, optional={
        name: st.sampled_from(valid) for name, (valid, _) in OPTION_VALUES.items()}))
    bad = draw(st.none() | st.sampled_from(sorted(OPTION_VALUES)))
    if bad:
        options[bad] = draw(st.sampled_from(OPTION_VALUES[bad][1]))
    return options


class TestOptionProperty:
    """Whatever the options and data, ``eval`` and ``plan`` exit 0, 1 or 2;
    an error is one stderr line and never a traceback; an option gives the
    same exit code and output as a flag and through ``--config``."""

    @settings(max_examples=60, deadline=None)
    @given(source=st.sampled_from(["planted", "config"]), n_rows=st.integers(2, 60),
           data_seed=st.integers(0, 50), gaps=st.sampled_from([0.0, 0.3]),
           constant=st.booleans(), single_class=st.booleans(), options=drawn_options())
    def test_exit_codes_and_one_line_errors(self, source, n_rows, data_seed, gaps, constant,
                                            single_class, options):
        options = {"trees": 3, "repeats": 1, **options}
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            data = drawn_inputs(root, source, n_rows, data_seed, gaps, constant, single_class)
            for command in ("eval", "plan"):
                given_opts = {k: v for k, v in options.items() if command == "eval" or k != "repeats"}
                cfg = root / f"{command}.json"
                cfg.write_text(json.dumps(given_opts))  # NaN and Infinity are JSON to Python
                flags = [a for k, v in given_opts.items() for a in (f"--{k}", str(v))]
                runs = []
                for how, argv in (("flag", data + flags), ("config", ["--config", str(cfg)] + data)):
                    out = ["--out", str(root / how)] if command == "eval" else []
                    res = run_cli([command] + argv + out)
                    assert res.exit_code in (0, 1, 2), (command, how, res.exception)
                    assert res.exception is None or isinstance(res.exception, SystemExit), \
                        (command, how, repr(res.exception))
                    err = res.stderr
                    if res.exit_code:
                        assert len(err.strip().splitlines()) == 1 and "Traceback" not in err, \
                            (command, how, err)
                    elif command == "eval":
                        results = read_jsonl(root / how / "results.jsonl")
                        assert {r.seed for rs in results.values() for r in rs}
                    runs.append((res.exit_code, res.stdout))  # a flag's message quotes its text
                assert runs[0] == runs[1], (command, given_opts)


# Faults of a hand-written schema, each an edit of its features: of the
# dependent (last in ``drawn_inputs``' tables) and of another feature.
SCHEMA_FAULTS = {
    "no dependent": lambda dep, other: dep.update(role="independent"),
    "two dependents": lambda dep, other: other.update(role="dependent"),
    "discrete dependent": lambda dep, other: dep.update(kind="discrete"),
    "bogus kind": lambda dep, other: other.update(kind="ordinal"),
    "bogus role": lambda dep, other: other.update(role="target"),
    **{f"weight {w!r}": lambda dep, other, w=w: other.update(weight=w)
       for w in (math.nan, math.inf, -math.inf, -1.0, "heavy", "nan", None, True)},
}


class TestSchemaProperty:
    """Whatever faults its schema holds, ``eval`` exits 0, 1 or 2, and an
    error is one stderr line and never a traceback."""

    @settings(max_examples=40, deadline=None)
    @given(source=st.sampled_from(["planted", "config"]), n_rows=st.integers(2, 40),
           data_seed=st.integers(0, 50),
           class_mode=st.sampled_from(["boolean-from-count", "numeric"]) | st.sampled_from(["binary", None, 3]),
           faults=st.lists(st.sampled_from(sorted(SCHEMA_FAULTS)), max_size=3), other=st.integers(0, 99))
    @example(source="planted", n_rows=30, data_seed=1, class_mode="boolean-from-count",
             faults=["discrete dependent"], other=0)
    @example(source="config", n_rows=30, data_seed=1, class_mode="numeric",
             faults=["discrete dependent"], other=0)
    def test_exit_codes_and_one_line_errors(self, source, n_rows, data_seed, class_mode, faults, other):
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            data = drawn_inputs(root, source, n_rows, data_seed, 0.0, False, False)
            schema = json.loads((root / "schema.json").read_text())
            schema["class_mode"] = class_mode
            features = schema["features"]
            for fault in faults:
                SCHEMA_FAULTS[fault](features[-1], features[other % (len(features) - 1)])
            (root / "schema.json").write_text(json.dumps(schema))  # NaN and Infinity are JSON to Python
            res = run_cli(["eval", *data, "--trees", "3", "--repeats", "1", "--out", str(root / "r")])
            assert res.exit_code in (0, 1, 2), (schema, res.exception)
            assert res.exception is None or isinstance(res.exception, SystemExit), (schema, repr(res.exception))
            if res.exit_code:
                assert len(res.stderr.strip().splitlines()) == 1, (schema, res.stderr)


class TestReport:
    def test_report_from_saved_results(self, workdir, tmp_path):
        out = tmp_path / "res"
        run_cli(["eval"] + base_args(
            workdir, "--methods", "identity,xtree,cd", "--repeats", "2",
            "--out", str(out)))
        res = run_cli(["report", str(out / "results.jsonl")])
        assert res.exit_code == 0, res.output
        assert "Rank" in res.output
        assert "Change frequency" in res.output
        assert "Trust" in res.output

    def test_method_without_defined_ratio_left_unranked(self, tmp_path):
        from xplan.evaluation import ExperimentResult, write_jsonl

        results = {
            "identity": [ExperimentResult("identity", s, 1.0, 4, 4, 0, 4, [], 0.1, 0.1)
                         for s in (1, 2)],
            "cd": [ExperimentResult("cd", s, math.nan, 0, 0, 3, 1, ["a"], 0.1, 0.2,
                                    ratio_defined=False) for s in (1, 2)],
        }
        write_jsonl(results, tmp_path / "r.jsonl")
        res = run_cli(["report", str(tmp_path / "r.jsonl")])
        assert res.exit_code == 0, res.output
        assert "not ranked, no defined ratio: cd" in res.stderr
        ranked = res.stdout.split("Change frequency")[0]
        assert "identity" in ranked and "cd" not in ranked

    def test_ratio_that_is_not_finite_is_left_unranked(self, tmp_path):
        # a hand-edited file: NaN, Infinity, or null while ratio_defined is true
        from xplan.evaluation import ExperimentResult

        def line(method, seed, ratio):
            good = ExperimentResult(method, seed, 0.5, 4, 2, 3, 1, ["a"], 0.1, 0.2).to_json()
            return json.dumps(good).replace('"ratio": 0.5', f'"ratio": {ratio}')

        p = tmp_path / "r.jsonl"
        p.write_text("\n".join([line("cd", 1, "NaN"), line("cd", 2, "Infinity"),
                                line("xtree", 1, "null"), line("xtree", 2, "0.5"),
                                line("bic", 1, "-Infinity"), line("bic", 2, "0.75")]) + "\n")
        res = run_cli(["report", str(p)])
        assert res.exit_code == 0, repr(res.exception)
        assert res.stderr.strip().splitlines() == ["not ranked, no defined ratio: cd"]
        ranked = res.stdout.split("Change frequency")[0]
        assert "xtree" in ranked and "bic" in ranked and "cd" not in ranked
        assert "nan" not in ranked and "inf" not in ranked

    def test_missing_file_exits_1(self, tmp_path):
        res = run_cli(["report", str(tmp_path / "nothing.jsonl")])
        assert res.exit_code == 1

    @pytest.mark.parametrize("line, why", [('"ab"', "not a mapping"), ("[1, 2]", "not a mapping"),
                                           ("{bad", "Expecting property name"),
                                           ("RATIO", "bad ratio"), ("FEATURES", "bad changed_features")])
    def test_malformed_record_exits_1(self, tmp_path, line, why):
        from xplan.evaluation import ExperimentResult

        good = ExperimentResult("cd", 1, 0.5, 4, 2, 3, 1, ["a"], 0.1, 0.2).to_json()
        line = {"RATIO": json.dumps({**good, "ratio": "x"}),
                "FEATURES": json.dumps({**good, "changed_features": [1]})}.get(line, line)
        p = tmp_path / "r.jsonl"
        p.write_text(json.dumps(good) + "\n" + line + "\n")
        res = run_cli(["report", str(p)])
        assert res.exit_code == 1
        assert res.exception is None or isinstance(res.exception, SystemExit)
        err = res.stderr.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(f"cannot read results: {p}:2: ") and why in err[0]

    def test_empty_file_exits_1(self, tmp_path):
        p = tmp_path / "empty.jsonl"
        p.write_text("")
        res = run_cli(["report", str(p)])
        assert res.exit_code == 1


class TestHelp:
    def test_group_lists_commands(self):
        res = run_cli(["--help"])
        assert res.exit_code == 0
        for cmd in ("plan", "eval", "report"):
            assert cmd in res.output

    def test_no_arguments_prints_help_and_exits_1(self):
        res = run_cli([])
        assert res.exit_code == 1
        assert res.stdout == ""
        assert "usage: xplan" in res.stderr and "report" in res.stderr

    def test_eval_help_documents_defaults(self):
        res = run_cli(["eval", "--help"])
        assert res.exit_code == 0
        assert "0.33" in res.output   # beta default
        assert "0.5" in res.output    # gamma default
        assert "40" in res.output     # repeats default
