"""Command-line pipeline: plan single rows, evaluate planners, render
reports from saved results.

The stdlib ``argparse`` only splits the command line. Each option's
converter then checks its value, whether the value is a flag's text or
comes from a ``--config`` file, so both accept the same values and reject
the others with the same message.

Exit codes: 0 ok, 1 usage or data error, 2 predictor gate failure. An
error is one line on stderr, with no usage text.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import re
import sys
from pathlib import Path
from typing import Callable, NamedTuple

from xplan.data_model import DataError, SplitSpec, load_csv, load_schema, split
from xplan.evaluation import (
    ALL_METHODS,
    RunArtifacts,
    change_frequency,
    method_samples,
    read_jsonl,
    run_repeats,
    write_csv_summary,
    write_jsonl,
)
from xplan.planners import PlannerConfig, load_feature_model
from xplan.predictor import ForestParams, GateError, smote, tune_de
from xplan.scott_knott import render_report, scott_knott_rank

EXIT_DATA = 1
EXIT_GATE = 2


def _fail(message, code=EXIT_DATA):
    print(message, file=sys.stderr)
    sys.exit(code)


# Converters: each takes a flag's text or a --config JSON value and returns
# the option's value, or raises ValueError with the reason.

def _integer(value):
    """A whole number. A JSON boolean, 2.5, NaN or Infinity is not one:
    ``int()`` would read ``true`` as 1 and truncate 2.5 to 2."""
    if not isinstance(value, bool) and (not isinstance(value, float) or value.is_integer()):
        try:
            return int(value)
        except (TypeError, ValueError):
            pass
    raise ValueError(f"{value!r} is not a valid integer.")


def _float(value):
    """A number; a JSON boolean is not one."""
    if not isinstance(value, bool):
        try:
            return float(value)
        except (TypeError, ValueError, OverflowError):
            pass
    raise ValueError(f"{value!r} is not a valid float.")


def _text(value):
    if isinstance(value, str):
        return value
    raise ValueError(f"{value!r} is not a valid string.")


def _path(value):
    """The path of a file that exists."""
    if not os.path.exists(_text(value)):
        raise ValueError(f"Path {value!r} does not exist.")
    return value


def _flag(value):
    """An on/off option: set by its flag, or a JSON boolean in --config."""
    if isinstance(value, bool):
        return value
    raise ValueError(f"{value!r} is not a valid boolean.")


_METAVARS = {_integer: "INTEGER", _float: "FLOAT", _text: "TEXT", _path: "PATH"}
_REQUIRED = object()  # the default of an option that must be given


class _Option(NamedTuple):
    """One option: ``--flag`` on the command line, ``name`` in --config and
    as the command's keyword."""

    flag: str
    convert: Callable[[object], object]
    default: object
    help: str
    choices: tuple = ()
    dest: str = ""  # the name, when it is not the flag's

    @property
    def name(self):
        return self.dest or self.flag[2:].replace("-", "_")


_CONFIG = _Option("--config", _path, None,
                  "JSON file with the same keys as the flags; flags take precedence.")

_SHARED = (
    _Option("--data", _path, _REQUIRED, "CSV data file."),
    _Option("--schema", _path, _REQUIRED, "Schema sidecar JSON."),
    _Option("--constraints", _path, None, "Feature-model rule file used to cull invalid plans."),
    _Option("--alpha", _integer, None,
            "Minimum split size for clustering and trees [default: ceil(sqrt(N))]."),
    _Option("--beta", _float, 0.33,
            "Fraction of most-informative features kept by cdfs/bic, in (0, 1]."),
    _Option("--gamma", _float, 0.5,
            "xtree sibling threshold: score < gamma * current score; finite and above 0, "
            "and above 1 a worse sibling qualifies."),
    _Option("--seed", _integer, 1, "Seed of the split, the forest and the planners."),
    _Option("--split-mode", _text, "random-half", "How train and test rows are chosen.",
            choices=("random-half", "by-version")),
    _Option("--train-versions", _text, "", "Comma-separated versions (by-version mode)."),
    _Option("--test-versions", _text, "", "Comma-separated versions (by-version mode)."),
    _Option("--trees", _integer, 100, "Forest size."),
    _Option("--tune", _flag, False, "Tune forest hyperparameters with differential evolution."),
    _Option("--smote", _flag, False, "SMOTE-balance the training data (classification only).",
            dest="use_smote"),
)


def _prepare(data, schema, constraints, alpha, beta, gamma, seed, split_mode,
             train_versions, test_versions, trees, tune, use_smote):
    """The run's inputs; a data error or a bad value prints one line, exit 1."""
    try:
        if trees < 1:
            raise DataError(f"--trees must be at least 1, not {trees}")
        if seed < 0:
            raise DataError(f"--seed must be at least 0, not {seed}")
        if alpha is not None and alpha < 2:
            raise DataError(f"--alpha must be at least 2, not {alpha}")
        if not 0 < beta <= 1:  # NaN fails too
            raise DataError(f"--beta must be in (0, 1], not {beta}")
        if not 0 < gamma < math.inf:
            raise DataError(f"--gamma must be finite and above 0, not {gamma}")
        feats, class_mode = load_schema(schema)
        ds = load_csv(data, feats, class_mode)
        spec = SplitSpec(
            mode=split_mode,
            train_versions=[v for v in train_versions.split(",") if v],
            test_versions=[v for v in test_versions.split(",") if v],
            seed=seed,
        )
        train, test = split(ds, spec)
        fm = load_feature_model(constraints, ds) if constraints else None
        if use_smote:
            train = smote(train, rng=random.Random(seed))
        if tune:
            params = tune_de(train, seed=seed)
        else:
            params = ForestParams(n_trees=trees, seed=seed)
    except (DataError, OSError) as exc:
        _fail(str(exc))
    return train, test, fm, params, PlannerConfig(alpha=alpha, beta=beta, gamma=gamma)


def _row_indices(rows, n):
    """``--rows`` as test row indices; a bad value is a usage error."""
    if rows == "all":
        return range(n)
    try:
        picked = [int(r) for r in rows.split(",") if r]
    except ValueError:
        _fail(f"--rows takes comma-separated row indices or 'all', not {rows!r}")
    bad = [i for i in picked if not 0 <= i < n]
    if bad:
        _fail(f"--rows {bad} out of range: the test split has rows 0..{n - 1}")
    return picked


def _rank(results, seed):
    """Scott-Knott ranking of the methods with a defined, finite ratio; the
    others are named on stderr."""
    samples = method_samples(results)
    ranked = {s.method for s in samples}
    unranked = [m for m in results if m not in ranked]
    if unranked:
        print(f"not ranked, no defined ratio: {', '.join(unranked)}", file=sys.stderr)
    if not samples:
        sys.exit(EXIT_DATA)
    return scott_knott_rank(samples, random.Random(seed))


def cmd_plan(method, rows, seed, **shared):
    """Print JSON plans for the selected test rows."""
    train, test, fm, params, cfg = _prepare(seed=seed, **shared)
    methods = list(ALL_METHODS[1:]) if method == "all" else [method]
    selected = _row_indices(rows, len(test.rows))
    try:
        arts = RunArtifacts(train, test, cfg, fm, params).for_seed(seed, methods)
    except GateError as exc:
        _fail(str(exc), EXIT_GATE)
    for m in methods:
        for i in selected:
            plan = arts.planners[m](i)
            print(json.dumps({"row": i, **plan.to_json()}, sort_keys=True))


def cmd_eval(methods, repeats, out, fmt, seed, **shared):
    """Run repeated experiments and print the ranked report."""
    method_list = [m for m in methods.split(",") if m]
    bad = [m for m in method_list if m not in ALL_METHODS]
    if bad or not method_list:
        _fail(f"bad methods: {bad or methods!r}")
    if repeats < 1:
        _fail(f"--repeats must be at least 1, not {repeats}")
    train, test, fm, params, cfg = _prepare(seed=seed, **shared)
    try:
        results = run_repeats(train, test, method_list, cfg, n=repeats,
                              base_seed=seed, fm=fm, forest_params=params)
    except GateError as exc:
        _fail(str(exc), EXIT_GATE)
    outdir = Path(out)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
        write_jsonl(results, outdir / "results.jsonl")
        write_csv_summary(results, outdir / "results.csv")
    except OSError as exc:
        _fail(f"--out {out}: cannot write results: {exc.strerror or exc}")
    ranked = _rank(results, seed)
    if fmt == "json":
        print(json.dumps(ranked.to_json(), sort_keys=True))
    elif fmt == "csv":
        print("rank,method,median,iqr")
        for e in ranked.entries:
            print(f"{e.rank},{e.method},{e.median},{e.iqr}")
    else:
        print(render_report(ranked))


def cmd_report(results_path, seed):
    """Rank table, change frequencies and trust summary from saved results."""
    try:
        results = read_jsonl(results_path)
    except (OSError, DataError) as exc:
        _fail(f"cannot read results: {exc}")
    if not results:
        _fail("no results")
    ranked = _rank(results, seed)
    print(render_report(ranked))
    features = sorted({f for rs in results.values() for r in rs for f in r.changed_features})
    print("\nChange frequency (percent of repeats):")
    print("method".ljust(10) + "".join(f"{f:>12}" for f in features) + f"{'mean-frac':>12}")
    for m, rs in results.items():
        if features:
            freq = change_frequency(rs, features)
            cells = "".join(f"{freq.per_feature[f]:>11.0f}%" for f in features)
            print(f"{m:<10}{cells}{freq.mean_fraction:>12.2f}")
        else:
            print(f"{m:<10}{'(no features changed)':>24}")
    print("\nTrust (mean nearest-training distance):")
    for m, rs in results.items():
        before = sum(r.trust_before for r in rs) / len(rs)
        after = sum(r.trust_after for r in rs) / len(rs)
        print(f"{m:<10} before={before:.3f} after={after:.3f}")


# Each command's function and options; plan and eval also read --config.
_COMMANDS = {
    "plan": (cmd_plan, _SHARED + (
        _Option("--method", _text, "xtree", "Planning method, or 'all' for every method.",
                choices=(*ALL_METHODS[1:], "all")),
        _Option("--rows", _text, "all", "Comma-separated test row indices, or 'all'."),
    )),
    "eval": (cmd_eval, _SHARED + (
        _Option("--methods", _text, "cd,cdfs,bic,xtree",
                "Comma-separated methods (identity, cd, cdfs, bic, xtree)."),
        _Option("--repeats", _integer, 40, "Seeded repeats of every method."),
        _Option("--out", _text, "results", "Output directory for JSONL and CSV results."),
        _Option("--format", _text, "text", "Report format.", choices=("text", "json", "csv"),
                dest="fmt"),
    )),
    "report": (cmd_report, (
        _Option("--seed", _integer, 1, "Seed of the ranking's bootstrap."),
    )),
}


class _Parser(argparse.ArgumentParser):
    """argparse as the CLI needs it: a usage error is one ``Error:`` line
    and exit 1 (2 means a failed gate); a prefix of an option is not the
    option; ``--help`` is the only help flag; and an option not on the
    command line is left out of the result, so that --config or its
    default can fill it."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, add_help=False,
                         argument_default=argparse.SUPPRESS, **kwargs)
        # argparse would read "-inf" or "-1,2" as an unknown option, not as
        # the value of the option before it; no option here starts "-<digit>"
        self._negative_number_matcher = re.compile(r"-(\.?\d|inf|nan)", re.IGNORECASE)
        self.add_argument("--help", action="help", help="Show this message and exit.")

    def error(self, message):
        _fail(f"Error: {message}")


def _add_options(parser, options):
    for opt in options:
        if opt.default is _REQUIRED:
            shown = " [required]"
        elif opt.default not in (None, ""):
            shown = f" [default: {opt.default}]"
        else:
            shown = ""
        if opt.convert is _flag:
            parser.add_argument(opt.flag, dest=opt.name, action=argparse.BooleanOptionalAction,
                                help=opt.help + shown)
        else:
            metavar = f"[{'|'.join(opt.choices)}]" if opt.choices else _METAVARS[opt.convert]
            parser.add_argument(opt.flag, dest=opt.name, metavar=metavar, help=opt.help + shown)


def _parser():
    parser = _Parser(prog="xplan",
                     description="Learn and evaluate feature-change plans for tabular project data.")
    commands = parser.add_subparsers(dest="command", title="commands", metavar="COMMAND")
    for name, (run, options) in _COMMANDS.items():
        sub = commands.add_parser(name, help=run.__doc__, description=run.__doc__)
        if run is cmd_report:
            sub.add_argument("results_path", metavar="RESULTS_PATH")
        else:
            _add_options(sub, [_CONFIG])
        _add_options(sub, options)
    return parser


def _value(opt, raw):
    """The option's value from its flag's text or its --config value; None
    takes the default."""
    if raw is None:
        if opt.default is _REQUIRED:
            _fail(f"Error: Missing option '{opt.flag}'.")
        return opt.default
    try:
        value = opt.convert(raw)
        if opt.choices and value not in opt.choices:
            raise ValueError(f"{value!r} is not one of {', '.join(map(repr, opt.choices))}.")
    except ValueError as exc:
        _fail(f"Error: Invalid value for '{opt.flag}': {exc}")
    return value


def _read_config(path, options):
    """--config's option values, keyed by option name."""
    try:
        with open(path) as fh:
            values = json.load(fh)
    except (OSError, ValueError):
        values = None
    if not isinstance(values, dict):
        _fail(f"--config {path}: not a readable JSON object of option values")
    unknown = sorted(set(values) - {opt.name for opt in options})
    if unknown:
        _fail(f"--config {path}: unknown keys: {', '.join(unknown)}")
    return values


def main(argv=None):
    """Run the ``xplan`` command line (``sys.argv[1:]`` by default).
    Returns on success; an error exits with its code."""
    parser = _parser()
    args = vars(parser.parse_args(argv))
    command = args.pop("command")
    if command is None:  # no arguments: the help, as a usage error
        parser.print_help(sys.stderr)
        sys.exit(EXIT_DATA)
    run, options = _COMMANDS[command]
    config = _read_config(_value(_CONFIG, args.pop("config")), options) if "config" in args else {}
    for opt in options:
        args[opt.name] = _value(opt, args.get(opt.name, config.get(opt.name)))
    run(**args)


def _main_as_click_command(args=None, **_click_options):
    """``main`` under click's ``Command.main(args=..., prog_name=...,
    standalone_mode=...)`` call form, which the traced evals of
    ``bench/child.py`` use."""
    main(args)


main.main = _main_as_click_command


if __name__ == "__main__":
    main()
