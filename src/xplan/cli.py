"""Command-line pipeline: plan single rows, evaluate planners, render
reports from saved results.

Exit codes: 0 ok, 1 usage or data error, 2 predictor gate failure.
"""

from __future__ import annotations

import json
import math
import random
import sys
from pathlib import Path

import click

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


def _load_config_file(ctx, _param, value):
    """--config supplies defaults keyed by option name; explicit flags win,
    and a null leaves the option's own default."""
    if value is None:
        return None
    try:
        with open(value) as fh:
            defaults = json.load(fh)
    except (OSError, ValueError):
        defaults = None
    if not isinstance(defaults, dict):
        click.echo(f"--config {value}: not a readable JSON object of option values", err=True)
        sys.exit(EXIT_DATA)
    unknown = sorted(set(defaults) - {p.name for p in ctx.command.params if p.expose_value})
    if unknown:
        click.echo(f"--config {value}: unknown keys: {', '.join(unknown)}", err=True)
        sys.exit(EXIT_DATA)
    given = {k: v for k, v in defaults.items() if v is not None}
    ctx.default_map = {**given, **(ctx.default_map or {})}
    return value


class _Integer(click.types.IntParamType):
    """click's integer, but a --config value that is not a whole number
    (2.5, NaN, Infinity) is a usage error, not truncated nor a traceback."""

    def convert(self, value, param, ctx):
        if isinstance(value, float) and not value.is_integer():
            self.fail(f"{value!r} is not a valid integer.", param, ctx)
        return super().convert(value, param, ctx)


INTEGER = _Integer()

_shared = [
    click.option("--config", type=click.Path(exists=True), callback=_load_config_file,
                 is_eager=True, expose_value=False,
                 help="JSON file with the same keys as the flags; flags take precedence."),
    click.option("--data", required=True, type=click.Path(exists=True), help="CSV data file."),
    click.option("--schema", required=True, type=click.Path(exists=True), help="Schema sidecar JSON."),
    click.option("--constraints", type=click.Path(exists=True), default=None,
                 help="Feature-model rule file used to cull invalid plans."),
    click.option("--alpha", type=INTEGER, default=None,
                 help="Minimum split size for clustering and trees [default: ceil(sqrt(N))]."),
    click.option("--beta", type=float, default=0.33, show_default=True,
                 help="Fraction of most-informative features kept by cdfs/bic, in (0, 1]."),
    click.option("--gamma", type=float, default=0.5, show_default=True,
                 help="xtree sibling threshold: score < gamma * current score; finite and "
                      "above 0, and above 1 a worse sibling qualifies."),
    click.option("--seed", type=INTEGER, default=1, show_default=True),
    click.option("--split-mode", type=click.Choice(["random-half", "by-version"]),
                 default="random-half", show_default=True),
    click.option("--train-versions", default="", help="Comma-separated versions (by-version mode)."),
    click.option("--test-versions", default="", help="Comma-separated versions (by-version mode)."),
    click.option("--trees", type=INTEGER, default=100, show_default=True, help="Forest size."),
    click.option("--tune/--no-tune", default=False, show_default=True,
                 help="Tune forest hyperparameters with differential evolution."),
    click.option("--smote/--no-smote", "use_smote", default=False, show_default=True,
                 help="SMOTE-balance the training data (classification only)."),
]


def shared_options(fn):
    for opt in reversed(_shared):
        fn = opt(fn)
    return fn


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
        click.echo(str(exc), err=True)
        sys.exit(EXIT_DATA)
    return train, test, fm, params, PlannerConfig(alpha=alpha, beta=beta, gamma=gamma)


def _gate_failed(exc):
    click.echo(str(exc), err=True)
    sys.exit(EXIT_GATE)


def _row_indices(rows, n):
    """``--rows`` as test row indices; a bad value is a usage error."""
    if rows == "all":
        return range(n)
    try:
        picked = [int(r) for r in rows.split(",") if r]
    except ValueError:
        click.echo(f"--rows takes comma-separated row indices or 'all', not {rows!r}", err=True)
        sys.exit(EXIT_DATA)
    bad = [i for i in picked if not 0 <= i < n]
    if bad:
        click.echo(f"--rows {bad} out of range: the test split has rows 0..{n - 1}", err=True)
        sys.exit(EXIT_DATA)
    return picked


def _rank(results, seed):
    """Scott-Knott ranking of the methods with a defined ratio; the others
    are named on stderr."""
    unranked = [m for m, rs in results.items() if not any(r.ratio_defined for r in rs)]
    if unranked:
        click.echo(f"not ranked, no defined ratio: {', '.join(unranked)}", err=True)
    samples = method_samples(results)
    if not samples:
        sys.exit(EXIT_DATA)
    return scott_knott_rank(samples, random.Random(seed))


class _Main(click.Group):
    """Exits 1 on click's usage errors too (2 means a failed gate), with one
    ``Error:`` line and no usage text; the group's arguments raise them in
    ``make_context`` and a command's in ``invoke``."""

    def make_context(self, *args, **kwargs):
        return _usage_exit(super().make_context, *args, **kwargs)

    def invoke(self, ctx):
        return _usage_exit(super().invoke, ctx)


def _usage_exit(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except click.exceptions.NoArgsIsHelpError as exc:  # the help text, not an error line
        exc.exit_code = EXIT_DATA
        raise
    except click.UsageError as exc:
        click.echo(f"Error: {exc.format_message()}", err=True)
        sys.exit(EXIT_DATA)


@click.group(cls=_Main)
def main():
    """Learn and evaluate feature-change plans for tabular project data."""


@main.command("plan")
@shared_options
@click.option("--method", default="xtree", show_default=True,
              type=click.Choice(list(ALL_METHODS[1:]) + ["all"]),
              help="Planning method, or 'all' for every method.")
@click.option("--rows", default="all", show_default=True,
              help="Comma-separated test row indices, or 'all'.")
def cmd_plan(method, rows, seed, **shared):
    """Print JSON plans for the selected test rows."""
    train, test, fm, params, cfg = _prepare(seed=seed, **shared)
    methods = list(ALL_METHODS[1:]) if method == "all" else [method]
    selected = _row_indices(rows, len(test.rows))
    try:
        arts = RunArtifacts(train, test, cfg, fm, params).for_seed(seed, methods)
    except GateError as exc:
        _gate_failed(exc)
    for m in methods:
        for i in selected:
            plan = arts.planners[m](i)
            click.echo(json.dumps({"row": i, **plan.to_json()}, sort_keys=True))


@main.command("eval")
@shared_options
@click.option("--methods", default="cd,cdfs,bic,xtree", show_default=True,
              help="Comma-separated methods (identity, cd, cdfs, bic, xtree).")
@click.option("--repeats", type=INTEGER, default=40, show_default=True)
@click.option("--out", type=click.Path(), default="results", show_default=True,
              help="Output directory for JSONL and CSV results.")
@click.option("--format", "fmt", type=click.Choice(["text", "json", "csv"]),
              default="text", show_default=True)
def cmd_eval(methods, repeats, out, fmt, seed, **shared):
    """Run repeated experiments and print the ranked report."""
    method_list = [m for m in methods.split(",") if m]
    bad = [m for m in method_list if m not in ALL_METHODS]
    if bad or not method_list:
        click.echo(f"bad methods: {bad or methods!r}", err=True)
        sys.exit(EXIT_DATA)
    if repeats < 1:
        click.echo(f"--repeats must be at least 1, not {repeats}", err=True)
        sys.exit(EXIT_DATA)
    train, test, fm, params, cfg = _prepare(seed=seed, **shared)
    try:
        results = run_repeats(train, test, method_list, cfg, n=repeats,
                              base_seed=seed, fm=fm, forest_params=params)
    except GateError as exc:
        _gate_failed(exc)
    outdir = Path(out)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
        write_jsonl(results, outdir / "results.jsonl")
        write_csv_summary(results, outdir / "results.csv")
    except OSError as exc:
        click.echo(f"--out {out}: cannot write results: {exc.strerror or exc}", err=True)
        sys.exit(EXIT_DATA)
    ranked = _rank(results, seed)
    if fmt == "json":
        click.echo(json.dumps(ranked.to_json(), sort_keys=True))
    elif fmt == "csv":
        click.echo("rank,method,median,iqr")
        for e in ranked.entries:
            click.echo(f"{e.rank},{e.method},{e.median},{e.iqr}")
    else:
        click.echo(render_report(ranked))


@main.command("report")
@click.argument("results_path", type=click.Path())
@click.option("--seed", type=INTEGER, default=1, show_default=True)
def cmd_report(results_path, seed):
    """Rank table, change frequencies and trust summary from saved results."""
    try:
        results = read_jsonl(results_path)
    except (OSError, DataError) as exc:
        click.echo(f"cannot read results: {exc}", err=True)
        sys.exit(EXIT_DATA)
    if not results:
        click.echo("no results", err=True)
        sys.exit(EXIT_DATA)
    ranked = _rank(results, seed)
    click.echo(render_report(ranked))
    features = sorted({f for rs in results.values() for r in rs for f in r.changed_features})
    click.echo("\nChange frequency (percent of repeats):")
    header = "method".ljust(10) + "".join(f"{f:>12}" for f in features) + f"{'mean-frac':>12}"
    click.echo(header)
    for m, rs in results.items():
        if features:
            freq = change_frequency(rs, features)
            cells = "".join(f"{freq.per_feature[f]:>11.0f}%" for f in features)
            click.echo(f"{m:<10}{cells}{freq.mean_fraction:>12.2f}")
        else:
            click.echo(f"{m:<10}{'(no features changed)':>24}")
    click.echo("\nTrust (mean nearest-training distance):")
    for m, rs in results.items():
        before = sum(r.trust_before for r in rs) / len(rs)
        after = sum(r.trust_after for r in rs) / len(rs)
        click.echo(f"{m:<10} before={before:.3f} after={after:.3f}")


if __name__ == "__main__":
    main()
