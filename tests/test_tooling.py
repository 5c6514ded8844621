"""The repository's own rules about ``src/``: the benchmark's tracer can
still find every function it wraps, the traced benchmark still reports
every per-layer metric, no module imports another module's private names,
no function takes a parameter it never reads, and every third-party import
is a declared dependency and the other way round."""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_bench_tracer_installs_on_src():
    # the tracer wraps functions by module and name, so deleting or renaming
    # one breaks ``bench/run.py --trace 1``; it installs in a child process,
    # as the benchmark's child does, so this process keeps the real functions
    code = "import sys; sys.path.insert(0, 'bench'); from tracer import Tracer; Tracer().install()"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_traced_benchmark_reports_every_layer_metric():
    # the benchmark's last line is its result: a per-call percentile is
    # written only for a span called often enough, and json.dumps writes a
    # non-finite metric as a bare NaN, which is not JSON; one untraced and
    # one traced eval of planted-600
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "planted-600", "--seed", "1",
                           "--seconds", "0", "--trace", "1"],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr

    def non_finite(token):
        raise ValueError(f"non-finite metric: {token}")

    result = json.loads(proc.stdout.strip().splitlines()[-1], parse_constant=non_finite)
    assert result["correct"]
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert declared
    assert [m["name"] for m in declared if m["name"] not in result["metrics"]] == []


def test_no_private_names_imported_across_modules():
    imported = []
    for path in sorted((ROOT / "src" / "xplan").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "xplan":
                imported += [f"{path.name}: {node.module}.{alias.name}"
                             for alias in node.names if alias.name.startswith("_")]
    assert imported == []


def test_no_unused_parameters_in_src():
    # a parameter of a def or lambda that is never read is dead; self, cls
    # and names that start with "_" (arguments a caller's protocol imposes)
    # are exempt
    unused = []
    for path in sorted((ROOT / "src" / "xplan").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            args = node.args
            params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
            params += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
            body = node.body if isinstance(node.body, list) else [node.body]  # a lambda's is one expression
            read = {n.id for stmt in body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            name = getattr(node, "name", "lambda")
            unused += [f"{path.name}:{node.lineno} {name}({p})" for p in params
                       if p not in read and p not in ("self", "cls") and not p.startswith("_")]
    assert unused == []


def test_src_imports_only_the_stdlib_and_declared_dependencies():
    # a third-party import must be a runtime dependency in pyproject.toml,
    # and a dependency must be imported somewhere, so that none is added or
    # left behind unnoticed
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        declared = {re.match(r"[\w.-]+", d).group().lower().replace("-", "_")
                    for d in tomllib.load(fh)["project"]["dependencies"]}
    imported = set()
    for path in sorted((ROOT / "src").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    third_party = imported - set(sys.stdlib_module_names) - {"xplan"}
    assert sorted(third_party - declared) == []
    assert sorted(declared - third_party) == []
