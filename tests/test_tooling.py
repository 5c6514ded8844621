"""The repository's own rules about ``src/``: the benchmark's tracer can
still find every function it wraps, and no module imports another
module's private names."""

import ast
import os
import subprocess
import sys
from pathlib import Path

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


def test_no_private_names_imported_across_modules():
    imported = []
    for path in sorted((ROOT / "src" / "xplan").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "xplan":
                imported += [f"{path.name}: {node.module}.{alias.name}"
                             for alias in node.names if alias.name.startswith("_")]
    assert imported == []
