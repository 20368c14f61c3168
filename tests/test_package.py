"""The public surface: every exported name exists, and so does every
name the benchmark's span tracer patches; importing the package stays
light."""

from __future__ import annotations

import ast
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import abcsmc

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
PACKAGE = Path(abcsmc.__file__).resolve().parent


def test_all_exports_resolve():
    missing = [name for name in abcsmc.__all__ if not hasattr(abcsmc, name)]
    assert missing == []
    assert len(set(abcsmc.__all__)) == len(abcsmc.__all__)


def test_import_leaves_out_scipy_stats():
    # scipy.stats alone takes about half a second to import
    env = {**os.environ, "PYTHONPATH": str(Path(abcsmc.__file__).resolve().parents[1])}
    code = "import sys, abcsmc; print('scipy.stats' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"


def test_tracer_targets_resolve():
    # perfbench/run.py --trace 1 fails mid-run if a refactor moves or
    # renames a function or method the tracer patches
    spec = importlib.util.spec_from_file_location("abcsmc_bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [
        f"{mod}.{attr}"
        for mod, attr in tracer.FUNCTIONS
        if not callable(getattr(importlib.import_module(f"abcsmc.{mod}"), attr, None))
    ] + [
        f"{mod}.{cls}.{attr}"
        for mod, cls, attr in tracer.METHODS
        if attr not in vars(getattr(importlib.import_module(f"abcsmc.{mod}"), cls))
    ]
    assert missing == []


def _unused_imports(source: str) -> list[str]:
    """Names a module imports and never reads, quoted annotations included."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    annotations = [
        node.annotation for node in ast.walk(tree) if isinstance(node, (ast.arg, ast.AnnAssign))
    ] + [node.returns for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]
    for ann in filter(None, annotations):
        for node in ast.walk(ann):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                quoted = ast.parse(node.value, mode="eval")
                used.update(n.id for n in ast.walk(quoted) if isinstance(n, ast.Name))
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_modules_use_what_they_import():
    # __init__.py imports names to re-export them
    unused = {
        path.name: names
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
        and (names := _unused_imports(path.read_text(encoding="utf-8")))
    }
    assert unused == {}


def test_unused_import_check_flags_a_stray_name():
    source = "import json\nimport numpy as np\nfrom .x import A, B\n\ndef f(a: 'A'):\n    return np\n"
    assert _unused_imports(source) == ["json (line 1)", "B (line 3)"]
