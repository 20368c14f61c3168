"""The public surface: every exported name exists, and so does every
name the benchmark's span tracer patches; importing the package stays
light; no module keeps an import or a private name that nothing reads."""

from __future__ import annotations

import ast
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import abcsmc

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"
PACKAGE = Path(abcsmc.__file__).resolve().parent


def test_all_exports_resolve():
    missing = [name for name in abcsmc.__all__ if not hasattr(abcsmc, name)]
    assert missing == []
    assert len(set(abcsmc.__all__)) == len(abcsmc.__all__)


SCIPY_LOADED = "[m for m in sys.modules if m.split('.')[0] == 'scipy']"


def _fresh_interpreter(code: str, cwd: Path | None = None) -> str:
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, cwd=cwd, capture_output=True, text=True,
        check=True,
    )
    return out.stdout.strip().splitlines()[-1]


def test_import_leaves_out_scipy():
    # scipy's special, integrate and optimize took about 0.5 s of a 0.7 s
    # import; the library needs none of them
    assert _fresh_interpreter(f"import sys, abcsmc; print({SCIPY_LOADED})") == "[]"


def test_oracle_leaves_out_scipy():
    # the quadrature tables and quantiles run on numpy alone, so
    # perfbench's checker and the reports pay no scipy import either
    code = (
        "import sys\n"
        "from abcsmc import oracle\n"
        "oracle.toy_posterior_quantile(0.5)\n"
        "oracle.toy_posterior_quantile(0.75, epsilon=0.09)\n"
        "oracle.toy_posterior_cdf(0.1)\n"
        "oracle.toy_posterior_pdf(0.1)\n"
        "oracle.toy_posterior_functional('variance')\n"
        f"print({SCIPY_LOADED})\n"
    )
    assert _fresh_interpreter(code) == "[]"


def test_cli_run_leaves_out_scipy(tmp_path):
    # a run computes its gain from the oracle's closed form, so importing
    # scipy lazily where the gain needs it would fail here
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "sampler = self-calibrated\nn = 200\nepsilon_target = 0.09\nseed = 5\n"
        "replicates = 1\nworkers = 1\n"
    )
    code = (
        "import json, sys\n"
        "from abcsmc.cli import main\n"
        "code = main(['run', 'run.cfg', '--out', 'out'])\n"
        "gain = json.load(open('out/trace_1.json'))['gain']\n"
        f"print(code, gain is not None and gain > 0, {SCIPY_LOADED})\n"
    )
    assert _fresh_interpreter(code, cwd=tmp_path) == "0 True []"


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


def _private_definitions(source: str) -> dict[str, int]:
    """Private module-level names a module defines by ``def``, ``class`` or
    assignment, with their lines."""
    defined = {}
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                defined.setdefault(name, node.lineno)
    return defined


def _read_names(source: str) -> set[str]:
    """Names a module reads: loaded names and attributes, imported names,
    and strings that are identifiers, such as monkeypatch targets."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
        elif isinstance(node, ast.alias):
            read.add(node.name.rsplit(".", 1)[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                read.add(node.value)
    return read


def test_private_names_are_read():
    # a helper or constant left behind by a refactor shows up here
    sources = {
        path: path.read_text(encoding="utf-8")
        for top in (PACKAGE, ROOT / "tests", ROOT / "perfbench")
        for path in sorted(top.rglob("*.py"))
    }
    read = set().union(*map(_read_names, sources.values()))
    unread = [
        f"{path.name}: {name} (line {line})"
        for path in sorted(PACKAGE.glob("*.py"))
        for name, line in _private_definitions(sources[path]).items()
        if name not in read
    ]
    assert unread == []


def test_private_name_check_flags_an_unread_name():
    source = "_A = 1\n_B: int = _A\ndef _f():\n    pass\nclass _C:\n    pass\n__all__ = []\n"
    assert _private_definitions(source) == {"_A": 1, "_B": 2, "_f": 3, "_C": 5}
    read = _read_names(source + "m._f()\nsetattr(m, '_C', 0)\nm._B = 2\n")
    assert [name for name in _private_definitions(source) if name not in read] == ["_B"]
