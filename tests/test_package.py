"""The public surface: every exported name exists, and so does every
name the benchmark's span tracer patches; importing the package stays
light."""

from __future__ import annotations

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import abcsmc

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


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
