"""Tests of the benchmark's own machinery: python3 -m pytest perfbench -q"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
from types import SimpleNamespace

import numpy as np

import run
from tracer import Tracer

config, oracle, runner = run.import_library()
from abcsmc import adaptive, model, rng, samplers, trace  # noqa: E402


def _small_reject(tmp_path, workers: int):
    cfg = config.parse_config(
        "sampler = reject\nn_prior = 2000\nepsilon_target = 0.5\n"
        f"replicates = 4\nworkers = {workers}\nseed = 5\n"
    )
    return runner.run_experiment(cfg, str(tmp_path / f"w{workers}"))


def test_uninstall_restores_every_binding():
    before = (samplers.simulate, adaptive.simulate, adaptive._draw_proposal,
              runner.toy_accept_prob, rng.StreamCursor.seek, trace.SimCounter.bump)
    tracer = Tracer()
    with tracer.installed():
        assert samplers.simulate is not before[0]
        assert adaptive.simulate is samplers.simulate
        assert rng.StreamCursor.seek is not before[4]
    after = (samplers.simulate, adaptive.simulate, adaptive._draw_proposal,
             runner.toy_accept_prob, rng.StreamCursor.seek, trace.SimCounter.bump)
    assert after == before
    assert model.simulate is samplers.simulate


def test_threaded_spans_nest_per_thread(tmp_path):
    tracer = Tracer()
    with tracer.installed():
        traced = _small_reject(tmp_path, workers=2)
    summary = tracer.summary()
    assert all(v["min_self_s"] >= 0 for v in summary.values())
    assert summary["model.simulate"]["calls"] == 4 * 2000
    assert summary["trace.bump"]["calls"] == 4 * 2000
    # simulate's only traced child is bump, so its child coverage is bump's time
    child = summary["model.simulate"]["s"] - summary["model.simulate"]["self_s"]
    assert np.isclose(child, summary["trace.bump"]["s"], rtol=1e-9, atol=1e-9)
    sp = tracer.spans()
    has_parent = sp["parent"] >= 0
    assert np.array_equal(sp["thread"][has_parent], sp["thread"][sp["parent"][has_parent]])
    assert len(np.unique(sp["thread"][sp["name"] == tracer.names.index("runner.run_replicate")])) == 2

    untraced = _small_reject(tmp_path, workers=1)
    for a, b in zip(traced.results, untraced.results):
        assert np.array_equal(a.particles.thetas, b.particles.thetas)


def _layer_split(monkeypatch, workers: int) -> dict[str, float]:
    monkeypatch.setitem(
        run.WORKLOADS, "reject-pool",
        "sampler = reject\nn_prior = 10000\nepsilon_target = 0.09\n"
        f"replicates = 4\nworkers = {workers}\n",
    )
    session = run.Session("reject-pool", 5)
    try:
        metrics = run.per_layer(session, 0.0)
    finally:
        session.close()
    assert session.failed == 0, session.errors
    return metrics


def test_pooled_layer_split_matches_one_worker(monkeypatch):
    pooled = _layer_split(monkeypatch, workers=2)
    serial = _layer_split(monkeypatch, workers=1)
    # GIL waits of a pool would inflate slot_keys a hundredfold
    assert pooled["rng.slot_keys.s"] < 3 * serial["rng.slot_keys.s"] + 0.005
    assert pooled["model.simulate.calls"] == serial["model.simulate.calls"] == 4 * 10000
    assert pooled["runner.overlap"] > 1.2 > 1.0 > serial["runner.overlap"]


def test_checker_flags_broken_replicates():
    cfg = config.parse_config(run.config_text("selfcal", 3))
    checker = run.Checker("selfcal", cfg, oracle)
    parts = model.ParticleArray(np.zeros((10, 1)), np.zeros((10, 1)), np.full(10, 0.05))
    good_trace = SimpleNamespace(
        init={"batches_used": 2}, iterations=[None] * 3, total_sims=5 * cfg.n, n_final=10
    )
    assert checker.problems(SimpleNamespace(trace=good_trace, particles=parts)) == []
    bad_trace = SimpleNamespace(**{**vars(good_trace), "total_sims": 5 * cfg.n + 1})
    far = model.ParticleArray(np.full((10, 1), 0.5), np.zeros((10, 1)), np.full(10, 0.2))
    problems = checker.problems(SimpleNamespace(trace=bad_trace, particles=far))
    assert len(problems) == 3


def test_refuses_to_run_without_sources(tmp_path):
    bench_dir = tmp_path / "perfbench"
    bench_dir.mkdir()
    for name in ("run.py", "tracer.py"):
        shutil.copy(os.path.join(run.HERE, name), bench_dir / name)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "selfcal", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
