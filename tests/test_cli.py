"""Command-line interface: exit codes, override precedence, artifacts."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from abcsmc.cli import EXIT_CONFIG, EXIT_OK, EXIT_RUNTIME, main

CONFIG = """
sampler = self-calibrated
n = 300
epsilon_target = 0.09
seed = 9
replicates = 1
"""


@pytest.fixture()
def cfg_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(CONFIG)
    return str(path)


def test_run_success(cfg_file, tmp_path, capsys):
    out = tmp_path / "artifacts"
    code = main(["run", cfg_file, "--out", str(out)])
    assert code == EXIT_OK
    printed = capsys.readouterr().out.strip().splitlines()
    assert sorted(os.path.basename(p) for p in printed) == [
        "particles_1.csv",
        "summary.csv",
        "trace_1.json",
    ]
    assert all(os.path.exists(p) for p in printed)


def test_config_error_exit(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("sampler = reject\nseed = 1\n")  # missing n_prior
    code = main(["run", str(bad)])
    assert code == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def test_infinite_halfwidth_is_config_error(tmp_path, capsys):
    # an infinite prior box would fail every replicate after parsing
    cfg = tmp_path / "wide.cfg"
    cfg.write_text(CONFIG + "prior_halfwidth = inf\n")
    out = tmp_path / "artifacts"
    assert main(["run", str(cfg), "--out", str(out)]) == EXIT_CONFIG
    assert "halfwidth" in capsys.readouterr().err
    assert not out.exists()


def test_missing_file_is_config_error(tmp_path):
    assert main(["run", str(tmp_path / "absent.cfg")]) == EXIT_CONFIG


def test_runtime_error_exit(tmp_path, capsys):
    cfg = tmp_path / "infeasible.cfg"
    cfg.write_text(
        "sampler = naive-smc\nn = 40\nschedule = 0.000000001\nseed = 2\n"
    )
    out = tmp_path / "partial"
    code = main(["run", str(cfg), "--out", str(out)])
    assert code == EXIT_RUNTIME
    printed = capsys.readouterr()
    assert "run failed: ScheduleInfeasibleError" in printed.err
    # the preserved artifacts are listed in write order, and nothing else
    written = [str(out / "trace_1.json.partial"), str(out / "summary.csv.partial")]
    assert printed.out.splitlines() == written
    assert sorted(os.listdir(out)) == sorted(os.path.basename(p) for p in written)


def test_seed_env_override(cfg_file, tmp_path, monkeypatch, capsys):
    # flags are the only override of the file; ABC_SEED is not read
    monkeypatch.setenv("ABC_SEED", "777")
    out = tmp_path / "env"
    assert main(["run", cfg_file, "--out", str(out)]) == EXIT_OK
    capsys.readouterr()
    payload = json.loads((out / "trace_1.json").read_text())
    assert payload["config"]["seed"] == 9


def test_invalid_env_is_config_error(cfg_file, tmp_path, monkeypatch, capsys):
    # an invalid ABC_WORKERS is never read; the same mistake made by flag is
    # a config error
    monkeypatch.setenv("ABC_WORKERS", "many")
    assert main(["run", cfg_file, "--out", str(tmp_path / "env")]) == EXIT_OK
    capsys.readouterr()
    code = main(["run", cfg_file, "--workers", "0", "--out", str(tmp_path / "flag")])
    assert code == EXIT_CONFIG
    assert "workers" in capsys.readouterr().err


def test_seed_flag_overrides_file(cfg_file, tmp_path, capsys):
    out = tmp_path / "flag"
    assert main(["run", cfg_file, "--seed", "42", "--out", str(out)]) == EXIT_OK
    capsys.readouterr()
    payload = json.loads((out / "trace_1.json").read_text())
    assert payload["config"]["seed"] == 42


def test_negative_seed_flag_rejected(cfg_file, tmp_path):
    assert main(["run", cfg_file, "--seed", "-1", "--out", str(tmp_path / "x")]) == EXIT_CONFIG


def test_gain_curve_command(cfg_file, tmp_path, capsys):
    out = tmp_path / "curve"
    code = main(["gain-curve", cfg_file, "--out", str(out)])
    assert code == EXIT_OK
    printed = capsys.readouterr().out.strip()
    assert printed.endswith("gain_by_iter.csv")
    assert os.path.exists(printed)


def test_gain_curve_wrong_sampler(tmp_path):
    cfg = tmp_path / "r.cfg"
    cfg.write_text("sampler = reject\nn_prior = 50\nepsilon_target = 0.2\nseed = 1\n")
    assert main(["gain-curve", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_CONFIG


def test_table1_command(tmp_path, capsys):
    a = tmp_path / "reject.cfg"
    a.write_text("sampler = reject\nn_prior = 2000\nepsilon_target = 0.2\nseed = 4\n")
    b = tmp_path / "sc.cfg"
    b.write_text(
        "sampler = self-calibrated\nn = 300\nepsilon_target = 0.2\nseed = 4\n"
    )
    out = tmp_path / "tbl"
    code = main(["table1", str(a), str(b), "--out", str(out)])
    assert code == EXIT_OK
    table = capsys.readouterr().out.strip()
    assert table.endswith("table1.csv")
    lines = open(table, encoding="utf-8").read().strip().splitlines()
    assert lines[0] == "sampler,replicates,cost,ess"
    assert len(lines) == 3


def test_console_script_installed(cfg_file, tmp_path):
    out = tmp_path / "script"
    proc = subprocess.run(
        [sys.executable, "-m", "abcsmc.cli", "run", cfg_file, "--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert (out / "summary.csv").exists()
