"""Experiment runner: artifact layout, reproducibility across reruns and
worker counts, failure handling, and the two report generators."""

from __future__ import annotations

import json
import os
from types import SimpleNamespace

import numpy as np
import pytest

from abcsmc import (
    BudgetExceededError,
    ConfigError,
    DegenerateArrayError,
    ParticleArray,
    RunConfig,
    ScheduleInfeasibleError,
    gain_curve,
    gain_factor,
    run_experiment,
    run_replicate,
    table1_report,
    toy_accept_prob,
    validate_config,
)
from abcsmc import runner

_fmt = runner._fmt


def _sc_cfg(**kw):
    base = dict(
        sampler="self-calibrated",
        n=400,
        epsilon_target=0.09,
        seed=5,
        replicates=2,
    )
    base.update(kw)
    cfg = RunConfig(**base)
    validate_config(cfg)
    return cfg


def _read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _summary_minus_wall(text):
    return [line.rsplit(",", 1)[0] for line in text.strip().splitlines()]


@pytest.fixture(scope="module")
def sc_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("sc")
    cfg = _sc_cfg()
    output = run_experiment(cfg, str(out))
    return cfg, out, output


@pytest.fixture(scope="module")
def curve(tmp_path_factory):
    out = tmp_path_factory.mktemp("curve")
    cfg = _sc_cfg(n=500, replicates=1, seed=31)
    path = gain_curve(cfg, str(out))
    trace = json.loads(_read(str(out / "trace_1.json")))
    rows = [line.split(",") for line in _read(path).strip().splitlines()]
    return cfg, trace, rows[0], rows[1:]


@pytest.fixture(scope="module")
def table1_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("table1")
    reject = RunConfig(
        sampler="reject", n_prior=5000, epsilon_target=0.2, seed=21, replicates=2
    )
    adaptive = _sc_cfg(epsilon_target=0.2, seed=21, replicates=2)
    for c in (reject, adaptive):
        validate_config(c)
    path = table1_report([reject, adaptive], str(out))
    return [reject, adaptive], out, path


def _traces(out, replicates):
    return [json.loads(_read(str(out / f"trace_{r}.json"))) for r in range(1, replicates + 1)]


class TestRunExperiment:
    def test_artifact_layout(self, sc_run):
        _, out, output = sc_run
        names = sorted(os.path.basename(p) for p in output.paths)
        assert names == [
            "particles_1.csv",
            "particles_2.csv",
            "summary.csv",
            "trace_1.json",
            "trace_2.json",
        ]
        for p in output.paths:
            assert os.path.exists(p)

    def test_summary_matches_traces(self, sc_run):
        _, out, output = sc_run
        lines = _read(str(out / "summary.csv")).strip().splitlines()
        assert lines[0] == "replicate,total_sims,final_eps,ess,gain,iterations,wall_ms"
        assert len(lines) == 3
        for res, line in zip(output.results, lines[1:]):
            fields = line.split(",")
            assert int(fields[0]) == res.replicate
            assert int(fields[1]) == res.trace.total_sims
            assert float(fields[2]) == res.trace.final_epsilon
            assert float(fields[3]) == res.trace.final_ess
            assert int(fields[5]) == len(res.trace.iterations)

    def test_particles_csv_shape(self, sc_run):
        _, out, output = sc_run
        lines = _read(str(out / "particles_1.csv")).strip().splitlines()
        assert lines[0] == "theta_1,z_1,dist,weight"
        n_final = output.results[0].trace.n_final
        assert len(lines) == n_final + 1
        first = lines[1].split(",")
        assert len(first) == 4
        assert float(first[3]) == pytest.approx(1.0 / n_final)
        assert float(first[2]) <= 0.09

    def test_trace_json_round_trip(self, sc_run):
        _, out, output = sc_run
        payload = json.loads(_read(str(out / "trace_2.json")))
        assert payload == output.results[1].trace.to_dict()
        assert payload["config"]["replicate"] == 2
        assert payload["config"]["seed"] == 5

    def test_rerun_is_byte_identical_except_wall_clock(self, sc_run, tmp_path):
        cfg, out, _ = sc_run
        run_experiment(cfg, str(tmp_path))
        for name in ("particles_1.csv", "particles_2.csv", "trace_1.json", "trace_2.json"):
            assert _read(str(tmp_path / name)) == _read(str(out / name))
        assert _summary_minus_wall(_read(str(tmp_path / "summary.csv"))) == (
            _summary_minus_wall(_read(str(out / "summary.csv")))
        )

    def test_worker_count_does_not_change_results(self, sc_run, tmp_path):
        cfg, out, _ = sc_run
        cfg4 = _sc_cfg(workers=4, replicates=2)
        run_experiment(cfg4, str(tmp_path))
        for name in ("particles_1.csv", "particles_2.csv", "trace_1.json", "trace_2.json"):
            assert _read(str(tmp_path / name)) == _read(str(out / name))

    @pytest.mark.parametrize(
        "kw, key",
        [
            (dict(sampler="reject", n_prior=10, seed=0), "epsilon_target"),
            (dict(sampler="self-calibrated", n=100, epsilon_target=0.09), "seed"),
            (dict(sampler="self-calibrated", n=100, epsilon_target=0.09, seed=0, workers=0),
             "workers"),
        ],
        ids=["no-tolerance", "no-seed", "zero-workers"],
    )
    def test_invalid_config_fails_before_any_work(self, tmp_path, kw, key):
        out = tmp_path / "out"
        with pytest.raises(ConfigError, match=key):
            run_experiment(RunConfig(**kw), str(out))
        assert not out.exists()

    def test_zero_replicates(self, tmp_path):
        cfg = _sc_cfg(replicates=0)
        output = run_experiment(cfg, str(tmp_path))
        assert output.results == []
        assert _read(str(tmp_path / "summary.csv")).strip().splitlines() == [
            "replicate,total_sims,final_eps,ess,gain,iterations,wall_ms"
        ]

    def test_failures_leave_partial_artifacts(self, tmp_path):
        cfg = RunConfig(
            sampler="naive-smc",
            n=50,
            schedule=[1e-9],  # nothing survives the only tolerance
            seed=3,
            replicates=2,
        )
        validate_config(cfg)
        with pytest.raises(ScheduleInfeasibleError):
            run_experiment(cfg, str(tmp_path))
        names = sorted(os.listdir(tmp_path))
        assert names == [
            "summary.csv.partial",
            "trace_1.json.partial",
            "trace_2.json.partial",
        ]
        payload = json.loads(_read(str(tmp_path / "trace_1.json.partial")))
        assert payload["error"]["type"] == "ScheduleInfeasibleError"
        assert payload["replicate"] == 1

    def test_paths_are_in_write_order(self, sc_run):
        _, out, output = sc_run
        assert output.paths == [
            str(out / name)
            for name in (
                "particles_1.csv",
                "trace_1.json",
                "particles_2.csv",
                "trace_2.json",
                "summary.csv",
            )
        ]

    def test_one_failing_replicate(self, tmp_path, monkeypatch):
        # A failing run raises instead of returning, and the error carries
        # the path list, which follows the order of the writes.
        cfg = _sc_cfg(replicates=3, workers=2)
        real = runner.run_replicate

        def flaky(cfg, r):
            if r == 2:
                partial = SimpleNamespace(batches_used=7, epsilon0=0.5)
                raise BudgetExceededError("cap hit", partial=partial)
            return real(cfg, r)

        written = []

        def recording_open(path, mode="r", *args, **kwargs):
            if "w" in mode:
                written.append(os.path.basename(path))
            return open(path, mode, *args, **kwargs)

        monkeypatch.setattr(runner, "run_replicate", flaky)
        monkeypatch.setattr(runner, "open", recording_open, raising=False)
        with pytest.raises(BudgetExceededError, match="cap hit") as raised:
            run_experiment(cfg, str(tmp_path))
        assert written == [
            "particles_1.csv",
            "trace_1.json",
            "particles_3.csv",
            "trace_3.json",
            "trace_2.json.partial",
            "summary.csv.partial",
        ]
        assert raised.value.paths == [str(tmp_path / name) for name in written]
        payload = {
            "config": cfg.to_dict(),
            "error": {"type": "BudgetExceededError", "message": "cap hit"},
            "partial": {"batches_used": 7, "epsilon0": 0.5},
            "replicate": 2,
        }
        assert _read(str(tmp_path / "trace_2.json.partial")) == (
            json.dumps(payload, indent=2, sort_keys=True) + "\n"
        )
        lines = _read(str(tmp_path / "summary.csv.partial")).splitlines()
        assert [line.split(",")[0] for line in lines[1:]] == ["1", "3"]


class TestExactText:
    """The small CSVs hold exactly ``_fmt`` of each value: ``3`` and not
    ``3.0`` for an integer, ``nan`` for a missing value, the sampler
    name as it is."""

    def test_summary_rows(self, sc_run):
        _, out, output = sc_run
        lines = _read(str(out / "summary.csv")).splitlines()
        assert len(lines) == len(output.results) + 1
        for res, trace, line in zip(output.results, _traces(out, 2), lines[1:]):
            total_sims = trace["sim_counts"]["total"]
            values = [
                res.replicate,
                total_sims,
                trace["final_epsilon"],
                trace["final_ess"],
                trace["gain"],
                len(trace["iterations"]),
                res.wall_ms,
            ]
            assert line == ",".join(_fmt(v) for v in values)
            fields = line.split(",")
            assert fields[1] == str(total_sims) and fields[5] == str(len(trace["iterations"]))

    def test_table1_rows(self, table1_run):
        cfgs, out, path = table1_run
        lines = _read(path).splitlines()
        assert lines[0] == "sampler,replicates,cost,ess"
        assert len(lines) == len(cfgs) + 1
        for i, (cfg, line) in enumerate(zip(cfgs, lines[1:]), start=1):
            traces = _traces(out / f"{i:02d}-{cfg.sampler}", cfg.replicates)
            cost = float(np.mean([t["sim_counts"]["total"] for t in traces]))
            ess = float(np.mean([t["final_ess"] for t in traces]))
            row = [cfg.sampler, _fmt(cfg.replicates), _fmt(cost), _fmt(ess)]
            assert line == ",".join(row)
        assert lines[1] == "reject,2,5000.0," + lines[1].rsplit(",", 1)[1]

    def test_gain_curve_rows(self, curve):
        cfg, trace, _, rows = curve
        k = trace["init"]["batches_used"]
        stop = trace["stop_iter"] if trace["stop_iter"] is not None else -1

        def gain(ess, eps, cum):
            return gain_factor(cum, ess, toy_accept_prob(eps, cfg.prior_halfwidth))

        cum = k * cfg.n
        eps0 = trace["init"]["epsilon0"]
        expected = [
            [0, eps0, 1.0 / k, None, cum, gain(trace["init"]["ess"], eps0, cum), stop]
        ]
        for rec in trace["iterations"]:
            cum = k * cfg.n + rec["t"] * cfg.n
            expected.append(
                [rec["t"], rec["epsilon"], rec["alpha"], rec["rho_hat"], cum,
                 gain(rec["ess"], rec["epsilon"], cum), stop]
            )
        assert [",".join(row) for row in rows] == [
            ",".join(_fmt(v) for v in row) for row in expected
        ]
        assert rows[0][3] == "nan" and rows[0][4] == str(k * cfg.n)


class TestOtherSamplers:
    def test_rejection_gain_is_near_one(self, tmp_path):
        cfg = RunConfig(
            sampler="reject", n_prior=20_000, epsilon_target=0.2, seed=11, replicates=1
        )
        validate_config(cfg)
        output = run_experiment(cfg, str(tmp_path))
        trace = output.results[0].trace
        assert trace.total_sims == 20_000
        # rejection is the gain baseline; Monte Carlo noise only
        assert trace.gain == pytest.approx(1.0, abs=0.2)

    def test_mcmc_chain_includes_start(self, tmp_path):
        cfg = RunConfig(
            sampler="mcmc",
            n_prior=20_000,
            epsilon_target=0.2,
            mcmc_steps=200,
            seed=12,
            replicates=1,
        )
        validate_config(cfg)
        output = run_experiment(cfg, str(tmp_path))
        res = output.results[0]
        assert res.trace.n_final == 201
        assert np.all(res.particles.dists <= 0.2)
        # warm-up pool plus at most one simulation per step
        assert 20_000 <= res.trace.total_sims <= 20_200

    def test_rejection_keeping_nothing(self, tmp_path):
        cfg = RunConfig(sampler="reject", n_prior=500, epsilon_target=0.0, seed=13)
        run_experiment(cfg, str(tmp_path))
        trace = json.loads(_read(str(tmp_path / "trace_1.json")))
        assert (trace["n_final"], trace["final_ess"], trace["gain"]) == (0, 0.0, None)
        assert trace["final_epsilon"] == 0.0 and trace["target_reached"]
        assert _read(str(tmp_path / "particles_1.csv")) == "theta_1,z_1,dist,weight\n"

    def test_mcmc_without_a_warm_start_fails(self, tmp_path):
        cfg = RunConfig(sampler="mcmc", n_prior=500, epsilon_target=0.0, seed=13)
        with pytest.raises(DegenerateArrayError, match="warm-up"):
            run_experiment(cfg, str(tmp_path))
        assert sorted(os.listdir(tmp_path)) == ["summary.csv.partial", "trace_1.json.partial"]
        payload = json.loads(_read(str(tmp_path / "trace_1.json.partial")))
        assert payload["error"]["type"] == "DegenerateArrayError"


class TestTable1:
    def test_report_layout_and_rejection_cost(self, table1_run):
        _, tmp_path, path = table1_run
        lines = _read(path).strip().splitlines()
        assert lines[0] == "sampler,replicates,cost,ess"
        assert len(lines) == 3
        r_fields = lines[1].split(",")
        assert r_fields[0] == "reject"
        assert float(r_fields[2]) == 5000.0  # rejection cost is exactly n_prior
        assert (tmp_path / "01-reject" / "summary.csv").exists()
        assert (tmp_path / "02-self-calibrated" / "summary.csv").exists()

    def test_mismatched_tolerances_rejected(self, tmp_path):
        a = RunConfig(sampler="reject", n_prior=100, epsilon_target=0.2, seed=0)
        b = _sc_cfg(epsilon_target=0.09)
        with pytest.raises(ConfigError, match="tolerance"):
            table1_report([a, b], str(tmp_path))

    def test_config_without_tolerance_rejected(self, tmp_path):
        a = RunConfig(sampler="reject", n_prior=100, seed=0)
        with pytest.raises(ConfigError, match="epsilon_target"):
            table1_report([a], str(tmp_path))
        assert list(tmp_path.iterdir()) == []

    def test_empty_list_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            table1_report([], str(tmp_path))


class TestGainCurve:
    def test_header_and_length(self, curve):
        _, trace, header, rows = curve
        assert header == ["iter", "eps", "alpha", "rho", "cumulative_sims", "gain", "stop_iter"]
        assert len(rows) == len(trace["iterations"]) + 1

    def test_initialization_row(self, curve):
        cfg, trace, _, rows = curve
        k = trace["init"]["batches_used"]
        row0 = rows[0]
        assert row0[0] == "0"
        assert float(row0[1]) == trace["init"]["epsilon0"]
        assert float(row0[2]) == pytest.approx(1.0 / k)
        assert row0[3] == "nan"
        assert int(row0[4]) == k * cfg.n
        p0 = toy_accept_prob(trace["init"]["epsilon0"], 10.0)
        expected = (trace["init"]["ess"] / p0) / (k * cfg.n)
        assert float(row0[5]) == pytest.approx(expected, rel=1e-12)

    def test_iteration_rows_track_trace(self, curve):
        cfg, trace, _, rows = curve
        k = trace["init"]["batches_used"]
        stop = trace["stop_iter"] if trace["stop_iter"] is not None else -1
        for rec, row in zip(trace["iterations"], rows[1:]):
            assert int(row[0]) == rec["t"]
            assert float(row[1]) == rec["epsilon"]
            assert float(row[2]) == rec["alpha"]
            assert float(row[3]) == rec["rho_hat"]
            assert int(row[4]) == k * cfg.n + rec["t"] * cfg.n
            assert int(row[6]) == stop

    def test_invalid_config_fails_before_any_work(self, tmp_path):
        cfg = RunConfig(sampler="self-calibrated", n=100, seed=0)
        out = tmp_path / "out"
        with pytest.raises(ConfigError, match="epsilon_target"):
            gain_curve(cfg, str(out))
        assert not out.exists()

    def test_requires_self_calibrated(self, tmp_path):
        cfg = RunConfig(sampler="reject", n_prior=10, epsilon_target=0.2, seed=0)
        with pytest.raises(ConfigError, match="self-calibrated"):
            gain_curve(cfg, str(tmp_path))


def test_run_replicate_validates_its_config():
    with pytest.raises(ConfigError, match="epsilon_target"):
        run_replicate(RunConfig(sampler="reject", n_prior=10, seed=0), 1)


@pytest.mark.parametrize(
    "kw",
    [
        dict(sampler="reject", n_prior=2000, epsilon_target=0.5),
        dict(sampler="mcmc", n_prior=2000, epsilon_target=0.5, mcmc_steps=50),
        dict(sampler="naive-smc", n=300, schedule=[1.0, 0.5]),
        dict(sampler="self-calibrated", n=300, epsilon_target=0.5),
    ],
    ids=lambda kw: kw["sampler"],
)
def test_gain_path_never_calls_numpy_exp(monkeypatch, kw):
    # numpy's exp kernel can differ in the last bit between CPUs; a gain
    # must take the normal density from the C library's math.exp
    def refuse(*args, **kwargs):
        raise AssertionError("numpy.exp called")

    monkeypatch.setattr(np, "exp", refuse)
    assert toy_accept_prob(0.09, 10.0) == 0.008999999999999985
    trace = run_replicate(RunConfig(seed=3, **kw), 1).trace
    assert trace.gain is not None and trace.gain > 0


def test_run_replicate_keyed_by_replicate():
    cfg = _sc_cfg(replicates=2)
    a = run_replicate(cfg, 1)
    b = run_replicate(cfg, 2)
    assert not np.array_equal(a.particles.thetas, b.particles.thetas)
    again = run_replicate(cfg, 1)
    assert np.array_equal(a.particles.thetas, again.particles.thetas)


def _rowwise_particles_csv(path, particles):
    """The particle file written one ``_fmt`` call per value, row by row."""
    n = len(particles)
    p, d = particles.thetas.shape[1], particles.zs.shape[1]
    header = (
        [f"theta_{j + 1}" for j in range(p)]
        + [f"z_{j + 1}" for j in range(d)]
        + ["dist", "weight"]
    )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for i in range(n):
            row = (
                [runner._fmt(v) for v in particles.thetas[i]]
                + [runner._fmt(v) for v in particles.zs[i]]
                + [runner._fmt(particles.dists[i]), runner._fmt(1.0 / n)]
            )
            fh.write(",".join(row) + "\n")


@pytest.mark.parametrize("p", [1, 2])
def test_particles_csv_matches_rowwise_writer(tmp_path, monkeypatch, p):
    # four rows per pass, so the six rows span two passes
    monkeypatch.setattr(runner, "_CSV_CHUNK", 4)
    values = np.array([-0.0, 5e-324, 1e300, 1.0 / 3.0, -2.5, 0.1])
    thetas = np.resize(values, (6, p))
    zs = np.resize(values[::-1], (6, p))
    particles = ParticleArray(thetas, zs, np.roll(values, 2))
    runner.write_particles_csv(str(tmp_path / "block.csv"), particles)
    _rowwise_particles_csv(str(tmp_path / "rows.csv"), particles)
    text = _read(str(tmp_path / "block.csv"))
    assert text == _read(str(tmp_path / "rows.csv"))
    assert "-0.0," in text and "5e-324" in text and "1e+300" in text


def _runs(particles):
    """Number of maximal runs of bit-identical adjacent rows."""
    table = np.column_stack((particles.thetas, particles.zs, particles.dists))
    bits = table.view(np.uint64)
    return 1 + int(np.any(bits[1:] != bits[:-1], axis=1).sum()) if len(table) else 0


def _columns(rows, p=1):
    """A particle array from rows of (theta_1..p, z_1..p, dist)."""
    table = np.array(rows, dtype=float).reshape(-1, 2 * p + 1)
    return ParticleArray(table[:, :p], table[:, p:2 * p], table[:, 2 * p])


_A, _B = [0.25, -1.5, 0.5], [1.0 / 3.0, 2.0, 0.75]
_NAN, _INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "particles",
    [
        # a run of six copies from row 2 to row 7 spans passes 0 and 1
        _columns([_B, _B] + [_A] * 6 + [_B]),
        # a copy run that fills a whole pass, then a new row
        _columns([_A] * 8 + [_B]),
        # 0.0 right after -0.0 in the theta, the z and the dist column
        _columns([[-0.0, 1.0, 2.0], [0.0, 1.0, 2.0]]),
        _columns([[1.0, -0.0, 2.0], [1.0, 0.0, 2.0]]),
        _columns([[1.0, 2.0, -0.0], [1.0, 2.0, 0.0], [1.0, 2.0, 0.0]]),
        _columns([[_NAN, 1.0, _INF], [_NAN, 1.0, _INF], [-_INF, _NAN, _NAN]]),
        # a duplicate that is not adjacent is formatted again
        _columns([_A, _B, _A]),
        _columns([[0.5, -0.5, 1e-300, 2.5, 0.125]] * 5
                 + [[0.5, -0.5, 1e-300, 2.5, -0.125]], p=2),
        _columns([], p=2),
        _columns([_A]),
    ],
    ids=[
        "run-across-passes", "run-fills-pass", "signed-zero-theta",
        "signed-zero-z", "signed-zero-dist", "nan-inf", "not-adjacent",
        "p2", "empty", "single",
    ],
)
def test_particles_csv_copies_match_rowwise_writer(tmp_path, monkeypatch, particles):
    monkeypatch.setattr(runner, "_CSV_CHUNK", 4)
    runner.write_particles_csv(str(tmp_path / "block.csv"), particles)
    _rowwise_particles_csv(str(tmp_path / "rows.csv"), particles)
    assert _read(str(tmp_path / "block.csv")) == _read(str(tmp_path / "rows.csv"))


@pytest.mark.parametrize(
    "cfg",
    [
        RunConfig(sampler="naive-smc", n=2000, schedule=[2.0, 1.0, 0.5], seed=11),
        RunConfig(sampler="self-calibrated", n=2000, epsilon_target=0.09, seed=11),
        RunConfig(sampler="mcmc", n_prior=2000, epsilon_target=0.09,
                  mcmc_steps=500, seed=11),
    ],
    ids=lambda cfg: cfg.sampler,
)
def test_sampler_particles_csv_matches_rowwise_writer(tmp_path, cfg):
    particles = run_replicate(cfg, 1).particles
    # resampled copies and repeated chain states share lines
    assert _runs(particles) < len(particles)
    runner.write_particles_csv(str(tmp_path / "block.csv"), particles)
    _rowwise_particles_csv(str(tmp_path / "rows.csv"), particles)
    assert _read(str(tmp_path / "block.csv")) == _read(str(tmp_path / "rows.csv"))
