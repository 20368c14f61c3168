"""Config parsing and validation for the key = value run files."""

from __future__ import annotations

import math
from dataclasses import fields

import pytest

from abcsmc import ConfigError, RunConfig, load_config, parse_config, validate_config
from abcsmc.config import _PARSERS

GOOD = """
# full self-calibrated run
sampler = self-calibrated
model = toy
n = 2000
epsilon_target = 0.09
rho_stop = 0.1
seed = 7
replicates = 3
workers = 2
out_dir = results
"""


class TestParsing:
    def test_happy_path(self):
        cfg = parse_config(GOOD)
        assert cfg.sampler == "self-calibrated"
        assert cfg.n == 2000
        assert cfg.epsilon_target == 0.09
        assert cfg.rho_stop == 0.1
        assert cfg.seed == 7
        assert cfg.replicates == 3
        assert cfg.workers == 2
        assert cfg.out_dir == "results"
        # untouched defaults survive
        assert cfg.max_iters == 200

    def test_comments_and_whitespace(self):
        cfg = parse_config(
            "sampler=reject # trailing comment\n"
            "\n"
            "   n_prior =  100  \n"
            "quantile=0.5\n"
            "seed=0\n"
        )
        assert cfg.sampler == "reject"
        assert cfg.n_prior == 100

    def test_schedule_list(self):
        cfg = parse_config(
            "sampler = naive-smc\nn = 10\nschedule = 2.0, 1.0, 0.5\nseed = 1\n"
        )
        assert cfg.schedule == [2.0, 1.0, 0.5]

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            parse_config("sampler = reject\nbanana = 3\n", validate=False)
        # the alpha lattice, the first-block rule, the init shrink factor,
        # the init batch cap and the mcmc proposal scale are not settable
        for line in (
            "alpha_grid = 100",
            "literal_first_block = false",
            "shrink_factor = 0.5",
            "max_init_batches = 10000",
            "proposal_sd = 0.7",
        ):
            with pytest.raises(ConfigError, match="unknown config key"):
                parse_config(f"sampler = self-calibrated\n{line}\n", validate=False)

    def test_missing_equals(self):
        with pytest.raises(ConfigError, match="key = value"):
            parse_config("sampler reject\n", validate=False)

    def test_empty_value(self):
        with pytest.raises(ConfigError, match="empty value"):
            parse_config("sampler =\n", validate=False)

    def test_bad_int_and_float(self):
        with pytest.raises(ConfigError, match="integer"):
            parse_config("n = 2.5\n", validate=False)
        with pytest.raises(ConfigError, match="number"):
            parse_config("epsilon_target = lots\n", validate=False)

    def test_validate_false_defers(self):
        cfg = parse_config("sampler = reject\n", validate=False)
        assert cfg.seed is None
        with pytest.raises(ConfigError):
            validate_config(cfg)

    def test_load_config_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(str(tmp_path / "nope.cfg"))

    def test_load_config_round_trip(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(GOOD)
        assert load_config(str(path)).to_dict() == parse_config(GOOD).to_dict()

    def test_to_dict_covers_all_fields(self):
        d = RunConfig().to_dict()
        assert "sampler" in d and "seed" in d and "max_iters" in d
        assert len(d) == 15

    def test_every_field_has_a_parser(self):
        assert set(_PARSERS) == {f.name for f in fields(RunConfig)}


def _cfg(**kw):
    cfg = RunConfig(seed=0, **kw)
    validate_config(cfg)
    return cfg


class TestValidation:
    def test_seed_mandatory(self):
        with pytest.raises(ConfigError, match="seed"):
            validate_config(RunConfig(sampler="reject", n_prior=10, quantile=0.5))
        with pytest.raises(ConfigError, match="seed"):
            _cfg_bad = RunConfig(sampler="reject", n_prior=10, quantile=0.5, seed=-1)
            validate_config(_cfg_bad)

    def test_unknown_sampler_and_model(self):
        with pytest.raises(ConfigError, match="sampler"):
            _cfg(sampler="gibbs")
        with pytest.raises(ConfigError, match="model"):
            _cfg(sampler="reject", model="lotka", n_prior=10, quantile=0.5)

    def test_reject_rules(self):
        _cfg(sampler="reject", n_prior=100, epsilon_target=0.1)
        _cfg(sampler="reject", n_prior=100, quantile=0.5)
        with pytest.raises(ConfigError):
            _cfg(sampler="reject", quantile=0.5)  # no n_prior
        with pytest.raises(ConfigError, match="exactly one"):
            _cfg(sampler="reject", n_prior=100)
        with pytest.raises(ConfigError, match="exactly one"):
            _cfg(sampler="reject", n_prior=100, epsilon_target=0.1, quantile=0.5)
        with pytest.raises(ConfigError, match="quantile"):
            _cfg(sampler="reject", n_prior=100, quantile=1.5)
        with pytest.raises(ConfigError, match="at least 1"):
            _cfg(sampler="reject", n_prior=100, quantile=0.001)

    def test_mcmc_rules(self):
        _cfg(sampler="mcmc", n_prior=1000, epsilon_target=0.1)
        with pytest.raises(ConfigError):
            _cfg(sampler="mcmc", epsilon_target=0.1)
        with pytest.raises(ConfigError):
            _cfg(sampler="mcmc", n_prior=1000)
        with pytest.raises(ConfigError, match="mcmc_steps"):
            _cfg(sampler="mcmc", n_prior=1000, epsilon_target=0.1, mcmc_steps=-1)

    def test_naive_smc_rules(self):
        _cfg(sampler="naive-smc", n=10, schedule=[2.0, 1.0])
        with pytest.raises(ConfigError, match="n must"):
            _cfg(sampler="naive-smc", n=1, schedule=[1.0])
        with pytest.raises(ConfigError, match="schedule"):
            _cfg(sampler="naive-smc", n=10)
        with pytest.raises(ConfigError, match="decreasing"):
            _cfg(sampler="naive-smc", n=10, schedule=[1.0, 1.0])
        with pytest.raises(ConfigError, match="non-negative"):
            _cfg(sampler="naive-smc", n=10, schedule=[1.0, -0.5])
        with pytest.raises(ConfigError, match="finite"):
            _cfg(sampler="naive-smc", n=10, schedule=[float("inf"), 1.0])

    def test_self_calibrated_rules(self):
        _cfg(sampler="self-calibrated", n=100, epsilon_target=0.09)
        with pytest.raises(ConfigError):
            _cfg(sampler="self-calibrated", epsilon_target=0.09)
        with pytest.raises(ConfigError):
            _cfg(sampler="self-calibrated", n=100)
        with pytest.raises(ConfigError, match="rho_stop"):
            _cfg(sampler="self-calibrated", n=100, epsilon_target=0.09, rho_stop=0.0)
        with pytest.raises(ConfigError, match="rho_stop"):
            _cfg(sampler="self-calibrated", n=100, epsilon_target=0.09, rho_stop=1.01)
        with pytest.raises(ConfigError, match="max_iters"):
            _cfg(sampler="self-calibrated", n=100, epsilon_target=0.09, max_iters=-1)

    def test_common_rules(self):
        with pytest.raises(ConfigError, match="halfwidth"):
            _cfg(sampler="reject", n_prior=10, quantile=0.5, prior_halfwidth=0.0)
        with pytest.raises(ConfigError, match="halfwidth"):
            _cfg(sampler="reject", n_prior=10, quantile=0.5, prior_halfwidth=math.inf)
        with pytest.raises(ConfigError, match="replicates"):
            _cfg(sampler="reject", n_prior=10, quantile=0.5, replicates=-1)
        with pytest.raises(ConfigError, match="workers"):
            _cfg(sampler="reject", n_prior=10, quantile=0.5, workers=0)
        with pytest.raises(ConfigError, match="epsilon_target"):
            _cfg(sampler="reject", n_prior=10, epsilon_target=-1.0)
        # rho_stop = 1.0 is the documented upper edge and stays legal
        _cfg(sampler="self-calibrated", n=10, epsilon_target=0.09, rho_stop=1.0)
