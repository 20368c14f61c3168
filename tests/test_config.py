"""Config parsing and validation for the key = value run files."""

from __future__ import annotations

import math
import sys
import types
from dataclasses import fields
from pathlib import Path

import pytest

from abcsmc import ConfigError, RunConfig, load_config, parse_config, validate_config
from abcsmc import config
from abcsmc.config import _PARSERS

GOOD = """
# full self-calibrated run
sampler = self-calibrated
model = toy
n = 2000
epsilon_target = 0.09
seed = 7
replicates = 3
workers = 2
"""


class TestParsing:
    def test_happy_path(self):
        cfg = parse_config(GOOD)
        assert cfg.sampler == "self-calibrated"
        assert cfg.n == 2000
        assert cfg.epsilon_target == 0.09
        assert cfg.seed == 7
        assert cfg.replicates == 3
        assert cfg.workers == 2
        # untouched defaults survive
        assert cfg.mcmc_steps == 1000

    def test_comments_and_whitespace(self):
        cfg = parse_config(
            "sampler=reject # trailing comment\n"
            "\n"
            "   n_prior =  100  \n"
            "epsilon_target=0.5\n"
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
            parse_config("sampler = reject\nbanana = 3\n")
        # the alpha lattice, the first-block rule, the init shrink factor,
        # the init batch cap, the mcmc proposal scale, quantile-mode
        # rejection, the move-probability stop and the iteration cap are
        # not settable
        for line in (
            "alpha_grid = 100",
            "literal_first_block = false",
            "shrink_factor = 0.5",
            "max_init_batches = 10000",
            "proposal_sd = 0.7",
            "quantile = 0.5",
            "rho_stop = 0.1",
            "max_iters = 200",
        ):
            with pytest.raises(ConfigError, match="unknown config key"):
                parse_config(f"sampler = self-calibrated\n{line}\n")

    def test_missing_equals(self):
        with pytest.raises(ConfigError, match="key = value"):
            parse_config("sampler reject\n")

    def test_empty_value(self):
        with pytest.raises(ConfigError, match="empty value"):
            parse_config("sampler =\n")

    def test_bad_int_and_float(self):
        with pytest.raises(ConfigError, match="integer"):
            parse_config("n = 2.5\n")
        with pytest.raises(ConfigError, match="number"):
            parse_config("epsilon_target = lots\n")

    def test_parsing_does_not_validate(self):
        # ranges and requirements wait for validate_config, which the
        # runner calls once the CLI has applied its flags
        cfg = parse_config("sampler = reject\nworkers = 0\n")
        assert cfg.seed is None and cfg.workers == 0
        with pytest.raises(ConfigError, match="seed"):
            validate_config(cfg)

    def test_repeated_key(self):
        with pytest.raises(ConfigError, match="line 3: 'seed' already set on line 1"):
            parse_config("seed = 1\nn = 5\nseed = 2\n")

    def test_load_config_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(str(tmp_path / "nope.cfg"))

    def test_load_config_round_trip(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(GOOD)
        assert load_config(str(path)).to_dict() == parse_config(GOOD).to_dict()

    def test_to_dict_covers_all_fields(self):
        d = RunConfig().to_dict()
        assert "sampler" in d and "seed" in d and "workers" in d
        assert len(d) == 11

    def test_every_field_has_a_parser(self):
        assert set(_PARSERS) == {f.name for f in fields(RunConfig)}

    def test_each_key_parses_as_its_type(self):
        keys_by_type = {
            str: ("sampler", "model"),
            int: ("n", "n_prior", "mcmc_steps", "replicates", "seed", "workers"),
            float: ("prior_halfwidth", "epsilon_target"),
            list: ("schedule",),
        }
        parsed = {str: "7", int: 7, float: 7.0, list: [7.0]}
        assert sorted(k for keys in keys_by_type.values() for k in keys) == sorted(_PARSERS)
        for kind, keys in keys_by_type.items():
            for key in keys:
                value = getattr(parse_config(f"{key} = 7\n"), key)
                assert type(value) is kind and value == parsed[kind], key

    def test_unmapped_annotation_fails_at_import(self, monkeypatch):
        source = Path(config.__file__).read_text(encoding="utf-8")
        source = source.replace('model: str = "toy"', 'model: bytes = b"toy"')
        probe = types.ModuleType("abcsmc._config_probe")
        probe.__package__ = "abcsmc"
        monkeypatch.setitem(sys.modules, probe.__name__, probe)
        with pytest.raises(KeyError, match="bytes"):
            exec(compile(source, "config_probe.py", "exec"), probe.__dict__)


def _cfg(**kw):
    cfg = RunConfig(seed=0, **kw)
    validate_config(cfg)
    return cfg


class TestValidation:
    def test_seed_mandatory(self):
        with pytest.raises(ConfigError, match="seed"):
            validate_config(RunConfig(sampler="reject", n_prior=10, epsilon_target=0.5))
        with pytest.raises(ConfigError, match="seed"):
            _cfg_bad = RunConfig(sampler="reject", n_prior=10, epsilon_target=0.5, seed=-1)
            validate_config(_cfg_bad)

    def test_seed_fits_64_bits(self):
        # a wider seed would replay the seed it wraps to: 2**64 is seed 0
        text = "sampler = reject\nn_prior = 10\nepsilon_target = 0.5\n"
        validate_config(parse_config(text + f"seed = {2**64 - 1}\n"))
        with pytest.raises(ConfigError, match="seed"):
            validate_config(parse_config(text + "seed = 18446744073709551616\n"))

    def test_unknown_sampler_and_model(self):
        with pytest.raises(ConfigError, match="sampler"):
            _cfg(sampler="gibbs")
        with pytest.raises(ConfigError, match="model"):
            _cfg(sampler="reject", model="lotka", n_prior=10, epsilon_target=0.5)

    def test_reject_rules(self):
        _cfg(sampler="reject", n_prior=100, epsilon_target=0.1)
        with pytest.raises(ConfigError, match="n_prior"):
            _cfg(sampler="reject", epsilon_target=0.1)
        with pytest.raises(ConfigError, match="epsilon_target"):
            _cfg(sampler="reject", n_prior=100)

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

    def test_common_rules(self):
        with pytest.raises(ConfigError, match="halfwidth"):
            _cfg(sampler="reject", n_prior=10, epsilon_target=0.5, prior_halfwidth=0.0)
        with pytest.raises(ConfigError, match="halfwidth"):
            _cfg(sampler="reject", n_prior=10, epsilon_target=0.5, prior_halfwidth=math.inf)
        with pytest.raises(ConfigError, match="replicates"):
            _cfg(sampler="reject", n_prior=10, epsilon_target=0.5, replicates=-1)
        with pytest.raises(ConfigError, match="workers"):
            _cfg(sampler="reject", n_prior=10, epsilon_target=0.5, workers=0)
        with pytest.raises(ConfigError, match="epsilon_target"):
            _cfg(sampler="reject", n_prior=10, epsilon_target=-1.0)
