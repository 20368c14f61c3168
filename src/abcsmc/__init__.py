"""Likelihood-free (ABC) samplers with self-calibrated tolerance schedules.

The package provides plain rejection sampling, an MCMC kernel targeting
the tolerance posterior, a fixed-schedule SMC sampler, and the
self-calibrated SMC sampler that chooses its own tolerance schedule to
minimize model simulations — plus the analytic toy model, quadrature
oracle, and diagnostics used to verify all of them end to end.
"""

from .adaptive import (
    CalibrationOutcome,
    InitResult,
    calibrate_alpha,
    init_stage,
    run_self_calibrated,
    smc_iteration,
)
from .config import RunConfig, load_config, parse_config, validate_config
from .diagnostics import ess_of_thetas, gain_factor
from .errors import (
    AbcError,
    BudgetExceededError,
    ConfigError,
    DegenerateArrayError,
    ScheduleInfeasibleError,
    SimulationError,
)
from .model import (
    ModelSpec,
    Particle,
    ParticleArray,
    distance,
    prior_predictive,
    prior_sample,
    simulate,
    toy_model,
)
from .oracle import (
    toy_accept_prob,
    toy_posterior_cdf,
    toy_posterior_functional,
    toy_posterior_pdf,
    toy_posterior_quantile,
)
from .resampling import ResamplePlan, residual_resample
from .rng import RngKey, StreamCursor
from .runner import (
    ReplicateResult,
    gain_curve,
    run_experiment,
    run_replicate,
    table1_report,
)
from .samplers import (
    McmcKernelConfig,
    RejectionResult,
    abc_reject,
    mcmc_abc_chain,
    mcmc_abc_step,
    naive_smc,
    proposal_factor,
    proposal_scale,
)
from .trace import IterationRecord, RunTrace, SimCounter

__version__ = "0.1.0"

__all__ = [
    "AbcError",
    "BudgetExceededError",
    "CalibrationOutcome",
    "ConfigError",
    "DegenerateArrayError",
    "InitResult",
    "IterationRecord",
    "McmcKernelConfig",
    "ModelSpec",
    "Particle",
    "ParticleArray",
    "RejectionResult",
    "ReplicateResult",
    "ResamplePlan",
    "RngKey",
    "RunConfig",
    "RunTrace",
    "ScheduleInfeasibleError",
    "SimCounter",
    "SimulationError",
    "StreamCursor",
    "abc_reject",
    "calibrate_alpha",
    "distance",
    "ess_of_thetas",
    "gain_curve",
    "gain_factor",
    "init_stage",
    "load_config",
    "mcmc_abc_chain",
    "mcmc_abc_step",
    "naive_smc",
    "parse_config",
    "prior_predictive",
    "prior_sample",
    "proposal_factor",
    "proposal_scale",
    "residual_resample",
    "run_experiment",
    "run_replicate",
    "run_self_calibrated",
    "simulate",
    "smc_iteration",
    "table1_report",
    "toy_accept_prob",
    "toy_model",
    "toy_posterior_cdf",
    "toy_posterior_functional",
    "toy_posterior_pdf",
    "toy_posterior_quantile",
    "validate_config",
]
