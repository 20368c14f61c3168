"""Shared fixtures and statistical helpers for the test suite."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from scipy import stats

from abcsmc import ModelSpec, toy_model

KS_LEVEL = 0.001

# one verdict line per acceptance criterion, echoed after the test report
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("=", "acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def toy():
    return toy_model(10.0)


def scalar_only(model):
    """The same model without its batch simulator."""
    return dataclasses.replace(model, simulator_batch=None)


def _two_coordinate_toy(theta, rng):
    # theta is one (2,) vector with a Generator, or (m, 2) rows with
    # SlotStreams; the draws are the same either way
    sd = np.where(rng.random(2) < 0.5, 1.0, 0.1)
    return theta + sd * rng.standard_normal(2)


# the toy noise on each of two coordinates, Euclidean distance to (0, 0)
TOY_2D = ModelSpec(
    param_dim=2,
    prior_box=[(-2.0, 2.0), (-2.0, 2.0)],
    summary_dim=2,
    observed=[0.0, 0.0],
    simulator=_two_coordinate_toy,
    name="toy-2d",
    simulator_batch=_two_coordinate_toy,
    draws_per_slot=4,
)


def ks_pvalue(a, b) -> float:
    return float(stats.ks_2samp(np.asarray(a).ravel(), np.asarray(b).ravel()).pvalue)


def assert_ks_pass(a, b, level: float = KS_LEVEL) -> None:
    p = ks_pvalue(a, b)
    assert p >= level, f"KS rejected: p={p:.3e} < {level}"
