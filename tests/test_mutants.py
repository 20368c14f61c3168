"""Mutants that prove the checks: each test breaks one function of the
library on purpose, runs a named check at that check's own workload and
seeds, and asserts that the check fails.  A check that still passed on
a broken sampler would check nothing, so a change that weakens one of
these checks fails here.

A mutant is the library function recompiled from its own source with
one expression replaced (:func:`_mutant`); when that expression is
edited away, the test says so instead of testing nothing.
"""

from __future__ import annotations

import __future__
import inspect
import textwrap

import pytest

import test_acceptance
import test_frozen_artifacts
import test_oracle
import test_resampling
from abcsmc import adaptive, oracle, resampling, samplers


def _mutant(func, old: str, new: str):
    """``func`` with the one occurrence of ``old`` in its source replaced
    by ``new``, compiled in the namespace of its own module."""
    source = textwrap.dedent(inspect.getsource(func))
    assert source.count(old) == 1, f"{func.__name__} no longer reads {old!r}"
    code = compile(
        source.replace(old, new), inspect.getsourcefile(func), "exec",
        flags=__future__.annotations.compiler_flag, dont_inherit=True,
    )
    namespace = dict(func.__globals__)
    exec(code, namespace)
    return namespace[func.__name__]


# the accept decision of the resample-and-move step; slots [0, k) hold
# the cached calibration proposals, slots [k, n) the fresh tail moves
_ACCEPT = "accept = moves.dists <= epsilon"


@pytest.mark.acceptance
def test_criterion_6_fails_when_cached_proposals_are_never_applied(toy, monkeypatch):
    mutant = _mutant(adaptive._move_step, _ACCEPT, f"{_ACCEPT}\n    accept[:k] = False")
    monkeypatch.setattr(adaptive, "_move_step", mutant)
    ok, worst, detail = test_acceptance.criterion_6_distinct_count(toy)
    assert not ok and worst < 0, detail


@pytest.mark.acceptance
def test_criterion_6_fails_when_tail_moves_are_never_written_back(toy, monkeypatch):
    mutant = _mutant(adaptive._move_step, _ACCEPT, f"{_ACCEPT}\n    accept[k:] = False")
    monkeypatch.setattr(adaptive, "_move_step", mutant)
    ok, worst, detail = test_acceptance.criterion_6_distinct_count(toy)
    assert not ok and worst < 0, detail


def test_frozen_digests_fail_when_naive_smc_moves_its_sub_stream(
    tmp_path_factory, monkeypatch
):
    monkeypatch.setattr(samplers, "_SUB_MOVE", samplers._SUB_MOVE + 1)
    digests = test_frozen_artifacts.artifact_digests(tmp_path_factory)
    # every naive-smc file moves, and nothing else does
    assert test_frozen_artifacts.changed_digests(digests) == sorted(
        k for k in test_frozen_artifacts.FROZEN_DIGESTS if k.startswith("naive-smc/")
    )


def test_plan_layout_fails_when_the_last_debt_draw_is_dropped(monkeypatch):
    # a source with no deterministic copy takes its first copy from its
    # first residual draw; this resampler spends its last one instead
    first = "drawn, first = np.unique(residual_draws, return_index=True)"
    last = (
        "drawn, first = np.unique(residual_draws[::-1], return_index=True)\n"
        "        first = residual_draws.size - 1 - first"
    )
    mutant = _mutant(resampling.residual_resample, first, last)
    monkeypatch.setattr(test_resampling, "residual_resample", mutant)
    with pytest.raises(AssertionError):
        test_resampling.test_plan_properties()


def test_ndtr_accuracy_fails_on_a_wrong_argument_scale(monkeypatch):
    mutant = _mutant(oracle._ndtr, "_SQRT1_2", "(_SQRT1_2 * (1.0 + 1e-12))")
    monkeypatch.setattr(oracle, "_ndtr", mutant)
    assert test_oracle.ndtr_error() > 1e-13
